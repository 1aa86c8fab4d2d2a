// Symmetry canonicalization for the model checker (DESIGN.md §12).
//
// Secure page numbers are interchangeable: the monitor never computes with a
// page number except as an index, so any permutation of the secure pages maps
// reachable PageDbs to reachable PageDbs and spec transitions commute with the
// renaming. The explorer therefore identifies states up to page-number
// permutation, which collapses the bounded world's state count by up to n!.
//
// CanonicalKey(d) is the quotient map: a deterministic serialization that is
// equal for two PageDbs iff some permutation carries one onto the other —
// modulo the measurement fields (measurement_stream/measurement), which no
// guard or invariant reads and which would otherwise record the whole call
// history and defeat the quotient. The concrete refinement obligation still
// compares full PageDbs (including measurements) along each explored path.
#ifndef SRC_VERIFY_CANON_H_
#define SRC_VERIFY_CANON_H_

#include <string>
#include <vector>

#include "src/spec/abstract_state.h"

namespace komodo::verify {

using arm::word;
using komodo::PageNr;

// A permutation of secure page numbers: perm[old_page] == new_page.
using Perm = std::vector<PageNr>;

// Rebuilds `d` with every page moved to perm[n] and every page reference
// (owner, l1pt_page, L1 slots, secure L2 targets) rewritten through `perm`.
// References outside [0, NPages) — kInvalidPage owners, stale pointers wider
// than the world — pass through unchanged. Measurements move with their page.
spec::PageDb ApplyPermutation(const spec::PageDb& d, const Perm& perm);

// Deterministic serialization of `d` under the identity permutation, with the
// measurement fields quotiented out. Exposed for tests.
std::string Serialize(const spec::PageDb& d);

// The canonical (lexicographically minimal) serialization over all candidate
// permutations. Permutation-invariant: CanonicalKey(ApplyPermutation(d, p))
// == CanonicalKey(d) for any permutation p.
std::string CanonicalKey(const spec::PageDb& d);

}  // namespace komodo::verify

#endif  // SRC_VERIFY_CANON_H_
