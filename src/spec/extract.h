// Extraction of the abstract PageDb from the monitor's concrete in-memory
// representation — the refinement relation between implementation and spec.
// The refinement tests require ExtractPageDb(machine after impl call) to
// equal the spec function's output; the implementation keeps no C++ shadow
// state it could cheat with.
#ifndef SRC_SPEC_EXTRACT_H_
#define SRC_SPEC_EXTRACT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/spec/abstract_state.h"

namespace komodo::spec {

// A structural decode failure: the monitor's in-memory state does not
// represent any abstract PageDb (e.g. a page-table descriptor pointing
// outside the secure region, or a PageDB type word with no variant). A
// correct monitor never produces one; fault injections can.
struct ExtractError {
  PageNr page = kInvalidPage;  // secure page being decoded (kInvalidPage: PageDB header)
  std::string detail;
};

class ExtractCache;

// Reads the PageDB region, typed secure pages and hardware page tables out of
// simulated memory and reifies the abstract state. Returns nullopt (filling
// *err when non-null) if the representation cannot be decoded; semantic
// invariants are checked separately (invariants.h). With a `cache`, pages
// unchanged since its last extraction reuse their entries (see ExtractCache);
// the result is the same either way.
std::optional<PageDb> TryExtractPageDb(const arm::MachineState& m, ExtractError* err = nullptr,
                                       ExtractCache* cache = nullptr);

// Abort-on-failure wrapper for callers that have already established
// decodability (the refinement and property tests). The differential oracles
// and the model checker use TryExtractPageDb so an injected fault surfaces as
// an oracle failure instead of killing the process.
PageDb ExtractPageDb(const arm::MachineState& m, ExtractCache* cache = nullptr);

// The last successful extraction from one PhysMemory (DESIGN.md §12). A
// page's entry is a function of its PageDB type and owner words, its secure
// page's contents and the world size alone, and every store into a page bumps
// its generation (PhysMemory::PageGen). So an extraction through the cache
// from the same memory, at the same world size, reuses the entry of every page
// whose generation, type and owner are all unchanged, and decodes every other
// page as an uncached extraction would. A cache handed another memory decodes
// every page and rebinds; a failed extraction empties it. Like a carried
// MemoryCompare, the cache holds a pointer to the memory, which must outlive
// its use, and relies on 32-bit generations not wrapping between two calls.
class ExtractCache {
 private:
  friend std::optional<PageDb> TryExtractPageDb(const arm::MachineState& m, ExtractError* err,
                                                ExtractCache* cache);

  // What one page's entry was decoded from.
  struct Stamp {
    uint32_t gen = 0;
    word type = 0;
    word owner = 0;
    bool operator==(const Stamp&) const = default;
  };

  const arm::PhysMemory* mem_ = nullptr;  // null: empty
  std::vector<Stamp> stamps_;
  PageDb db_;
};

}  // namespace komodo::spec

#endif  // SRC_SPEC_EXTRACT_H_
