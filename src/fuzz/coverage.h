// Coverage signals for evolve-mode fuzzing (DESIGN.md §15).
//
// A CoverageMap is a set of 64-bit keys, each a domain-separated hash of one
// "interesting shape" the monitor reached while replaying a trace:
//
//   * PageDb shape keys: abstraction *features* of the extracted abstract
//     state — per-page facts (addrspace state + refcount, dispatcher
//     entered-ness, installed L1/L2 slot counts and permission unions) plus
//     per-type population counts. Features, not whole-state hashes, on
//     purpose: hashing the full PageDb makes every fresh state exactly one
//     key, so any two equal-budget strategies tie by construction; features
//     saturate for shallow exploration and keep growing only with
//     qualitatively new structure (higher refcounts, fuller tables, more
//     coexisting pages) — exactly what guided depth buys. Page numbers and
//     DataPage contents are deliberately excluded: positional and payload
//     variation would explode the key space without describing a new shape.
//   * Observability keys: the (event kind, call/code, error) triples the
//     monitor's tracer saw — which calls ran, which errors they produced,
//     which lifecycle instants fired (src/obs/ coverage export hook).
//   * Machine keys: resident interp decode-cache addresses and JIT block-table
//     entries — which code the enclave worlds actually executed. Harvested
//     only from worlds whose cache/JIT enablement the oracle sets explicitly
//     (the interp oracle), so keys never depend on KOMODO_INTERP_CACHE /
//     KOMODO_JIT environment defaults.
//
// Every key derivation is a pure function of architectural state, so coverage
// — and everything evolve mode builds on it (corpus, campaign hash) — is
// byte-reproducible for a given seed at any --jobs count.
#ifndef SRC_FUZZ_COVERAGE_H_
#define SRC_FUZZ_COVERAGE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace komodo::os {
struct World;
}  // namespace komodo::os

namespace komodo::spec {
struct PageDb;
}  // namespace komodo::spec

namespace komodo::fuzz {

// Distinct-key set with deterministic export order.
class CoverageMap {
 public:
  // True if `key` was not present before.
  bool Add(uint64_t key) { return keys_.insert(key).second; }
  // Folds `o` in; returns how many of its keys were new.
  size_t Merge(const CoverageMap& o);
  bool Contains(uint64_t key) const { return keys_.count(key) != 0; }
  // Keys of `o` not present here (the gain `o` would contribute).
  size_t CountNew(const CoverageMap& o) const;
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  void Clear() { keys_.clear(); }
  // Ascending key order — the canonical serialization.
  std::vector<uint64_t> Sorted() const;
  // SHA-256 hex over the sorted keys; pins a coverage state in hashes/tests.
  std::string Digest() const;

 private:
  std::unordered_set<uint64_t> keys_;
};

// The splitmix64 finaliser: the one 64-bit mixer behind coverage keys and the
// campaign's seed streams.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Key domains. Every key is SplitMix-style mixed so unrelated facts cannot
// collide by arithmetic accident; the domain tag keeps e.g. a decode address
// from aliasing an obs triple.
enum class CoverageDomain : uint64_t {
  kPageDbShape = 1,
  kObsEvent = 2,
  kDecodeAddr = 3,
  kJitBlock = 4,
};

uint64_t MixCoverageKey(CoverageDomain domain, uint64_t value);

// Harvests the structural-shape feature keys of an abstract PageDb into
// `out` (see file comment).
void HarvestPageDbCoverage(const spec::PageDb& db, CoverageMap* out);

// Harvests the world's observability coverage keys (armed by CoverageScope in
// oracles.cc) into `out`.
void HarvestObsCoverage(const os::World& w, CoverageMap* out);

// Harvests resident decode-cache addresses and JIT block keys from a world
// whose cache/JIT enablement was set explicitly by the oracle.
void HarvestMachineCoverage(const os::World& w, CoverageMap* out);

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_COVERAGE_H_
