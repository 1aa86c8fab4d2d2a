#include "src/fuzz/coverage.h"

#include <algorithm>

#include "src/crypto/sha256.h"
#include "src/os/world.h"
#include "src/spec/abstract_state.h"

namespace komodo::fuzz {

namespace {

// Order-sensitive chained fold — a structural serialization, not a bag hash.
void Fold(uint64_t* h, uint64_t v) { *h = SplitMix64(*h ^ v); }

}  // namespace

size_t CoverageMap::Merge(const CoverageMap& o) {
  size_t added = 0;
  for (const uint64_t k : o.keys_) {
    added += keys_.insert(k).second ? 1 : 0;
  }
  return added;
}

size_t CoverageMap::CountNew(const CoverageMap& o) const {
  size_t n = 0;
  for (const uint64_t k : o.keys_) {
    n += keys_.count(k) == 0 ? 1 : 0;
  }
  return n;
}

std::vector<uint64_t> CoverageMap::Sorted() const {
  std::vector<uint64_t> v(keys_.begin(), keys_.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::string CoverageMap::Digest() const {
  crypto::Sha256 h;
  for (const uint64_t k : Sorted()) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(k >> (8 * i));
    }
    h.Update(bytes, sizeof(bytes));
  }
  return crypto::DigestToHex(h.Finalize());
}

uint64_t MixCoverageKey(CoverageDomain domain, uint64_t value) {
  return SplitMix64(SplitMix64(static_cast<uint64_t>(domain) * 0x9e3779b97f4a7c15ull) ^ value);
}

namespace {

// Emits one feature key: an order-sensitive fold of the (tag, values...)
// tuple under the PageDb-shape domain.
void Feature(CoverageMap* out, uint64_t tag, std::initializer_list<uint64_t> values) {
  uint64_t h = 0x6b6f6d6f646f6462ull;
  Fold(&h, tag);
  for (const uint64_t v : values) {
    Fold(&h, v);
  }
  out->Add(MixCoverageKey(CoverageDomain::kPageDbShape, h));
}

}  // namespace

void HarvestPageDbCoverage(const spec::PageDb& db, CoverageMap* out) {
  uint64_t type_counts[8] = {0};
  for (PageNr n = 0; n < db.NPages(); ++n) {
    const spec::PageDbEntry& e = db[n];
    ++type_counts[static_cast<size_t>(e.type()) & 7];
    switch (e.type()) {
      case PageType::kAddrspace: {
        const auto& a = e.As<spec::AddrspacePage>();
        Feature(out, 1, {static_cast<uint64_t>(a.state), a.refcount});
        break;
      }
      case PageType::kDispatcher: {
        const auto& d = e.As<spec::DispatcherPage>();
        Feature(out, 2, {d.entered ? 1u : 0u});
        break;
      }
      case PageType::kL1PTable: {
        Feature(out, 3, {e.As<spec::L1PTablePage>().slots().size()});
        break;
      }
      case PageType::kL2PTable: {
        const auto& l2 = e.As<spec::L2PTablePage>();
        uint64_t secure = 0;
        uint64_t insecure = 0;
        uint64_t perm_union = 0;
        for (const auto& [slot, ent] : l2.slots()) {
          if (const auto* sm = std::get_if<spec::SecureMapping>(&ent)) {
            ++secure;
            perm_union |= 1u | (sm->writable ? 2u : 0u) | (sm->executable ? 4u : 0u);
          } else if (const auto* im = std::get_if<spec::InsecureMapping>(&ent)) {
            ++insecure;
            perm_union |= 8u | (im->writable ? 2u : 0u);
          }
        }
        Feature(out, 4, {secure, insecure, perm_union});
        break;
      }
      case PageType::kFree:
      case PageType::kDataPage:  // contents excluded by design (see header)
      case PageType::kSparePage:
        break;
    }
  }
  // Population counts: how many pages of each type coexist — depth that
  // page-local features cannot see (three addrspaces, nine data pages, ...).
  for (size_t ty = 0; ty < 8; ++ty) {
    if (type_counts[ty] != 0) {
      Feature(out, 100 + ty, {type_counts[ty]});
    }
  }
}

void HarvestObsCoverage(const os::World& w, CoverageMap* out) {
  for (const uint64_t k : w.monitor.obs().coverage_keys()) {
    out->Add(MixCoverageKey(CoverageDomain::kObsEvent, k));
  }
}

void HarvestMachineCoverage(const os::World& w, CoverageMap* out) {
  for (const arm::paddr a : w.machine.interp.ResidentDecodeAddrs()) {
    out->Add(MixCoverageKey(CoverageDomain::kDecodeAddr, a));
  }
  for (const jit::ResidentBlock& b : w.machine.jit.ResidentBlocks()) {
    uint64_t h = b.phys;
    Fold(&h, b.va);
    Fold(&h, b.compiled ? 1 : 0);
    out->Add(MixCoverageKey(CoverageDomain::kJitBlock, h));
  }
}

}  // namespace komodo::fuzz
