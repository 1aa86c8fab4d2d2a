#include "src/arm/interp_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace komodo::arm {

namespace {

bool EnvEnabled() {
  const char* v = std::getenv("KOMODO_INTERP_CACHE");
  if (v == nullptr) {
    return true;
  }
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "false") == 0);
}

}  // namespace

InterpCaches::InterpCaches()
    : enabled_(EnvEnabled()),
      decode_(kDecodeEntries),
      tlb_(kTlbEntries),
      footprints_(kFootprintEntries) {}

InterpCaches::InterpCaches(const InterpCaches& o)
    : enabled_(o.enabled_),
      decode_(kDecodeEntries),
      tlb_(kTlbEntries),
      footprints_(kFootprintEntries) {}

InterpCaches& InterpCaches::operator=(const InterpCaches& o) {
  enabled_ = o.enabled_;
  InvalidateAll();
  return *this;
}

const Instruction* InterpCaches::FillDecode(const PhysMemory& mem, paddr phys,
                                            DecodeEntry& e) {
  ++stats_.decode_misses;
  const std::optional<Instruction> decoded = Decode(mem.Read(phys));
  e.addr = phys;
  e.epoch = decode_epoch_;
  e.gen_idx = mem.PageIndexOf(phys);
  e.gen = mem.PageGenAt(e.gen_idx);
  e.decode_ok = decoded.has_value();
  if (decoded.has_value()) {
    e.insn = *decoded;
  }
  return e.decode_ok ? &e.insn : nullptr;
}

WalkResult InterpCaches::FillTlb(const PhysMemory& mem, paddr ttbr0, vaddr va,
                                 TlbEntry& e) {
  ++stats_.tlb_misses;
  WalkTrace trace;
  const WalkResult res = WalkPageTable(mem, ttbr0, va, &trace);
  if (res.ok) {
    e.vpn = va >> 12;
    e.epoch = tlb_epoch_;
    e.ttbr0 = ttbr0;
    e.l1_gen_idx = mem.PageIndexOf(trace.l1_entry_addr);
    e.l2_gen_idx = mem.PageIndexOf(trace.l2_entry_addr);
    e.l1_gen = mem.PageGenAt(e.l1_gen_idx);
    e.l2_gen = mem.PageGenAt(e.l2_gen_idx);
    e.page_base = PageBase(res.phys);
    e.user_write = res.user_write;
    e.executable = res.executable;
    e.gen_idx = mem.PageIndexOf(e.page_base);
    e.host = mem.PageHost(e.gen_idx);
    e.inline_store = res.user_write && e.host != nullptr && IsPageAligned(ttbr0) &&
                     !Footprint(mem, ttbr0).Overlaps(e.page_base, e.page_base + kPageSize);
  }
  return res;
}

void InterpCaches::RebuildFootprint(const PhysMemory& mem, paddr ttbr0, PtFootprint& f) {
  ++stats_.pt_filter_rebuilds;
  f.epoch = footprint_epoch_;
  f.ttbr0 = ttbr0;
  const paddr l1_end = ttbr0 + kL1Entries * kWordSize;
  f.l1_first_idx = mem.PageIndexOf(PageBase(ttbr0));
  f.l1_last_idx = mem.PageIndexOf(PageBase(l1_end - kWordSize));
  f.l1_first_gen = mem.PageGenAt(f.l1_first_idx);
  f.l1_last_gen = mem.PageGenAt(f.l1_last_idx);
  f.ranges.clear();
  f.ranges.emplace_back(ttbr0, l1_end);
  for (word l1_index = 0; l1_index < kL1Entries; ++l1_index) {
    const paddr l1_addr = ttbr0 + l1_index * kWordSize;
    if (!mem.IsValidPhys(l1_addr)) {
      continue;
    }
    const word l1_desc = mem.Read(l1_addr);
    if (!IsL1PageTableDesc(l1_desc)) {
      continue;
    }
    const paddr l2_table = L1DescTableBase(l1_desc);
    f.ranges.emplace_back(l2_table, l2_table + kL2TableBytes);
  }
  // Sort and merge in place so membership is one binary search.
  std::sort(f.ranges.begin(), f.ranges.end());
  size_t merged = 0;
  for (const auto& r : f.ranges) {
    if (merged != 0 && r.first <= f.ranges[merged - 1].second) {
      f.ranges[merged - 1].second = std::max(f.ranges[merged - 1].second, r.second);
    } else {
      f.ranges[merged++] = r;
    }
  }
  f.ranges.resize(merged);
}

bool InterpCaches::PtFootprint::Contains(paddr addr) const {
  // First range with start > addr; the candidate containing addr precedes it.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), addr,
      [](paddr a, const std::pair<paddr, paddr>& r) { return a < r.first; });
  return it != ranges.begin() && addr < std::prev(it)->second;
}

bool InterpCaches::PtFootprint::Overlaps(paddr lo, paddr hi) const {
  // First range that ends past lo; it overlaps iff it starts before hi.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), lo,
      [](paddr a, const std::pair<paddr, paddr>& r) { return a < r.second; });
  return it != ranges.end() && it->first < hi;
}

void InterpCaches::InvalidateAll() {
  InvalidateTlb();
  ++decode_epoch_;
  ++footprint_epoch_;
}

std::vector<paddr> InterpCaches::ResidentDecodeAddrs() const {
  std::vector<paddr> out;
  for (const DecodeEntry& e : decode_) {
    if (e.addr != kNoTag && e.epoch == decode_epoch_) {
      out.push_back(e.addr);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace komodo::arm
