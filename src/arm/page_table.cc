#include "src/arm/page_table.h"

#include <cassert>

namespace komodo::arm {

namespace {
constexpr word kNsBit = 1u << 3;

constexpr word kL2SmallBit = 1u << 1;
constexpr word kL2XnBit = 1u << 0;
constexpr word kL2ApShift = 4;
constexpr word kL2ApMask = 0x3u << kL2ApShift;
constexpr word kL2PageBaseMask = 0xffff'f000;

constexpr word kApUserRw = 0x3;
constexpr word kApUserRo = 0x2;
constexpr word kApPrivOnly = 0x1;
}  // namespace

word MakeL1PageTableDesc(paddr l2_table_base) {
  assert((l2_table_base & ~kL1TableBaseMask) == 0);
  return (l2_table_base & kL1TableBaseMask) | kL1TypePageTable;
}

word MakeL2SmallPageDesc(paddr page_base, bool writable, bool executable, bool ns) {
  assert(IsPageAligned(page_base));
  word desc = (page_base & kL2PageBaseMask) | kL2SmallBit;
  const word ap = writable ? kApUserRw : kApUserRo;
  desc |= ap << kL2ApShift;
  if (!executable) {
    desc |= kL2XnBit;
  }
  if (ns) {
    desc |= kNsBit;
  }
  return desc;
}

bool IsL2SmallPageDesc(word desc) { return (desc & kL2SmallBit) != 0; }

L2Perms L2DescPerms(word desc) {
  L2Perms p;
  const word ap = (desc & kL2ApMask) >> kL2ApShift;
  p.user_read = (ap == kApUserRw || ap == kApUserRo);
  p.user_write = (ap == kApUserRw);
  p.executable = (desc & kL2XnBit) == 0;
  p.ns = (desc & kNsBit) != 0;
  (void)kApPrivOnly;
  return p;
}

paddr L2DescPageBase(word desc) { return desc & kL2PageBaseMask; }

WalkResult WalkPageTable(const PhysMemory& mem, paddr l1_base, vaddr va, WalkTrace* trace) {
  WalkResult res;
  if (va >= kEnclaveVaLimit) {
    return res;
  }
  const word l1_index = va >> 20;  // 1 MB per L1 entry
  const paddr l1_addr = l1_base + l1_index * kWordSize;
  if (!mem.IsValidPhys(l1_addr)) {
    return res;
  }
  const word l1_desc = mem.Read(l1_addr);
  if (!IsL1PageTableDesc(l1_desc)) {
    return res;
  }
  const paddr l2_table = L1DescTableBase(l1_desc);
  const word l2_index = (va >> 12) & 0xff;
  const paddr l2_addr = l2_table + l2_index * kWordSize;
  if (!mem.IsValidPhys(l2_addr)) {
    return res;
  }
  const word l2_desc = mem.Read(l2_addr);
  if (!IsL2SmallPageDesc(l2_desc)) {
    return res;
  }
  if (trace != nullptr) {
    trace->l1_entry_addr = l1_addr;
    trace->l2_entry_addr = l2_addr;
  }
  const L2Perms perms = L2DescPerms(l2_desc);
  res.ok = perms.user_read;
  res.phys = L2DescPageBase(l2_desc) | (va & (kPageSize - 1));
  res.user_read = perms.user_read;
  res.user_write = perms.user_write;
  res.executable = perms.executable;
  return res;
}

bool AddrInLivePageTable(const PhysMemory& mem, paddr l1_base, paddr addr) {
  if (addr >= l1_base && addr < l1_base + kL1Entries * kWordSize) {
    return true;
  }
  for (word l1_index = 0; l1_index < kL1Entries; ++l1_index) {
    const paddr l1_addr = l1_base + l1_index * kWordSize;
    if (!mem.IsValidPhys(l1_addr)) {
      continue;
    }
    const word l1_desc = mem.Read(l1_addr);
    if (!IsL1PageTableDesc(l1_desc)) {
      continue;
    }
    const paddr l2_table = L1DescTableBase(l1_desc);
    if (addr >= l2_table && addr < l2_table + kL2TableBytes) {
      return true;
    }
  }
  return false;
}

}  // namespace komodo::arm
