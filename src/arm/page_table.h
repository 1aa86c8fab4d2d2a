// ARMv7 short-descriptor page tables, restricted — exactly as the paper's
// model is (§5.1) — to two-level tables of 4 kB "small" pages.
//
// Enclave address spaces cover the low 1 GB of virtual memory (TTBCR.N=2,
// Figure 4), so a first-level table has 1024 4-byte entries and fits in one
// secure page. Each second-level table has 256 entries (1 kB); a Komodo
// L2PTable page packs four consecutive second-level tables covering 4 MB.
// If the walker meets a descriptor outside this idiom, translation faults —
// the model "says nothing" about other formats, which forces monitor code to
// build conforming tables.
#ifndef SRC_ARM_PAGE_TABLE_H_
#define SRC_ARM_PAGE_TABLE_H_

#include <vector>

#include "src/arm/memory.h"
#include "src/arm/types.h"

namespace komodo::arm {

inline constexpr word kL1Entries = 1024;        // 1 GB / 1 MB sections
inline constexpr word kL2Entries = 256;         // 1 MB / 4 kB pages
inline constexpr word kL2TableBytes = kL2Entries * kWordSize;  // 1 kB
inline constexpr word kL2TablesPerPage = kPageSize / kL2TableBytes;  // 4

// --- Descriptor encodings (DDI 0406C §B3.5) ---------------------------------

// First-level "page table" (coarse) descriptor: bits[1:0]=0b01, NS at bit 3,
// second-level table base at bits[31:10].
inline constexpr word kL1TypeMask = 0x3;
inline constexpr word kL1TypePageTable = 0x1;
inline constexpr word kL1TableBaseMask = 0xffff'fc00;
word MakeL1PageTableDesc(paddr l2_table_base);
inline bool IsL1PageTableDesc(word desc) { return (desc & kL1TypeMask) == kL1TypePageTable; }
inline paddr L1DescTableBase(word desc) { return desc & kL1TableBaseMask; }
inline constexpr word kL1FaultDesc = 0;

// Second-level "small page" descriptor: bit[1]=1, XN at bit[0], AP[1:0] at
// bits[5:4], page base at bits[31:12]. AP=0b11 grants user read/write,
// AP=0b10 grants user read-only. We additionally carry a software NS bit at
// bit 3 marking mappings of insecure pages; it does not affect the walk.
word MakeL2SmallPageDesc(paddr page_base, bool writable, bool executable, bool ns);
bool IsL2SmallPageDesc(word desc);
inline constexpr word kL2FaultDesc = 0;

struct L2Perms {
  bool user_read = false;
  bool user_write = false;
  bool executable = false;
  bool ns = false;
};
L2Perms L2DescPerms(word desc);
paddr L2DescPageBase(word desc);

// --- Translation -------------------------------------------------------------

struct WalkResult {
  bool ok = false;
  paddr phys = 0;
  bool user_read = false;
  bool user_write = false;
  bool executable = false;
};

// The descriptor addresses a (successful) walk read — the micro-TLB tags its
// entries with the pages these live in so that any store into them
// invalidates the cached translation.
struct WalkTrace {
  paddr l1_entry_addr = 0;
  paddr l2_entry_addr = 0;
};

// Walks the two-level table rooted at `l1_base` for virtual address `va`.
// Fails (ok=false) for va >= 1 GB, descriptors outside the modelled idiom, or
// table addresses that leave mapped physical memory. `trace`, when non-null,
// receives the descriptor addresses of a successful walk.
WalkResult WalkPageTable(const PhysMemory& mem, paddr l1_base, vaddr va,
                         WalkTrace* trace = nullptr);

// All user-writable page base addresses reachable from `l1_base`, in
// ascending VA order. This is the footprint the paper's model havocs after
// user-mode execution (§5.1), and the basis of several PageDB invariants.
struct WritableMapping {
  vaddr va;
  paddr page_base;
};
std::vector<WritableMapping> WritablePages(const PhysMemory& mem, paddr l1_base);

// True if `addr` (word-aligned) lies inside the L1 table at `l1_base` or any
// second-level table it references — used to model TLB-consistency tracking
// for stores that may alias a live page table.
bool AddrInLivePageTable(const PhysMemory& mem, paddr l1_base, paddr addr);

}  // namespace komodo::arm

#endif  // SRC_ARM_PAGE_TABLE_H_
