// Micro-TLB coherence (DESIGN.md §8): cached translations must never outlive
// the descriptors they were derived from. The entries are tagged with the
// generation counters of the L1/L2 pages the walk read, so a store into a
// live page table — from interpreted code, monitor C++, or a bare test poke —
// invalidates them by construction, and TLBIALL/TTBR writes flush outright.
// These tests drive the cache through both the direct TlbWalk interface and
// full interpreted execution, and check the §5.1 tlb_consistent discipline
// stays intact alongside it.
#include <gtest/gtest.h>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/interp_cache.h"
#include "src/arm/page_table.h"

namespace komodo::arm {
namespace {

// Secure-page layout used throughout: page 0 = L1 table, page 1 = L2 tables,
// pages 2.. = mapped data/code.
class TlbCacheTest : public ::testing::Test {
 protected:
  TlbCacheTest() : mem_(64) {
    l1_base_ = kSecurePagesBase;
    l2_page_ = kSecurePagesBase + kPageSize;
    for (word k = 0; k < kL2TablesPerPage; ++k) {
      mem_.Write(l1_base_ + k * kWordSize,
                 MakeL1PageTableDesc(l2_page_ + k * kL2TableBytes));
    }
  }

  paddr SecurePage(word n) { return kSecurePagesBase + n * kPageSize; }

  void Map(vaddr va, paddr page, bool w, bool x) {
    const word slot = (va >> 12) & 0x3ff;
    mem_.Write(l2_page_ + slot * kWordSize, MakeL2SmallPageDesc(page, w, x, false));
  }

  PhysMemory mem_;
  paddr l1_base_;
  paddr l2_page_;
};

TEST_F(TlbCacheTest, HitReturnsIdenticalWalk) {
  Map(0x8000, SecurePage(2), /*w=*/true, /*x=*/false);
  InterpCaches caches;
  caches.set_enabled(true);
  const WalkResult miss = caches.TlbWalk(mem_, l1_base_, 0x8123);
  const WalkResult hit = caches.TlbWalk(mem_, l1_base_, 0x8456);
  EXPECT_EQ(caches.stats().tlb_misses, 1u);
  EXPECT_EQ(caches.stats().tlb_hits, 1u);
  ASSERT_TRUE(miss.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(miss.phys, SecurePage(2) + 0x123);
  EXPECT_EQ(hit.phys, SecurePage(2) + 0x456);
  EXPECT_EQ(hit.user_write, miss.user_write);
  EXPECT_EQ(hit.executable, miss.executable);
}

TEST_F(TlbCacheTest, StoreIntoLiveL2RemapsWithoutStaleness) {
  Map(0x8000, SecurePage(2), true, false);
  InterpCaches caches;
  caches.set_enabled(true);
  ASSERT_EQ(caches.TlbWalk(mem_, l1_base_, 0x8000).phys, SecurePage(2));
  ASSERT_EQ(caches.stats().tlb_hits + caches.stats().tlb_misses, 1u);

  // Poke the live L2 descriptor directly (as the monitor's MapData does):
  // no invalidation call, only the page-generation bump.
  Map(0x8000, SecurePage(3), true, false);
  const WalkResult w = caches.TlbWalk(mem_, l1_base_, 0x8000);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.phys, SecurePage(3)) << "micro-TLB served a stale translation";
}

TEST_F(TlbCacheTest, PermissionTighteningIsSeen) {
  Map(0x8000, SecurePage(2), /*w=*/true, false);
  InterpCaches caches;
  caches.set_enabled(true);
  ASSERT_TRUE(caches.TlbWalk(mem_, l1_base_, 0x8000).user_write);
  Map(0x8000, SecurePage(2), /*w=*/false, false);  // revoke write
  EXPECT_FALSE(caches.TlbWalk(mem_, l1_base_, 0x8000).user_write);
}

TEST_F(TlbCacheTest, UnmapIsSeen) {
  Map(0x8000, SecurePage(2), true, false);
  InterpCaches caches;
  caches.set_enabled(true);
  ASSERT_TRUE(caches.TlbWalk(mem_, l1_base_, 0x8000).ok);
  mem_.Write(l2_page_ + ((0x8000u >> 12) & 0x3ff) * kWordSize, kL2FaultDesc);
  EXPECT_FALSE(caches.TlbWalk(mem_, l1_base_, 0x8000).ok);
}

// TLBIALL, TTBR writes and SCR.NS world switches deliberately leave the
// micro-TLB warm (machine.cc): the tags already guarantee coherence, and the
// warm entries are what makes the SMC world-switch round trip cheap. This
// pins both halves — a hit after the CP15 churn, and correctness if the
// descriptors changed underneath it meanwhile.
TEST(TlbWarmAcrossFlush, Cp15ChurnKeepsEntriesAndStaysCoherent) {
  MachineState m(64);
  m.interp.set_enabled(true);
  const paddr l1_base = kSecurePagesBase;
  const paddr l2_page = kSecurePagesBase + kPageSize;
  for (word k = 0; k < kL2TablesPerPage; ++k) {
    m.mem.Write(l1_base + k * kWordSize,
                MakeL1PageTableDesc(l2_page + k * kL2TableBytes));
  }
  auto map = [&](vaddr va, paddr page) {
    const word slot = (va >> 12) & 0x3ff;
    m.mem.Write(l2_page + slot * kWordSize,
                MakeL2SmallPageDesc(page, /*w=*/true, /*x=*/false, false));
  };
  map(0x8000, kSecurePagesBase + 2 * kPageSize);

  m.cpsr.mode = Mode::kMonitor;
  m.WriteTtbr0(l1_base);
  m.FlushTlb();
  ASSERT_TRUE(m.interp.TlbWalk(m.mem, m.ttbr0, 0x8000).ok);
  ASSERT_EQ(m.interp.stats().tlb_misses, 1u);

  // The full world-switch round trip: TLBIALL, hop to the normal world and
  // back, rewrite TTBR0 with the same base. None of it may evict the entry.
  m.FlushTlb();
  m.SetScrNs(true);
  m.SetScrNs(false);
  m.WriteTtbr0(l1_base);
  m.FlushTlb();
  const WalkResult warm = m.interp.TlbWalk(m.mem, m.ttbr0, 0x8000);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.phys, kSecurePagesBase + 2 * kPageSize);
  EXPECT_EQ(m.interp.stats().tlb_hits, 1u) << "CP15 churn evicted a valid entry";

  // And staying warm must not mean staying stale: a descriptor rewrite with
  // no flush at all is still seen (generation tags, not flushes, are the
  // coherence mechanism).
  map(0x8000, kSecurePagesBase + 3 * kPageSize);
  const WalkResult remapped = m.interp.TlbWalk(m.mem, m.ttbr0, 0x8000);
  ASSERT_TRUE(remapped.ok);
  EXPECT_EQ(remapped.phys, kSecurePagesBase + 3 * kPageSize);
}

TEST_F(TlbCacheTest, InvalidateTlbDropsEverything) {
  Map(0x8000, SecurePage(2), true, false);
  InterpCaches caches;
  caches.set_enabled(true);
  (void)caches.TlbWalk(mem_, l1_base_, 0x8000);
  caches.InvalidateTlb();
  (void)caches.TlbWalk(mem_, l1_base_, 0x8000);
  EXPECT_EQ(caches.stats().tlb_misses, 2u);
  EXPECT_EQ(caches.stats().tlb_hits, 0u);
}

// Address spaces that take turns on the core keep one page-table footprint
// each (DESIGN.md §8): alternating between two TTBR0 values builds each
// footprint once, yet an entry that sat unused while the other address space
// ran still notices a new L1 descriptor through its L1 page's generation.
TEST(PtFootprintTable, AlternatingAddressSpacesKeepTheirFootprints) {
  MachineState m(64);
  m.interp.set_enabled(true);
  auto page = [](word n) { return kSecurePagesBase + n * kPageSize; };
  const paddr code_page = page(0);
  const paddr new_l2 = page(1);  // referenced by A's L1 table only later
  struct AddressSpace {
    paddr l1;
    paddr l2;
    paddr data;
  };
  const AddressSpace a{page(2), page(3), page(4)};
  const AddressSpace b{page(5), page(6), page(7)};
  auto map = [&](const AddressSpace& as, vaddr va, paddr target, bool w, bool x) {
    m.mem.Write(as.l2 + ((va >> 12) & 0x3ff) * kWordSize,
                MakeL2SmallPageDesc(target, w, x, false));
  };
  for (const AddressSpace& as : {a, b}) {
    for (word k = 0; k < kL2TablesPerPage; ++k) {
      m.mem.Write(as.l1 + k * kWordSize, MakeL1PageTableDesc(as.l2 + k * kL2TableBytes));
    }
    map(as, 0x8000, code_page, false, true);
    map(as, 0xb000, as.data, true, false);
  }
  map(a, 0xc000, new_l2, true, false);
  Assembler code(0x8000);
  code.Str(R1, R3, 0);
  m.mem.Write(code_page, code.Finish()[0]);

  // One secure-world STR R1,[R3] to `va` under `ttbr0`, with a consistent
  // TLB going in; returns whether the store left it consistent.
  auto store_under = [&m](paddr ttbr0, vaddr va) {
    m.cpsr.mode = Mode::kMonitor;
    m.WriteTtbr0(ttbr0);
    m.FlushTlb();
    m.cpsr.mode = Mode::kUser;
    m.pc = 0x8000;
    m.r[3] = va;
    EXPECT_EQ(Step(m).status, StepStatus::kOk);
    return m.tlb_consistent;
  };
  for (int lap = 0; lap < 10; ++lap) {
    EXPECT_TRUE(store_under(a.l1, 0xb000));
    EXPECT_TRUE(store_under(b.l1, 0xb000));
  }
  EXPECT_EQ(m.interp.stats().pt_filter_rebuilds, 2u)
      << "switching address spaces rebuilt a footprint that was still valid";

  // A new L1 descriptor under A, poked as the monitor's InitL2PTable writes
  // one: no invalidation call, only the generation bump. B runs in between.
  m.mem.Write(a.l1 + 1 * kWordSize, MakeL1PageTableDesc(new_l2));
  EXPECT_TRUE(store_under(b.l1, 0xb000));
  EXPECT_FALSE(store_under(a.l1, 0xc000))
      << "store into the newly referenced L2 table not noticed";
  EXPECT_EQ(m.interp.stats().pt_filter_rebuilds, 3u);

  m.interp.InvalidateAll();
  EXPECT_TRUE(store_under(a.l1, 0xb000));
  EXPECT_EQ(m.interp.stats().pt_filter_rebuilds, 4u);
}

// The full §5.1 discipline through interpreted execution, in both cache
// modes: an enclave that maps its own L2 table user-writable and stores a new
// descriptor through it. The store must (a) take effect for later walks and
// (b) mark the TLB inconsistent until TLBIALL.
class TlbDisciplineTest : public ::testing::TestWithParam<bool> {};

TEST_P(TlbDisciplineTest, InterpretedStoreIntoLiveL2) {
  const bool cached = GetParam();

  MachineState m(64);
  m.interp.set_enabled(cached);
  const paddr l1_base = kSecurePagesBase;
  const paddr l2_page = kSecurePagesBase + kPageSize;
  const paddr code_page = kSecurePagesBase + 2 * kPageSize;
  const paddr d1 = kSecurePagesBase + 3 * kPageSize;
  const paddr d2 = kSecurePagesBase + 4 * kPageSize;
  for (word k = 0; k < kL2TablesPerPage; ++k) {
    m.mem.Write(l1_base + k * kWordSize,
                MakeL1PageTableDesc(l2_page + k * kL2TableBytes));
  }
  auto map = [&](vaddr va, paddr page, bool w, bool x) {
    const word slot = (va >> 12) & 0x3ff;
    m.mem.Write(l2_page + slot * kWordSize, MakeL2SmallPageDesc(page, w, x, false));
  };
  map(0x8000, code_page, false, true);  // code
  map(0xa000, l2_page, true, false);    // the live L2 table itself, writable
  map(0xb000, d1, true, false);         // the VA the store will remap
  m.mem.Write(d1, 0x111u);
  m.mem.Write(d2, 0x222u);

  // LDR R4,[R3] warms the micro-TLB for 0xb000; STR R1,[R0] rewrites its
  // descriptor through the 0xa000 window; LDR R2,[R3] (after the flush below)
  // must read through the remapped page.
  Assembler a(0x8000);
  a.Ldr(R4, R3, 0);
  a.Str(R1, R0, 0);
  a.Ldr(R2, R3, 0);
  const std::vector<word> code = a.Finish();
  for (size_t i = 0; i < code.size(); ++i) {
    m.mem.Write(code_page + static_cast<word>(i) * kWordSize, code[i]);
  }

  m.cpsr.mode = Mode::kMonitor;
  m.WriteTtbr0(l1_base);
  m.FlushTlb();
  m.cpsr.mode = Mode::kUser;  // secure world (SCR.NS stays 0)
  m.pc = 0x8000;
  m.r[3] = 0xb000;
  m.r[0] = 0xa000 + ((0xb000u >> 12) & 0x3ff) * kWordSize;  // 0xb000's L2 slot
  m.r[1] = MakeL2SmallPageDesc(d2, true, false, false);

  ASSERT_EQ(Step(m).status, StepStatus::kOk);  // warm-up load
  EXPECT_EQ(m.r[4], 0x111u);
  ASSERT_TRUE(m.tlb_consistent);
  ASSERT_EQ(Step(m).status, StepStatus::kOk);  // store into the live L2
  EXPECT_FALSE(m.tlb_consistent) << "store into live page table not noticed";
  m.FlushTlb();  // TLBIALL restores consistency
  EXPECT_TRUE(m.tlb_consistent);
  ASSERT_EQ(Step(m).status, StepStatus::kOk);
  EXPECT_EQ(m.r[2], 0x222u) << "load used a stale translation after remap";
}

INSTANTIATE_TEST_SUITE_P(BothModes, TlbDisciplineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "cached" : "uncached";
                         });

}  // namespace
}  // namespace komodo::arm
