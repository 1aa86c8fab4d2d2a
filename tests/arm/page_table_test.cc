#include "src/arm/page_table.h"

#include <gtest/gtest.h>

namespace komodo::arm {
namespace {

class PageTableTest : public ::testing::Test {
 protected:
  PageTableTest() : mem_(64) {
    l1_base_ = kSecurePagesBase;            // page 0: L1 table
    l2_page_ = kSecurePagesBase + kPageSize;  // page 1: L2 tables
    data_page_ = kSecurePagesBase + 2 * kPageSize;
  }

  // Installs the L2 page into the 4 L1 slots covering [0, 4 MB).
  void InstallL2() {
    for (word k = 0; k < kL2TablesPerPage; ++k) {
      mem_.Write(l1_base_ + k * kWordSize, MakeL1PageTableDesc(l2_page_ + k * kL2TableBytes));
    }
  }

  void Map(vaddr va, paddr page, bool w, bool x, bool ns = false) {
    const word slot = (va >> 12) & 0x3ff;
    mem_.Write(l2_page_ + slot * kWordSize, MakeL2SmallPageDesc(page, w, x, ns));
  }

  PhysMemory mem_;
  paddr l1_base_;
  paddr l2_page_;
  paddr data_page_;
};

TEST_F(PageTableTest, DescriptorEncodings) {
  const word l1 = MakeL1PageTableDesc(0x40101400);
  EXPECT_TRUE(IsL1PageTableDesc(l1));
  EXPECT_EQ(L1DescTableBase(l1), 0x40101400u);
  EXPECT_FALSE(IsL1PageTableDesc(kL1FaultDesc));

  const word rw = MakeL2SmallPageDesc(0x40102000, true, false, false);
  EXPECT_TRUE(IsL2SmallPageDesc(rw));
  EXPECT_EQ(L2DescPageBase(rw), 0x40102000u);
  L2Perms p = L2DescPerms(rw);
  EXPECT_TRUE(p.user_read && p.user_write);
  EXPECT_FALSE(p.executable);
  EXPECT_FALSE(p.ns);

  const word rx = MakeL2SmallPageDesc(0x40102000, false, true, false);
  p = L2DescPerms(rx);
  EXPECT_TRUE(p.user_read);
  EXPECT_FALSE(p.user_write);
  EXPECT_TRUE(p.executable);

  const word ns = MakeL2SmallPageDesc(0x00010000, true, false, true);
  EXPECT_TRUE(L2DescPerms(ns).ns);
}

TEST_F(PageTableTest, WalkResolvesMappedPage) {
  InstallL2();
  Map(0x8000, data_page_, /*w=*/true, /*x=*/false);
  const WalkResult w = WalkPageTable(mem_, l1_base_, 0x8123);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.phys, data_page_ + 0x123);
  EXPECT_TRUE(w.user_write);
  EXPECT_FALSE(w.executable);
}

TEST_F(PageTableTest, WalkFaultsOnMissingL1) {
  const WalkResult w = WalkPageTable(mem_, l1_base_, 0x8000);
  EXPECT_FALSE(w.ok);
}

TEST_F(PageTableTest, WalkFaultsOnMissingL2Slot) {
  InstallL2();
  EXPECT_FALSE(WalkPageTable(mem_, l1_base_, 0x9000).ok);
}

TEST_F(PageTableTest, WalkFaultsAboveEnclaveLimit) {
  InstallL2();
  Map(0x8000, data_page_, true, false);
  EXPECT_FALSE(WalkPageTable(mem_, l1_base_, kEnclaveVaLimit).ok);
  EXPECT_FALSE(WalkPageTable(mem_, l1_base_, 0xffffffff).ok);
}

TEST_F(PageTableTest, SecondLevelTableSelection) {
  InstallL2();
  // 1 MB + 4 kB lands in the second hardware table inside the L2 page.
  Map(0x0010'1000, data_page_, false, false);
  const WalkResult w = WalkPageTable(mem_, l1_base_, 0x0010'1008);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.phys, data_page_ + 8);
  EXPECT_FALSE(w.user_write);
}

TEST_F(PageTableTest, AddrInLivePageTableCoversBothLevels) {
  InstallL2();
  EXPECT_TRUE(AddrInLivePageTable(mem_, l1_base_, l1_base_ + 0x40));
  EXPECT_TRUE(AddrInLivePageTable(mem_, l1_base_, l2_page_));
  EXPECT_TRUE(AddrInLivePageTable(mem_, l1_base_, l2_page_ + kL2TableBytes - 4));
  EXPECT_FALSE(AddrInLivePageTable(mem_, l1_base_, data_page_));
}

}  // namespace
}  // namespace komodo::arm
