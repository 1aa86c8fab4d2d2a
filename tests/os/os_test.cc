#include "src/os/os.h"

#include <gtest/gtest.h>

#include "src/os/world.h"
#include "src/spec/extract.h"

namespace komodo::os {
namespace {

TEST(OsTest, WorldBootsIntoNormalWorldSupervisor) {
  World w{32};
  EXPECT_EQ(w.machine.cpsr.mode, arm::Mode::kSupervisor);
  EXPECT_EQ(w.machine.CurrentWorld(), arm::World::kNormal);
  EXPECT_FALSE(w.machine.cpsr.irq_masked);
}

TEST(OsTest, BootInitialisesMonitorGlobals) {
  World w{32};
  EXPECT_EQ(w.machine.mem.Read(arm::kMonitorBase + kGlobalNPages), 32u);
  EXPECT_EQ(w.machine.mem.Read(arm::kMonitorBase + kGlobalCurDispatcher), kInvalidPage);
  // An attestation key was derived (vanishingly unlikely to be all-zero).
  word nonzero = 0;
  for (word i = 0; i < 8; ++i) {
    nonzero |= w.machine.mem.Read(arm::kMonitorBase + kGlobalAttestKey + i * 4);
  }
  EXPECT_NE(nonzero, 0u);
}

TEST(OsTest, BootMarksAllPagesFree) {
  World w{32};
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  for (PageNr n = 0; n < 32; ++n) {
    EXPECT_TRUE(d[n].IsFree()) << n;
  }
}

TEST(OsTest, SecurePageAllocatorAscendingAndReusable) {
  World w{32};
  EXPECT_EQ(w.os.AllocSecurePage(), 0u);
  EXPECT_EQ(w.os.AllocSecurePage(), 1u);
  w.os.FreeSecurePage(0);
  EXPECT_EQ(w.os.AllocSecurePage(), 0u);
}

TEST(OsTest, InsecurePageReadWrite) {
  World w{32};
  const word pg = w.os.AllocInsecurePage();
  w.os.WriteInsecure(pg, 3, 0x1234);
  EXPECT_EQ(w.os.ReadInsecure(pg, 3), 0x1234u);
  EXPECT_EQ(w.machine.mem.Read(pg * arm::kPageSize + 12), 0x1234u);
  w.os.WriteInsecurePage(pg, {1, 2, 3});
  EXPECT_EQ(w.os.ReadInsecure(pg, 0), 1u);
  EXPECT_EQ(w.os.ReadInsecure(pg, 2), 3u);
  EXPECT_EQ(w.os.ReadInsecure(pg, 3), 0u);  // tail zeroed
}

TEST(OsTest, InsecureByteViewsCrossPagesAndZeroTheTail) {
  World w{32};
  const word pg = w.os.AllocInsecurePage();
  ASSERT_EQ(w.os.AllocInsecurePage(), pg + 1);
  w.os.WriteInsecure(pg + 1, 0, 0xffff'ffff);
  w.os.WriteInsecure(pg + 1, 1, 0xaaaa'aaaa);
  // Seven bytes from the first page's last word on into the next page.
  w.os.WriteInsecureBytes(pg, arm::kPageSize - 4, {1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(w.os.ReadInsecure(pg, arm::kWordsPerPage - 1), 0x0403'0201u);
  EXPECT_EQ(w.os.ReadInsecure(pg + 1, 0), 0x0007'0605u);  // the tail byte is zeroed
  EXPECT_EQ(w.os.ReadInsecure(pg + 1, 1), 0xaaaa'aaaau);  // the next word is untouched
  EXPECT_EQ(w.os.ReadInsecureBytes(pg, arm::kPageSize - 3, 7),
            (std::vector<uint8_t>{2, 3, 4, 5, 6, 7, 0}));
}

TEST(OsTest, SmcRestoresOsContext) {
  World w{32};
  w.machine.r[7] = 0x777;
  const word pc_before = w.machine.pc;
  w.os.Smc(kSmcGetPhysPages);
  EXPECT_EQ(w.machine.r[7], 0x777u);
  EXPECT_EQ(w.machine.pc, pc_before + 4);  // returned after the smc insn
  EXPECT_EQ(w.machine.cpsr.mode, arm::Mode::kSupervisor);
}

TEST(OsTest, BuilderProducesRunnableLayout) {
  World w{64};
  EnclaveHandle e;
  // Exit immediately with r1 = 0 (mov r0,#1; svc).
  auto built_e = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).SharedPage().Data({42}).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  const spec::PageDb d = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(d[e.addrspace].type(), PageType::kAddrspace);
  EXPECT_EQ(d[e.addrspace].As<spec::AddrspacePage>().state, AddrspaceState::kFinal);
  EXPECT_EQ(d[e.thread].type(), PageType::kDispatcher);
  ASSERT_EQ(e.data_pages.size(), 3u);  // code, data, stack
  EXPECT_EQ(d[e.data_pages[1]].As<spec::DataPage>().contents()[0], 42u);
  EXPECT_TRUE(w.os.Enter(e.thread).exited());
}

TEST(OsTest, BuilderPropagatesMonitorErrors) {
  World w{8};  // too few pages: builder runs the monitor out of valid pages
  EnclaveHandle e;
  // 8 pages suffice for as+l1pt+l2+3 data+thread = 7; a second enclave fails.
  auto built_e = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  auto built_e2 = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  ASSERT_FALSE(built_e2.ok());
  EXPECT_NE(built_e2.error(), KomErr::kSuccess);
}

TEST(OsTest, MultipleEnclavesCoexist) {
  World w{64};
  EnclaveHandle a;
  EnclaveHandle b;
  auto built_a = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  ASSERT_TRUE(built_a.ok());
  a = *std::move(built_a);
  auto built_b = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  ASSERT_TRUE(built_b.ok());
  b = *std::move(built_b);
  EXPECT_NE(a.addrspace, b.addrspace);
  EXPECT_TRUE(w.os.Enter(a.thread).exited());
  EXPECT_TRUE(w.os.Enter(b.thread).exited());
}

}  // namespace
}  // namespace komodo::os
