// Cycle-model regression guards: the Table 3 / §8.1 shapes the benchmarks
// report are locked in as ranges here, so a refactor that silently breaks the
// cost accounting fails the suite rather than just skewing EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <memory>

#include "src/arm/assembler.h"
#include "src/enclave/native_runtime.h"
#include "src/os/world.h"
#include "src/sgx/sgx_model.h"

namespace komodo {
namespace {

class ExitProgram : public enclave::NativeProgram {
 public:
  enclave::UserAction Run(enclave::UserContext&) override {
    return enclave::UserAction::Exit(0);
  }
};

TEST(CycleRegressionTest, NullSmcStaysTrivial) {
  os::World w{64};
  w.os.GetPhysPages();
  const uint64_t before = w.machine.cycles.total();
  w.os.GetPhysPages();
  const uint64_t cycles = w.machine.cycles.total() - before;
  EXPECT_GE(cycles, 60u);
  EXPECT_LE(cycles, 250u);  // paper: 123
}

TEST(CycleRegressionTest, CrossingStaysWellBelowSgx) {
  os::World w{64};
  enclave::NativeRuntime runtime(w.monitor);
  os::EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  runtime.Register(e.l1pt, std::make_shared<ExitProgram>());
  w.os.Enter(e.thread);
  const uint64_t before = w.machine.cycles.total();
  w.os.Enter(e.thread);
  const uint64_t crossing = w.machine.cycles.total() - before;
  EXPECT_GE(crossing, 250u);
  EXPECT_LE(crossing, 1500u);  // paper: 738
  // The §8.1 headline: at least ~5x under SGX's 7,100-cycle crossing.
  EXPECT_GT(7100.0 / static_cast<double>(crossing), 5.0);
}

TEST(CycleRegressionTest, AttestDominatedByFiveShaBlocks) {
  os::World w{64};
  os::EnclaveHandle e;
  // Enclave issuing a single Attest then exiting, in A32.
  arm::Assembler a(os::kEnclaveCodeVa);
  a.MovImm(arm::R0, kSvcAttest);
  a.MovImm(arm::R1, os::kEnclaveDataVa);
  a.MovImm(arm::R2, os::kEnclaveDataVa + 32);
  a.Svc();
  a.MovImm(arm::R1, 0);
  a.MovImm(arm::R0, kSvcExit);
  a.Svc();
  auto built_e = w.os.NewEnclave().Code(a.Finish()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  w.os.Enter(e.thread);
  const uint64_t before = w.machine.cycles.total();
  w.os.Enter(e.thread);
  const uint64_t with_attest = w.machine.cycles.total() - before;
  // 5 SHA blocks ≈ 11.5k plus the crossing; the paper reports 12,411 for the
  // SVC alone.
  EXPECT_GE(with_attest, 11000u);
  EXPECT_LE(with_attest, 20000u);
}

TEST(CycleRegressionTest, MapDataDominatedByZeroFill) {
  os::World w{64};
  os::EnclaveHandle e;
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.Mov(R7, R0);
  a.MovImm(R0, kSvcMapData);
  a.Mov(R1, R7);
  a.MovImm(R2, MakeMapping(0x30000, kMapR | kMapW));
  a.Svc();
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  auto built_e = w.os.NewEnclave().Code(a.Finish()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  const PageNr spare = w.os.AllocSecurePage();
  ASSERT_EQ(w.os.AllocSpare(e.addrspace, spare).err, kErrSuccess);
  const uint64_t before = w.machine.cycles.total();
  ASSERT_TRUE(w.os.Enter(e.thread, spare).exited());
  const uint64_t cycles = w.machine.cycles.total() - before;
  // Zero-fill alone is 1024 words * ~5 cycles; paper reports 5,826 for the
  // SVC; our measurement includes the crossing.
  EXPECT_GE(cycles, 5000u);
  EXPECT_LE(cycles, 9000u);
  EXPECT_EQ(cycles, 5660u);  // exact: see PageOpCallsChargeExactCycles
}

// Exact totals, SMC crossing included, for every call that zeroes or copies a
// whole page: a page costs 5,120 cycles to zero and 8,192 to copy, as the
// per-word loop it models (loop overhead 3 + store 2, + load 3 for a copy).
// The ranges above would let a page-op refactor drift; these must not move.
TEST(CycleRegressionTest, PageOpCallsChargeExactCycles) {
  os::World w{64};
  const auto cycles_of = [&w](auto call) {
    const uint64_t before = w.machine.cycles.total();
    EXPECT_EQ(call().err, kErrSuccess);
    return w.machine.cycles.total() - before;
  };
  const PageNr as = w.os.AllocSecurePage();
  const PageNr l1 = w.os.AllocSecurePage();
  const PageNr l2 = w.os.AllocSecurePage();
  const PageNr data = w.os.AllocSecurePage();
  const word staging = w.os.AllocInsecurePage();
  w.os.WriteInsecurePage(staging, {1, 2, 3});
  EXPECT_EQ(cycles_of([&] { return w.os.InitAddrspace(as, l1); }), 5365u);
  EXPECT_EQ(cycles_of([&] { return w.os.InitL2Table(as, l2, 0); }), 5278u);
  EXPECT_EQ(cycles_of([&] {
              return w.os.MapSecure(as, data, MakeMapping(os::kEnclaveCodeVa, kMapR), staging);
            }),
            158046u);
  ASSERT_EQ(w.os.Stop(as).err, kErrSuccess);
  EXPECT_EQ(cycles_of([&] { return w.os.Remove(data); }), 5251u);
}

TEST(CycleRegressionTest, SgxConstantsMatchCitedLatencies) {
  sgx::SgxCosts costs;
  EXPECT_EQ(costs.eenter + costs.eexit, 7100u);  // Orenbach et al. [66], §8.1
}

}  // namespace
}  // namespace komodo
