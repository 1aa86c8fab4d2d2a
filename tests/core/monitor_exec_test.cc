// End-to-end enclave execution: Enter/Exit/Resume, interrupts, faults,
// register sanitisation — the Figure 3 state machine with real interpreted
// enclave code.
#include <gtest/gtest.h>

#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"

namespace komodo {
namespace {

using os::EnclaveHandle;
using os::EnterResult;
using os::SmcRet;
using os::World;

class ExecTest : public ::testing::Test {
 protected:
  World w{64};

  EnclaveHandle Build(const std::vector<word>& code) {
    auto built = w.os.NewEnclave().Code(code).SharedPage().Build();
    EXPECT_TRUE(built.ok());
    EnclaveHandle handle = *std::move(built);
    shared_pg_ = handle.shared_insecure_pgnr;
    return handle;
  }

  word shared_pg_ = 0;
};

TEST_F(ExecTest, EnterRunsEnclaveAndReturnsExitValue) {
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  const EnterResult r = w.os.Enter(e.thread, 20, 22);
  EXPECT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 42u);
}

TEST_F(ExecTest, ExitLeavesThreadReenterable) {
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  EXPECT_EQ(w.os.Enter(e.thread, 1, 2).payload, 3u);
  EXPECT_EQ(w.os.Enter(e.thread, 10, 20).payload, 30u);
}

TEST_F(ExecTest, OsReturnsToNormalWorldSupervisor) {
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  w.os.Enter(e.thread, 1, 2);
  EXPECT_EQ(w.machine.cpsr.mode, arm::Mode::kSupervisor);
  EXPECT_EQ(w.machine.CurrentWorld(), arm::World::kNormal);
}

TEST_F(ExecTest, SharedPageCommunication) {
  const EnclaveHandle e = Build(enclave::EchoSharedProgram());
  w.os.WriteInsecure(shared_pg_, 0, 21);
  const EnterResult r = w.os.Enter(e.thread);
  EXPECT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 21u);
  EXPECT_EQ(w.os.ReadInsecure(shared_pg_, 1), 43u);  // 2*21+1
}

TEST_F(ExecTest, DataPagePersistsAcrossEntries) {
  EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code(enclave::CounterProgram()).Data({100}).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  EXPECT_EQ(w.os.Enter(e.thread, 5).payload, 105u);
  EXPECT_EQ(w.os.Enter(e.thread, 7).payload, 112u);
  EXPECT_EQ(w.os.Enter(e.thread, 0).payload, 112u);
}

TEST_F(ExecTest, InterruptSuspendsAndResumeContinues) {
  World small(64, [] {
    Monitor::Config c;
    c.max_enclave_steps = 500;  // force the timer to fire mid-spin
    return c;
  }());
  EnclaveHandle e;
  auto built_e = small.os.NewEnclave().Code(enclave::SpinProgram()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);

  const EnterResult r = small.os.Enter(e.thread, 0xbeef);
  EXPECT_TRUE(r.interrupted());
  EXPECT_EQ(r.payload, 0u);  // nothing but the fact of the interrupt is reported

  // The dispatcher is marked entered, with the user context saved.
  spec::PageDb d = spec::ExtractPageDb(small.machine);
  EXPECT_TRUE(d[e.thread].As<spec::DispatcherPage>().entered);

  // Re-entering an entered thread fails; Resume continues it.
  EXPECT_EQ(small.os.Enter(e.thread).err, KomErr::kAlreadyEntered);
  const EnterResult r2 = small.os.Resume(e.thread);
  EXPECT_TRUE(r2.interrupted());  // it spins forever, interrupted again

  // Context was preserved: the spin stored arg1 into data[0] before looping.
  d = spec::ExtractPageDb(small.machine);
  EXPECT_EQ(d[e.data_pages[1]].As<spec::DataPage>().contents()[0], 0xbeefu);
  EXPECT_TRUE(spec::ValidPageDb(d));
}

TEST_F(ExecTest, ResumedRegistersPreserved) {
  // Spin keeps incrementing r6; after a resume, r6 must continue from the
  // saved value rather than restart. We can observe progress indirectly via
  // saved context in the dispatcher page after the second interrupt.
  World small(64, [] {
    Monitor::Config c;
    c.max_enclave_steps = 1000;
    return c;
  }());
  EnclaveHandle e;
  auto built_e = small.os.NewEnclave().Code(enclave::SpinProgram()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  ASSERT_TRUE(small.os.Enter(e.thread, 0).interrupted());
  const word r6_first =
      spec::ExtractPageDb(small.machine)[e.thread].As<spec::DispatcherPage>().regs[6];
  ASSERT_TRUE(small.os.Resume(e.thread).interrupted());
  const word r6_second =
      spec::ExtractPageDb(small.machine)[e.thread].As<spec::DispatcherPage>().regs[6];
  EXPECT_GT(r6_second, r6_first);
}

TEST_F(ExecTest, FaultingEnclaveReportsOnlyExceptionType) {
  struct Case {
    std::vector<word> code;
    word expected_code;
  };
  const Case cases[] = {
      {enclave::ReadOutsideProgram(), 2},    // data abort
      {enclave::WriteCodeProgram(), 2},      // data abort (permission)
      {enclave::UndefinedInsnProgram(), 3},  // undefined instruction
  };
  for (const Case& c : cases) {
    World fresh{64};
      EnclaveHandle e;
    auto built_e = fresh.os.NewEnclave().Code(c.code).Build();
    ASSERT_TRUE(built_e.ok());
    e = *std::move(built_e);
    const EnterResult r = fresh.os.Enter(e.thread);
    EXPECT_TRUE(r.faulted());
    EXPECT_EQ(r.payload, c.expected_code);
    // A faulted thread may be re-entered fresh (§4).
    EXPECT_TRUE(fresh.os.Enter(e.thread).faulted());
  }
}

TEST_F(ExecTest, NonReturnRegistersZeroedOnExit) {
  // The enclave runs with arbitrary register contents; on return to the OS,
  // the argument/scratch registers (r2-r4, r12) must be zero and the
  // non-volatile registers r5-r11 restored to the OS's values (§5.2).
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  for (int i = 5; i <= 12; ++i) {
    w.machine.r[i] = 0x1000 + i;
  }
  w.os.Enter(e.thread, 1, 1);
  EXPECT_EQ(w.machine.r[2], 0u);
  EXPECT_EQ(w.machine.r[3], 0u);
  EXPECT_EQ(w.machine.r[4], 0u);
  EXPECT_EQ(w.machine.r[12], 0u);
  for (int i = 5; i <= 11; ++i) {
    EXPECT_EQ(w.machine.r[i], 0x1000u + i) << "r" << i;
  }
}

TEST_F(ExecTest, OsBankedRegistersPreservedAcrossEnclaveRun) {
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  auto& m = w.machine;
  m.sp_banked[static_cast<size_t>(arm::Mode::kUser)] = 0x111;
  m.lr_banked[static_cast<size_t>(arm::Mode::kUser)] = 0x222;
  m.sp_banked[static_cast<size_t>(arm::Mode::kIrq)] = 0x333;
  m.lr_banked[static_cast<size_t>(arm::Mode::kAbort)] = 0x444;
  w.os.Enter(e.thread, 1, 1);
  EXPECT_EQ(m.sp_banked[static_cast<size_t>(arm::Mode::kUser)], 0x111u);
  EXPECT_EQ(m.lr_banked[static_cast<size_t>(arm::Mode::kUser)], 0x222u);
  EXPECT_EQ(m.sp_banked[static_cast<size_t>(arm::Mode::kIrq)], 0x333u);
  EXPECT_EQ(m.lr_banked[static_cast<size_t>(arm::Mode::kAbort)], 0x444u);
}

TEST_F(ExecTest, GetRandomSvcFillsSharedPage) {
  const EnclaveHandle e = Build(enclave::RandomProgram());
  ASSERT_TRUE(w.os.Enter(e.thread).exited());
  // Four words were produced; vanishingly unlikely to be zero.
  word distinct = 0;
  for (word i = 0; i < 4; ++i) {
    if (w.os.ReadInsecure(shared_pg_, i) != 0) {
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 3u);
}

TEST_F(ExecTest, StoppedEnclaveCannotRun) {
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  ASSERT_EQ(w.os.Stop(e.addrspace).err, kErrSuccess);
  EXPECT_EQ(w.os.Enter(e.thread).err, KomErr::kNotFinal);
}

TEST_F(ExecTest, PageDbInvariantsHoldAfterExecution) {
  const EnclaveHandle e = Build(enclave::EchoSharedProgram());
  w.os.WriteInsecure(shared_pg_, 0, 5);
  w.os.Enter(e.thread);
  const auto violations = spec::PageDbViolations(spec::ExtractPageDb(w.machine));
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(ExecTest, EnclaveCrossingCycleCost) {
  // §8.1: a full crossing is on the order of hundreds of cycles — far below
  // SGX's ~7,100.
  const EnclaveHandle e = Build(enclave::AddTwoProgram());
  w.os.Enter(e.thread, 1, 1);  // warm
  const uint64_t before = w.machine.cycles.total();
  w.os.Enter(e.thread, 1, 1);
  const uint64_t crossing = w.machine.cycles.total() - before;
  EXPECT_GT(crossing, 200u);
  EXPECT_LT(crossing, 3000u);
}

}  // namespace
}  // namespace komodo
