// The §8.1 optimisations (skip-redundant-TLB-flush, lazy banked registers)
// must preserve functional behaviour and the security relations — this is the
// testing stand-in for the proofs the paper says the optimisations await.
// The key scenarios from the exec/noninterference suites are re-run under
// every optimisation configuration.
#include <gtest/gtest.h>

#include <memory>

#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/equivalence.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"

namespace komodo {
namespace {

using os::World;

struct OptConfig {
  const char* name;
  bool skip_flush;
  bool lazy_banked;
};

class MonitorOptsTest : public ::testing::TestWithParam<OptConfig> {
 protected:
  Monitor::Config Config(uint64_t steps = 0) const {
    Monitor::Config c;
    c.opt_skip_redundant_tlb_flush = GetParam().skip_flush;
    c.opt_lazy_banked_regs = GetParam().lazy_banked;
    if (steps != 0) {
      c.max_enclave_steps = steps;
    }
    return c;
  }
};

TEST_P(MonitorOptsTest, EnterExitResumeStillCorrect) {
  World w(64, Config(600));
  os::EnclaveHandle spin;
  auto built_spin = w.os.NewEnclave().Code(enclave::SpinProgram()).Build();
  ASSERT_TRUE(built_spin.ok());
  spin = *std::move(built_spin);
  os::EnclaveHandle counter;
  auto built_counter = w.os.NewEnclave().Code(enclave::CounterProgram()).Data({100}).Build();
  ASSERT_TRUE(built_counter.ok());
  counter = *std::move(built_counter);

  EXPECT_EQ(w.os.Enter(counter.thread, 5).payload, 105u);
  ASSERT_TRUE(w.os.Enter(spin.thread, 0xbeef).interrupted());
  EXPECT_EQ(w.os.Enter(counter.thread, 1).payload, 106u);  // interleave other enclave
  ASSERT_TRUE(w.os.Resume(spin.thread).interrupted());
  // The spin stored its arg before looping: context survived the detour.
  EXPECT_EQ(spec::ExtractPageDb(w.machine)[spin.data_pages[1]]
                .As<spec::DataPage>()
                .contents()[0],
            0xbeefu);
  EXPECT_TRUE(spec::ValidPageDb(spec::ExtractPageDb(w.machine)));
}

TEST_P(MonitorOptsTest, BankedRegistersStillPreservedOrScrubbed) {
  World w(64, Config());
  os::EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  auto& m = w.machine;
  m.sp_banked[static_cast<size_t>(arm::Mode::kIrq)] = 0x111;
  m.lr_banked[static_cast<size_t>(arm::Mode::kSupervisor)] = 0x222;
  m.sp_banked[static_cast<size_t>(arm::Mode::kUser)] = 0x333;
  ASSERT_EQ(w.os.Enter(e.thread, 1, 2).payload, 3u);
  // These banks are saved in every configuration (used by the monitor and by
  // the SVC path), so they must be exactly preserved.
  EXPECT_EQ(m.sp_banked[static_cast<size_t>(arm::Mode::kIrq)], 0x111u);
  EXPECT_EQ(m.lr_banked[static_cast<size_t>(arm::Mode::kSupervisor)], 0x222u);
  EXPECT_EQ(m.sp_banked[static_cast<size_t>(arm::Mode::kUser)], 0x333u);
}

TEST_P(MonitorOptsTest, FaultingEnclaveLeaksNothingThroughAbortBank) {
  // With lazy banking, a fault writes the abort bank with enclave-derived
  // values (the faulting PC); the slow path must scrub. Run the paired-
  // execution check: two worlds, different secrets, faulting victims.
  auto run = [this](word secret) {
    auto w = std::make_unique<World>(64, Config());
    os::EnclaveHandle e;
    auto built_e = w->os.NewEnclave().Code(enclave::ReadOutsideProgram()).Build();
    EXPECT_TRUE(built_e.ok());
    if (built_e.ok()) e = *std::move(built_e);
    w->machine.mem.Write(PagePaddr(e.data_pages[1]), secret);
    EXPECT_TRUE(w->os.Enter(e.thread).faulted());
    return w;
  };
  auto w1 = run(0x1111);
  auto w2 = run(0x2222);
  const auto violations =
      spec::AdvEquivViolations(w1->machine, spec::ExtractPageDb(w1->machine), w2->machine,
                               spec::ExtractPageDb(w2->machine), kInvalidPage);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(MonitorOptsTest, ConfidentialityAcrossRepeatedEntries) {
  // The skip-flush fast path must not create a cross-enclave channel: two
  // enclaves alternating, secrets differing across paired worlds.
  auto run = [this](word secret) {
    auto w = std::make_unique<World>(64, Config());
    os::EnclaveHandle victim;
    auto built_victim = w->os.NewEnclave().Code(enclave::CounterProgram()).SharedPage().Build();
    EXPECT_TRUE(built_victim.ok());
    if (built_victim.ok()) victim = *std::move(built_victim);
    os::EnclaveHandle other;
    auto built_other = w->os.NewEnclave().Code(enclave::EchoSharedProgram()).SharedPage().Build();
    EXPECT_TRUE(built_other.ok());
    if (built_other.ok()) other = *std::move(built_other);
    w->machine.mem.Write(PagePaddr(victim.data_pages[1]) + 8, secret);
    w->os.WriteInsecure(other.shared_insecure_pgnr, 0, 7);
    w->os.Enter(victim.thread, 1);
    w->os.Enter(victim.thread, 2);  // repeated same-enclave entry (fast path)
    w->os.Enter(other.thread);
    w->os.Enter(victim.thread, 3);
    return w;
  };
  auto w1 = run(0xaaaa);
  auto w2 = run(0xbbbb);
  const auto violations =
      spec::AdvEquivViolations(w1->machine, spec::ExtractPageDb(w1->machine), w2->machine,
                               spec::ExtractPageDb(w2->machine), kInvalidPage);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(Configs, MonitorOptsTest,
                         ::testing::Values(OptConfig{"baseline", false, false},
                                           OptConfig{"skip_flush", true, false},
                                           OptConfig{"lazy_banked", false, true},
                                           OptConfig{"both", true, true}),
                         [](const ::testing::TestParamInfo<OptConfig>& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace komodo
