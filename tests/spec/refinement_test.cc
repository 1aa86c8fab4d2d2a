// Refinement: the monitor implementation (operating on simulated machine
// state) agrees with the pure-functional specification — same error codes,
// same abstract PageDB — on directed lifecycles and on thousands of
// randomized adversarial actions. This is the testing analogue of the paper's
// functional-correctness proof (§5.2).
#include <gtest/gtest.h>

#include "src/core/call_table.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/os/adversary.h"
#include "src/os/world.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/spec/spec_calls.h"
#include "src/spec/spec_dispatch.h"

namespace komodo {
namespace {

using os::AdvAction;
using os::Adversary;
using os::SmcRet;
using os::World;

// Applies the spec function corresponding to an adversary action, through
// the same call registry the implementation dispatches from
// (src/core/call_list.inc): the refinement suite exercises the production
// spec dispatch rather than a hand-maintained parallel table.
spec::Result ApplySpec(const spec::PageDb& d, const AdvAction& a, const arm::MachineState& m) {
  EXPECT_NE(FindSmc(a.call), nullptr) << "unexpected call " << a.call;
  return spec::ApplySmc(d, m, a.call, {a.args[0], a.args[1], a.args[2], a.args[3]});
}

TEST(RefinementTest, DirectedLifecycleMatchesSpec) {
  World w{32};
  spec::PageDb d = spec::ExtractPageDb(w.machine);

  auto run = [&](word call, word a1 = 0, word a2 = 0, word a3 = 0, word a4 = 0) {
    AdvAction act{call, {a1, a2, a3, a4}};
    const spec::Result expected = ApplySpec(d, act, w.machine);
    const SmcRet got = Adversary::Execute(w.os, act);
    EXPECT_EQ(got.err, expected.err) << act.ToString();
    if (expected.db.has_value()) {
      d = *expected.db;
    }
    const spec::PageDb extracted = spec::ExtractPageDb(w.machine);
    ASSERT_TRUE(extracted == d) << "state divergence after " << act.ToString();
  };

  const word staging = w.os.AllocInsecurePage();
  for (word i = 0; i < arm::kWordsPerPage; ++i) {
    w.os.WriteInsecure(staging, i, i ^ 0x5a);
  }
  run(kSmcInitAddrspace, 0, 1);
  run(kSmcInitL2Table, 0, 2, 0);
  // Insecure page arguments outside insecure RAM (§9.1): the page just past
  // it, the monitor image, the first and last secure page, the page just past
  // the secure region, and two numbers of 2^20 and above, whose 32-bit byte
  // addresses would wrap onto the staging page.
  const word secure = arm::kSecurePagesBase / arm::kPageSize;
  for (const word pgnr : {arm::kInsecureSize / arm::kPageSize, arm::kMonitorBase / arm::kPageSize,
                          secure, secure + 31, secure + 32, (1u << 20) + staging,
                          (0xfffu << 20) + staging}) {
    run(kSmcMapSecure, 0, 3, MakeMapping(0x8000, kMapR | kMapX), pgnr);
    run(kSmcMapInsecure, 0, MakeMapping(0x9000, kMapR | kMapW), pgnr);
  }
  run(kSmcMapSecure, 0, 3, MakeMapping(0x8000, kMapR | kMapX), staging);
  run(kSmcInitThread, 0, 4, 0x8000);
  run(kSmcAllocSpare, 0, 5);
  run(kSmcMapInsecure, 0, MakeMapping(0x9000, kMapR | kMapW), staging);
  run(kSmcFinalise, 0);
  run(kSmcStop, 0);
  run(kSmcRemove, 5);
  run(kSmcRemove, 4);
  run(kSmcRemove, 3);
  run(kSmcRemove, 2);
  run(kSmcRemove, 1);
  run(kSmcRemove, 0);
}

TEST(RefinementTest, RandomizedAdversarialTraces) {
  // Driven through the shared fuzzing library (DESIGN.md §10): the same
  // generator and bisimulation oracle komodo-fuzz runs long campaigns with,
  // here at a ctest-sized budget. A failure prints the full replayable trace
  // — save it to a file and investigate with `komodo-fuzz --replay`.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const fuzz::Trace t = fuzz::GenerateTrace("refinement", seed, 150);
    const fuzz::Verdict v = fuzz::RunTrace(t);
    EXPECT_FALSE(v.failed) << "seed " << seed << " op " << v.failing_op << ": " << v.detail
                           << "\n"
                           << t.Format();
  }
}

TEST(RefinementTest, MeasurementMatchesSpecPrediction) {
  // The measurement stored at Finalise equals the spec's prediction from the
  // abstract construction trace.
  World w{32};
  const word staging = w.os.AllocInsecurePage();
  for (word i = 0; i < arm::kWordsPerPage; ++i) {
    w.os.WriteInsecure(staging, i, 3 * i + 1);
  }
  w.os.InitAddrspace(0, 1);
  w.os.InitL2Table(0, 2, 0);
  w.os.MapSecure(0, 3, MakeMapping(0x8000, kMapR | kMapX), staging);
  w.os.InitThread(0, 4, 0x8000);

  const spec::PageDb before = spec::ExtractPageDb(w.machine);
  const crypto::DigestWords predicted =
      spec::SpecMeasurementAfterFinalise(before[0].As<spec::AddrspacePage>());
  w.os.Finalise(0);
  const spec::PageDb after = spec::ExtractPageDb(w.machine);
  EXPECT_EQ(after[0].As<spec::AddrspacePage>().measurement, predicted);
}

// Enter/Resume post-conditions (the spec's predicate form, §5.2): we verify
// the properties rather than a functional result, since user execution is
// nondeterministic in the spec.
TEST(RefinementTest, EnterPostConditions) {
  World w{32};
  // Enclave that exits immediately: svc #0 with r0 = exit.
  // mov r0,#1 ; svc  (exit with retval r1=arg2)
  const std::vector<word> code = {
      0xe3a00001,  // mov r0, #1 (kSvcExit)
      0xef000000,  // svc
  };
  os::EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code(code).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);

  const spec::PageDb before = spec::ExtractPageDb(w.machine);
  const os::EnterResult r = w.os.Enter(e.thread, 0x1234, 0x77, 0);
  EXPECT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 0x77u);  // retval = r1 at exit = arg2 staged into r1

  const spec::PageDb after = spec::ExtractPageDb(w.machine);
  // Non-data pages unchanged; thread still not entered; invariants hold.
  EXPECT_TRUE(after[e.thread] == before[e.thread]);
  EXPECT_TRUE(after[e.addrspace] == before[e.addrspace]);
  EXPECT_TRUE(after[e.l1pt] == before[e.l1pt]);
  EXPECT_TRUE(spec::ValidPageDb(after));
  // TLB left consistent for the next entry.
  EXPECT_TRUE(w.machine.tlb_consistent);
}

}  // namespace
}  // namespace komodo
