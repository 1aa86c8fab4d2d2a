// Cached-vs-uncached-vs-JIT differential suite (DESIGN.md §8, §13): the
// interpreter fast path (decode cache, micro-TLB, live-page-table footprint)
// and the x64 block translator must both be architecturally invisible. Every
// test here runs the same program through a cache-enabled machine, a
// cache-disabled machine, and (where the host supports it) a JIT-enabled
// machine, and requires bit-identical final state — registers, banked state,
// memory, TLB-consistency bit, cycle count and per-step exception trace. The
// adversarial cases are the ones a broken cache or translator would get
// wrong: self-modifying code (stale decode / stale block), live page-table
// edits (stale walk) and TTBR rewrites across enclave switches (stale tags).
#include <gtest/gtest.h>

#include <vector>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/crypto/drbg.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/jit/jit.h"
#include "src/os/world.h"

namespace komodo::arm {
namespace {

constexpr vaddr kCodeBase = 0x2000;
constexpr vaddr kScratchBase = 0x4000;

// The field-by-field comparison lives in the fuzz library (the interp oracle
// uses the same one); here each differing field becomes its own failure.
void ExpectSameState(const MachineState& a, const MachineState& b) {
  for (const std::string& diff : fuzz::MachineDiff(a, b)) {
    ADD_FAILURE() << diff;
  }
}

// A bare machine in the normal world (flat translation), like the ISA sweeps
// use: exercises the decode cache without page tables in the way. The JIT is
// pinned off except for the explicit third machine (KOMODO_JIT defaults on).
MachineState MakeFlatMachine(const std::vector<word>& code, bool cached,
                             bool jitted = false) {
  MachineState m(8);
  m.interp.set_enabled(cached);
  m.jit.set_enabled(jitted);
  m.cpsr.mode = Mode::kMonitor;
  m.SetScrNs(true);
  m.cpsr.mode = Mode::kSupervisor;
  for (size_t i = 0; i < code.size(); ++i) {
    m.mem.Write(kCodeBase + static_cast<word>(i) * kWordSize, code[i]);
  }
  m.pc = kCodeBase;
  return m;
}

// Steps the cached and uncached machines in lockstep for `max_steps`,
// requiring the same per-step outcome (retired vs exception kind), then runs
// the JIT machine through RunUntilException under the same total step budget
// — blocks retire several steps at once, so exceptions are matched by the
// step index they retire at rather than per call. All three final states
// must be bit-identical (cycles and steps_retired included).
void RunLockstep(MachineState& cached, MachineState& uncached, MachineState& jitted,
                 int max_steps) {
  std::vector<std::optional<Exception>> trace(static_cast<size_t>(max_steps));
  for (int i = 0; i < max_steps; ++i) {
    const StepResult rc = Step(cached);
    const StepResult ru = Step(uncached);
    ASSERT_EQ(rc.status, ru.status) << "step " << i;
    if (rc.status == StepStatus::kException) {
      ASSERT_EQ(rc.exception, ru.exception) << "step " << i;
      trace[static_cast<size_t>(i)] = rc.exception;
    }
  }
  ExpectSameState(cached, uncached);

  const uint64_t base = jitted.steps_retired;
  uint64_t done = 0;
  while (done < static_cast<uint64_t>(max_steps)) {
    const std::optional<Exception> e =
        RunUntilException(jitted, static_cast<uint64_t>(max_steps) - done);
    done = jitted.steps_retired - base;
    if (e.has_value()) {
      ASSERT_GT(done, 0u);
      ASSERT_EQ(trace.at(done - 1), e) << "jit exception at retired step " << done;
    } else {
      ASSERT_EQ(done, static_cast<uint64_t>(max_steps));
    }
  }
  ExpectSameState(jitted, cached);
}

// The interp oracle carries one memory compare per machine pair across a
// run. After a synced check, a store retired by one machine must diverge
// exactly as a fresh diff reports, and the same store retired by the other
// must relate the pair again.
TEST(InterpDiffTest, CarriedMachineDiffSeesAStoreIntoOneMachine) {
  Assembler a(kCodeBase);
  a.MovImm(R0, kScratchBase);
  a.MovImm(R1, 0x1234);
  a.Str(R1, R0, 8);
  const std::vector<word> code = a.Finish();
  MachineState cached = MakeFlatMachine(code, /*cached=*/true);
  MachineState uncached = MakeFlatMachine(code, /*cached=*/false);
  while (cached.r[R0] != kScratchBase || cached.r[R1] != 0x1234) {  // up to the store
    ASSERT_EQ(Step(cached).status, StepStatus::kOk);
    ASSERT_EQ(Step(uncached).status, StepStatus::kOk);
  }
  MemoryCompare memory;
  const auto synced = fuzz::MachineDiff(cached, uncached, &memory);
  ASSERT_TRUE(synced.empty()) << synced.front();

  ASSERT_EQ(Step(cached).status, StepStatus::kOk);
  const auto fresh = fuzz::MachineDiff(cached, uncached);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.back(), "memories diverge");
  EXPECT_EQ(fuzz::MachineDiff(cached, uncached, &memory), fresh);

  ASSERT_EQ(Step(uncached).status, StepStatus::kOk);
  const auto healed = fuzz::MachineDiff(cached, uncached, &memory);
  EXPECT_TRUE(healed.empty()) << healed.front();
}

// --- Randomized flat programs ----------------------------------------------------

TEST(InterpDiffTest, RandomFlatProgramsMatchExactly) {
  // The generator lives in the fuzz library (fuzz::RandomFlatInsn) so the
  // komodo-fuzz interp oracle and this suite exercise the same space.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    crypto::HashDrbg drbg(0x9e3779b9 + seed);
    std::vector<word> code;
    const size_t len = 16 + drbg.Below(48);
    for (size_t i = 0; i < len; ++i) {
      code.push_back(Encode(fuzz::RandomFlatInsn(drbg)));
    }
    code.push_back(0xef000000);  // SVC #0 terminator

    MachineState cached = MakeFlatMachine(code, /*cached=*/true);
    MachineState uncached = MakeFlatMachine(code, /*cached=*/false);
    MachineState jitted = MakeFlatMachine(code, /*cached=*/true, /*jitted=*/true);
    for (MachineState* m : {&cached, &uncached, &jitted}) {
      for (int i = 0; i < 13; ++i) {
        crypto::HashDrbg rdrbg(seed * 131 + i);
        m->r[i] = rdrbg.NextWord();
      }
      m->r[10] = kScratchBase;
      m->r[11] = kCodeBase;
    }
    RunLockstep(cached, uncached, jitted, static_cast<int>(len) + 8);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence with seed " << seed;
    }
  }
}

TEST(InterpDiffTest, TightLoopMatchesAndHitsDecodeCache) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 0);
  a.MovImm(R1, 500);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 3);
  a.Subs(R1, R1, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();

  MachineState cached = MakeFlatMachine(code, true);
  MachineState uncached = MakeFlatMachine(code, false);
  MachineState jitted = MakeFlatMachine(code, true, /*jitted=*/true);
  RunLockstep(cached, uncached, jitted, 1510);
  EXPECT_EQ(cached.r[0], 1500u);
  // The loop re-executes the same three instructions ~500 times; nearly every
  // fetch after the first lap must hit.
  EXPECT_GT(cached.interp.stats().decode_hits, 1400u);
  if (jit::Available()) {
    // The loop body is a single translated block, re-entered ~500 times.
    EXPECT_GT(jitted.jit.stats().block_hits, 400u);
    EXPECT_GT(jitted.jit.stats().jit_steps, 1000u);
  }
}

// --- Self-modifying code ----------------------------------------------------------

// A loop whose body instruction is overwritten (through flat memory) on every
// iteration: ADD R0,R0,#1 the first pass, ADD R0,R0,#2 afterwards. A decode
// cache that missed the store would keep replaying the stale instruction;
// the generation check forces a re-decode and both machines agree.
TEST(InterpDiffTest, SelfModifyingCodeForcesRedecode) {
  Instruction add2;
  add2.op = Op::kAdd;
  add2.rd = R0;
  add2.rn = R0;
  add2.op2 = Operand2::Imm(2);

  // Two-pass assembly: the target's address depends only on the (fixed)
  // prologue, so assemble once with a placeholder to learn it, then for real.
  vaddr target_addr = 0;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(kCodeBase);
    a.MovImm(R0, 0);
    a.MovImm(R2, 0);             // iteration counter
    a.MovImm(R4, Encode(add2));  // replacement encoding
    Assembler::Label loop = a.NewLabel();
    a.Bind(loop);
    const vaddr here = a.CurrentAddr();
    a.Add(R0, R0, 1);  // the instruction that gets rewritten
    a.MovImm(R3, target_addr);
    a.Str(R4, R3, 0);  // overwrite the ADD above
    a.Add(R2, R2, 1);
    a.Cmp(R2, 3);
    a.B(loop, Cond::kNe);
    a.Svc();
    code = a.Finish();
    target_addr = here;
  }
  MachineState cached = MakeFlatMachine(code, true);
  MachineState uncached = MakeFlatMachine(code, false);
  MachineState jitted = MakeFlatMachine(code, true, /*jitted=*/true);
  RunLockstep(cached, uncached, jitted, 200);
  // 1 on the first pass, 2 on the remaining two: a stale decode would give 3.
  EXPECT_EQ(cached.r[0], 5u);
  EXPECT_EQ(uncached.r[0], 5u);
  EXPECT_EQ(jitted.r[0], 5u);
}

// --- Enclave workloads (page tables + monitor in the loop) -----------------------

// Runs `fn` against a cached, an uncached and a JIT-enabled world and
// requires identical SMC results and machine state. On hosts without JIT
// support the third world degenerates into a second cached interpreter.
template <typename Fn>
void DiffWorlds(Fn fn) {
  os::World cached{64};
  os::World uncached{64};
  os::World jitted{64};
  cached.machine.interp.set_enabled(true);
  cached.machine.jit.set_enabled(false);
  uncached.machine.interp.set_enabled(false);
  uncached.machine.jit.set_enabled(false);
  jitted.machine.interp.set_enabled(true);
  jitted.machine.jit.set_enabled(true);
  fn(cached);
  fn(uncached);
  fn(jitted);
  ExpectSameState(cached.machine, uncached.machine);
  ExpectSameState(jitted.machine, cached.machine);
}

TEST(InterpDiffTest, Sha256EnclaveMatches) {
  DiffWorlds([](os::World& w) {
    os::EnclaveHandle e;
    auto built_e = w.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
    ASSERT_TRUE(built_e.ok());
    e = *std::move(built_e);
    std::vector<uint8_t> msg(300);
    for (size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<uint8_t>(i * 7);
    }
    const word nblocks = enclave::StageSha256Message(w.os, e.shared_insecure_pgnr, msg);
    const os::EnterResult r = w.os.Enter(e.thread, nblocks);
    ASSERT_TRUE(r.exited());
  });
}

// Enter enclave A, then B, then A again: every Enter rewrites TTBR0, so a
// micro-TLB keyed only on virtual page would serve A's translations to B.
TEST(InterpDiffTest, TtbrRewriteAcrossEnclaveSwitches) {
  DiffWorlds([](os::World& w) {
    os::EnclaveHandle a, b;
    auto built_a = w.os.NewEnclave().Code(enclave::CounterProgram()).Build();
    ASSERT_TRUE(built_a.ok());
    a = *std::move(built_a);
    auto built_b = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
    ASSERT_TRUE(built_b.ok());
    b = *std::move(built_b);
    os::EnterResult r = w.os.Enter(a.thread, 5);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 5u);
    r = w.os.Enter(b.thread, 20, 22);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 42u);
    r = w.os.Enter(a.thread, 7);  // counter persists in A's data page
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 12u);
  });
}

TEST(InterpDiffTest, DynamicMappingEnclaveMatches) {
  DiffWorlds([](os::World& w) {
    // MapData edits the live page table from monitor C++ mid-run; the
    // uncached path re-walks, the cached path must notice the generation
    // bump on the L2 page.
    os::EnclaveHandle e;
    Assembler a(os::kEnclaveCodeVa);
    a.Mov(R7, R0);
    a.MovImm(R0, kSvcMapData);
    a.Mov(R1, R7);
    a.MovImm(R2, MakeMapping(0x30000, kMapR | kMapW));
    a.Svc();
    a.Mov(R4, R0);
    a.MovImm(R5, 0x30000);
    a.MovImm(R6, 0xbeef);
    a.Str(R6, R5, 0);
    a.Ldr(R1, R5, 0);
    a.Add(R1, R1, R4);
    a.MovImm(R0, kSvcExit);
    a.Svc();
    auto built_e = w.os.NewEnclave().Code(a.Finish()).Build();
    ASSERT_TRUE(built_e.ok());
    e = *std::move(built_e);
    const PageNr spare = w.os.AllocSecurePage();
    ASSERT_EQ(w.os.AllocSpare(e.addrspace, spare).err, kErrSuccess);
    const os::EnterResult r = w.os.Enter(e.thread, spare);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 0xbeefu);
  });
}

}  // namespace
}  // namespace komodo::arm
