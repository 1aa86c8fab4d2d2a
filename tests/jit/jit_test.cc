// Block-JIT unit suite (DESIGN.md §13): the A32→x64 translator must be
// architecturally invisible behind RunUntilException. The cases here are the
// ones bisimulation sweeps reach only by luck — block invalidation through
// the page-generation tags (cross-block and within the executing block),
// the interpreter fallback boundary (traps, budget exhaustion, unaligned
// fetch), the KOMODO_JIT escape hatch, and the stats surface the bench and
// obs layers report. Everything that needs translated code to actually run
// is skipped on hosts without JIT support.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/fuzz/oracles.h"
#include "src/jit/jit.h"

namespace komodo::arm {
namespace {

constexpr vaddr kCodeBase = 0x2000;
constexpr vaddr kScratchBase = 0x4000;

// Flat normal-world machine (translation is identity), the simplest host for
// straight-line user code.
MachineState MakeMachine(const std::vector<word>& code, bool jitted) {
  MachineState m(8);
  m.interp.set_enabled(true);
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

// Runs the same program to its terminating exception with the JIT on and
// off, and requires bit-identical final state (cycles included) plus the
// same exception.
void ExpectBisimulatesToSvc(const std::vector<word>& code, uint64_t max_steps) {
  MachineState jm = MakeMachine(code, /*jitted=*/true);
  MachineState im = MakeMachine(code, /*jitted=*/false);
  const std::optional<Exception> je = RunUntilException(jm, max_steps);
  const std::optional<Exception> ie = RunUntilException(im, max_steps);
  EXPECT_EQ(je, ie);
  for (const std::string& diff : fuzz::MachineDiff(jm, im)) {
    ADD_FAILURE() << diff;
  }
}

TEST(JitState, EnvVarGatesDefault) {
  // JitState reads KOMODO_JIT at construction, like KOMODO_INTERP_CACHE.
  ASSERT_EQ(setenv("KOMODO_JIT", "off", 1), 0);
  {
    MachineState m(8);
    EXPECT_FALSE(m.jit.enabled());
  }
  ASSERT_EQ(unsetenv("KOMODO_JIT"), 0);
  {
    MachineState m(8);
    EXPECT_EQ(m.jit.enabled(), jit::Available());
  }
}

TEST(JitState, CopiesCarryFlagButColdCaches) {
  MachineState m(8);
  m.jit.set_enabled(jit::Available());
  MachineState copy = m;
  EXPECT_EQ(copy.jit.enabled(), m.jit.enabled());
  EXPECT_EQ(copy.jit.stats().blocks_translated, 0u);
}

TEST(JitState, DisabledMachineNeverJits) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 7);
  a.Add(R0, R0, 35);
  a.Svc();
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/false);
  EXPECT_EQ(RunUntilException(m, 100), Exception::kSvc);
  EXPECT_EQ(m.r[0], 42u);
  EXPECT_EQ(m.jit.stats().jit_steps, 0u);
  EXPECT_EQ(m.jit.stats().blocks_translated, 0u);
}

TEST(JitRun, StraightLineBlockRunsJitted) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  Assembler a(kCodeBase);
  a.MovImm(R0, 1);
  a.MovImm(R1, 2);
  a.Add(R2, R0, R1);
  a.Lsl(R3, R2, 4);
  a.Svc();
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/true);
  EXPECT_EQ(RunUntilException(m, 100), Exception::kSvc);
  EXPECT_EQ(m.r[2], 3u);
  EXPECT_EQ(m.r[3], 48u);
  // The four data-processing insns form one block; the SVC terminates it and
  // falls back to the interpreter.
  EXPECT_EQ(m.jit.stats().blocks_translated, 1u);
  EXPECT_EQ(m.jit.stats().jit_steps, 4u);
  EXPECT_GE(m.jit.stats().fallback_steps, 1u);
}

TEST(JitRun, LoopReentersCachedBlock) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  Assembler a(kCodeBase);
  a.MovImm(R0, 0);
  a.MovImm(R1, 100);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 3);
  a.Subs(R1, R1, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/true);
  EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
  EXPECT_EQ(m.r[0], 300u);
  // The loop body translates once and is re-entered every iteration.
  EXPECT_LE(m.jit.stats().blocks_translated, 3u);
  EXPECT_GT(m.jit.stats().block_hits, 90u);
  EXPECT_EQ(m.jit.stats().block_invalidations, 0u);
}

TEST(JitRun, BlocksSixteenKbApartStayResidentTogether) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // Two blocks 16 kB apart in physical memory, entered alternately, the way
  // resident enclaves' entry blocks at offset 0 of their code pages are. The
  // block table must hold both: a low-bits index gives them one slot, and
  // each entry would evict the other on every lap.
  Assembler a(kCodeBase);
  Assembler::Label top = a.NewLabel();
  Assembler::Label far = a.NewLabel();
  a.Bind(top);
  a.Add(R0, R0, 1);
  a.B(far);
  while (a.CurrentAddr() < kCodeBase + 0x4000) {
    a.EmitWord(0);  // never executed
  }
  a.Bind(far);
  a.Add(R1, R1, 1);
  a.Cmp(R1, 50);
  a.B(top, Cond::kNe);
  a.Svc();
  ASSERT_EQ(a.AddrOf(far) - a.AddrOf(top), 0x4000u);
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/true);
  EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
  EXPECT_EQ(m.r[0], 50u);
  EXPECT_EQ(m.r[1], 50u);
  EXPECT_EQ(m.jit.stats().blocks_translated, 2u);
  EXPECT_EQ(m.jit.stats().block_hits, 100u);
  EXPECT_EQ(m.jit.stats().code_cache_flushes, 0u);
}

TEST(JitRun, BudgetExhaustionRetiresExactStepCount) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // An infinite loop: RunUntilException must retire exactly max_steps even
  // though the loop body's block is longer than the final budget remnant.
  Assembler a(kCodeBase);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 1);
  a.Add(R1, R1, 2);
  a.Add(R2, R2, 3);
  a.B(loop);
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/true);
  EXPECT_EQ(RunUntilException(m, 107), std::nullopt);
  EXPECT_EQ(m.steps_retired, 107u);
  // The tail that didn't fit a whole block ran interpreted.
  EXPECT_GT(m.jit.stats().fallback_steps, 0u);
  EXPECT_GT(m.jit.stats().jit_steps, 90u);
}

TEST(JitRun, StoreIntoOwnBlockRestartsTranslation) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // The store rewrites an instruction LATER in the same basic block (ahead of
  // the execution point), so the already-running block must stop at the store
  // and the rewritten instruction must be re-translated, not replayed stale:
  //   str  r4, [r3]        ; overwrite the MOV below with ADD R0,R0,#2
  //   mov  r0, #1          ; <- target; becomes ADD R0,R0,#2
  //   svc  #0
  Instruction add2;
  add2.op = Op::kAdd;
  add2.rd = R0;
  add2.rn = R0;
  add2.op2 = Operand2::Imm(2);

  vaddr target_addr = 0;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(kCodeBase);
    a.MovImm(R0, 40);
    a.MovImm(R4, Encode(add2));
    a.MovImm(R3, target_addr);
    a.Str(R4, R3, 0);
    const vaddr here = a.CurrentAddr();
    a.MovImm(R0, 1);  // overwritten before it executes
    a.Svc();
    code = a.Finish();
    target_addr = here;
  }
  MachineState jm = MakeMachine(code, /*jitted=*/true);
  MachineState im = MakeMachine(code, /*jitted=*/false);
  EXPECT_EQ(RunUntilException(jm, 100), Exception::kSvc);
  EXPECT_EQ(RunUntilException(im, 100), Exception::kSvc);
  EXPECT_EQ(im.r[0], 42u) << "interpreter reference disagrees with intent";
  EXPECT_EQ(jm.r[0], 42u) << "stale block replayed the overwritten MOV";
  for (const std::string& diff : fuzz::MachineDiff(jm, im)) {
    ADD_FAILURE() << diff;
  }
}

TEST(JitRun, CrossBlockStoreInvalidatesThroughPageGen) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // A loop whose body is rewritten from a PREVIOUS iteration's store: the
  // block was translated on lap one, the store bumps the code page's
  // generation, and the next lookup must notice and retranslate.
  Instruction add2;
  add2.op = Op::kAdd;
  add2.rd = R0;
  add2.rn = R0;
  add2.op2 = Operand2::Imm(2);

  vaddr target_addr = 0;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(kCodeBase);
    a.MovImm(R0, 0);
    a.MovImm(R2, 0);
    a.MovImm(R4, Encode(add2));
    a.MovImm(R3, target_addr);
    Assembler::Label loop = a.NewLabel();
    a.Bind(loop);
    const vaddr here = a.CurrentAddr();
    a.Add(R0, R0, 1);  // rewritten to ADD R0,R0,#2 after lap one
    a.Str(R4, R3, 0);
    a.Add(R2, R2, 1);
    a.Cmp(R2, 3);
    a.B(loop, Cond::kNe);
    a.Svc();
    code = a.Finish();
    target_addr = here;
  }
  MachineState jm = MakeMachine(code, /*jitted=*/true);
  MachineState im = MakeMachine(code, /*jitted=*/false);
  EXPECT_EQ(RunUntilException(jm, 200), Exception::kSvc);
  EXPECT_EQ(RunUntilException(im, 200), Exception::kSvc);
  EXPECT_EQ(im.r[0], 5u);
  EXPECT_EQ(jm.r[0], 5u) << "stale block survived a code-page generation bump";
  EXPECT_GT(jm.jit.stats().block_invalidations, 0u);
  for (const std::string& diff : fuzz::MachineDiff(jm, im)) {
    ADD_FAILURE() << diff;
  }
}

TEST(JitRun, NonJitableHeadFallsBackAndCachesVerdict) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // MRS heads the hot loop: the block lookup must decline (kInterpretOne)
  // without translating anything, every iteration.
  Assembler a(kCodeBase);
  a.MovImm(R0, 0);
  a.MovImm(R1, 20);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.MrsCpsr(R5);
  a.Add(R0, R0, 1);
  a.Subs(R1, R1, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  MachineState m = MakeMachine(a.Finish(), /*jitted=*/true);
  EXPECT_EQ(RunUntilException(m, 500), Exception::kSvc);
  EXPECT_EQ(m.r[0], 20u);
  // The MRS step interprets each lap; the rest of the body still jits.
  EXPECT_GE(m.jit.stats().fallback_steps, 20u);
  EXPECT_GT(m.jit.stats().jit_steps, 0u);
}

TEST(JitRun, ExceptionInMidBlockChargesExactly) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // The third instruction data-aborts (unmapped secure address in the normal
  // world): the block must retire exactly three steps, charge the two ALU
  // steps plus the load's pre-fault charge, and take the same exception at
  // the same return address as the interpreter.
  Assembler a(kCodeBase);
  a.MovImm(R0, 1);
  a.MovImm(R3, kSecurePagesBase);  // TrustZone filter faults NS access
  a.Ldr(R2, R3, 0);
  a.Svc();
  const std::vector<word> code = a.Finish();
  MachineState jm = MakeMachine(code, /*jitted=*/true);
  MachineState im = MakeMachine(code, /*jitted=*/false);
  EXPECT_EQ(RunUntilException(jm, 100), Exception::kDataAbort);
  EXPECT_EQ(RunUntilException(im, 100), Exception::kDataAbort);
  EXPECT_EQ(jm.steps_retired, im.steps_retired);
  for (const std::string& diff : fuzz::MachineDiff(jm, im)) {
    ADD_FAILURE() << diff;
  }
}

TEST(JitRun, LdmStmRoundTripBisimulates) {
  Assembler a(kCodeBase);
  a.MovImm(R10, kScratchBase);
  a.MovImm(R0, 0x11);
  a.MovImm(R1, 0x22);
  a.MovImm(R2, 0x33);
  a.Stmia(R10, 0b0000000000000111, /*writeback=*/true);  // r0-r2
  a.MovImm(R10, kScratchBase);
  a.Ldmia(R10, 0b0000000011110000, /*writeback=*/false);  // r4-r7 (r7 reads junk)
  a.Svc();
  ExpectBisimulatesToSvc(a.Finish(), 100);
}

TEST(JitRun, ByteOpsAndShiftedOperandsBisimulate) {
  Assembler a(kCodeBase);
  a.MovImm(R10, kScratchBase);
  a.MovImm(R0, 0xab);
  a.Strb(R0, R10, 2);
  a.Ldrb(R1, R10, 2);
  a.Lsl(R2, R1, 24);
  a.Asr(R3, R2, 31);
  a.Ror(R4, R1, 4);
  a.AddShifted(R5, R1, R2, ShiftKind::kLsr, 8);
  a.Adds(R6, R2, R2);  // carry out
  a.Adc(R7, R0, R1);   // carry in
  a.Svc();
  ExpectBisimulatesToSvc(a.Finish(), 100);
}

TEST(JitRun, ConditionalAndBranchLinkBisimulate) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 5);
  a.Cmp(R0, 5);
  a.MovImm(R1, 1, Cond::kEq);
  a.MovImm(R2, 2, Cond::kNe);  // cond-fails inside the block
  Assembler::Label sub = a.NewLabel();
  a.Bl(sub);
  a.Svc();
  a.Bind(sub);
  a.Add(R3, R0, R1);
  a.Bx(LR);
  ExpectBisimulatesToSvc(a.Finish(), 100);
}

}  // namespace
}  // namespace komodo::arm
