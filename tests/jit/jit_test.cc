// Block-JIT unit suite (DESIGN.md §13): the A32→x64 translator must be
// architecturally invisible behind RunUntilException. The cases here are the
// ones bisimulation sweeps reach only by luck — block invalidation through
// the page-generation tags (cross-block and within the executing block),
// the interpreter fallback boundary (traps, budget exhaustion, unaligned
// fetch), the engine setting (ExecMode), the stats surface the bench and obs
// layers report, and, in secure user mode, every rule the micro-TLB probe
// stubs apply before serving an access from emitted code. Everything that
// needs translated code to actually run is skipped on hosts without JIT
// support.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/arm/page_table.h"
#include "src/enclave/example_programs.h"
#include "src/fuzz/oracles.h"
#include "src/jit/jit.h"
#include "src/jit/jit_internal.h"
#include "src/os/os.h"

namespace komodo::arm {
namespace {

constexpr vaddr kCodeBase = 0x2000;
constexpr vaddr kScratchBase = 0x4000;

// Flat normal-world machine (translation is identity), the simplest host for
// straight-line user code.
MachineState MakeMachine(const std::vector<word>& code, ExecMode mode) {
  MachineState m(8);
  m.SetExecMode(mode);
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
  MachineState jm = MakeMachine(code, ExecMode::kJit);
  MachineState im = MakeMachine(code, ExecMode::kCached);
  const std::optional<Exception> je = RunUntilException(jm, max_steps);
  const std::optional<Exception> ie = RunUntilException(im, max_steps);
  EXPECT_EQ(je, ie);
  for (const std::string& diff : fuzz::MachineDiff(jm, im)) {
    ADD_FAILURE() << diff;
  }
}

// Sets an environment variable for a scope (nullptr unsets it) and puts back
// what the environment held before, so the suite's own setting survives.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    EXPECT_EQ(value != nullptr ? setenv(name, value, 1) : unsetenv(name), 0);
  }
  ~ScopedEnv() {
    EXPECT_EQ(old_.has_value() ? setenv(name_, old_->c_str(), 1) : unsetenv(name_), 0);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ExecModeTest, EnvironmentSelectsTheDefault) {
  const ExecMode fastest = jit::Available() ? ExecMode::kJit : ExecMode::kCached;
  struct Case {
    const char* interp_cache;
    const char* jit;
    ExecMode want;
  };
  for (const Case& c : {Case{nullptr, nullptr, fastest}, Case{nullptr, "off", ExecMode::kCached},
                        Case{"off", nullptr, ExecMode::kUncached},
                        Case{"false", "0", ExecMode::kUncached}, Case{"on", "1", fastest}}) {
    const ScopedEnv interp_cache("KOMODO_INTERP_CACHE", c.interp_cache);
    const ScopedEnv jit("KOMODO_JIT", c.jit);
    EXPECT_EQ(MachineState(8).exec_mode(), c.want)
        << "KOMODO_INTERP_CACHE=" << (c.interp_cache ? c.interp_cache : "(unset)")
        << " KOMODO_JIT=" << (c.jit ? c.jit : "(unset)");
  }
}

TEST(ExecModeTest, CopiesAndResetsCarryTheModeButColdCaches) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 7);
  a.Svc();
  const std::vector<word> code = a.Finish();
  for (const ExecMode mode : {ExecMode::kUncached, ExecMode::kCached, ExecMode::kJit}) {
    MachineState m = MakeMachine(code, mode);
    ASSERT_EQ(RunUntilException(m, 100), Exception::kSvc);
    const MachineState copy = m;
    EXPECT_EQ(copy.exec_mode(), m.exec_mode());
    EXPECT_EQ(copy.jit.stats().blocks_translated, 0u);
    EXPECT_EQ(copy.interp.ResidentDecodeAddrs().size(), 0u);
  }
  MachineState m(8);
  m.SetExecMode(ExecMode::kUncached);
  const MachineState snapshot = m;
  m.SetExecMode(ExecMode::kJit);
  EXPECT_EQ(m.exec_mode(), jit::Available() ? ExecMode::kJit : ExecMode::kCached);
  m.ResetTo(snapshot);
  EXPECT_EQ(m.exec_mode(), ExecMode::kUncached);
}

TEST(JitState, DisabledMachineNeverJits) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 7);
  a.Add(R0, R0, 35);
  a.Svc();
  MachineState m = MakeMachine(a.Finish(), ExecMode::kCached);
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
  MachineState m = MakeMachine(a.Finish(), ExecMode::kJit);
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
  MachineState m = MakeMachine(a.Finish(), ExecMode::kJit);
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
  MachineState m = MakeMachine(a.Finish(), ExecMode::kJit);
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
  MachineState m = MakeMachine(a.Finish(), ExecMode::kJit);
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
  MachineState jm = MakeMachine(code, ExecMode::kJit);
  MachineState im = MakeMachine(code, ExecMode::kCached);
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
  MachineState jm = MakeMachine(code, ExecMode::kJit);
  MachineState im = MakeMachine(code, ExecMode::kCached);
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
  MachineState m = MakeMachine(a.Finish(), ExecMode::kJit);
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
  MachineState jm = MakeMachine(code, ExecMode::kJit);
  MachineState im = MakeMachine(code, ExecMode::kCached);
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
  a.MovImm(R10, kScratchBase);
  a.Cmp(R0, 5);
  a.MovImm(R1, 1, Cond::kEq);
  a.MovImm(R2, 2, Cond::kNe);  // cond-fails inside the block
  // Conditional memory ops charge load/store cycles when they pass and one
  // ALU cycle when they fail; the two paths' batched charges must merge.
  a.Str(R0, R10, 0, Cond::kEq);
  a.Ldr(R4, R10, 0, Cond::kEq);
  a.Str(R1, R10, 4, Cond::kNe);
  a.Ldr(R5, R10, 4, Cond::kNe);
  Assembler::Label sub = a.NewLabel();
  a.Bl(sub);
  a.Svc();
  a.Bind(sub);
  a.Add(R3, R0, R1);
  a.Bx(LR);
  ExpectBisimulatesToSvc(a.Finish(), 100);
}

// --- Secure user mode: the probe stubs ---------------------------------------
//
// Enclave code runs in secure user mode, where translated loads and stores
// are served by the probe stubs from the micro-TLB whenever its hit rule and
// the access's permission allow, and by the runtime helpers otherwise. Each
// case runs one program on a JIT machine, a cached interpreter and an
// uncached interpreter over the same hand-built page table (page 0 the L1
// table, page 1 its four L2 tables, as in tlb_cache_test.cc), and requires
// identical final state.

constexpr std::array<ExecMode, 3> kRunners = {ExecMode::kJit, ExecMode::kCached,
                                              ExecMode::kUncached};
constexpr std::array<const char*, 3> kRunnerNames = {"jit", "cached", "uncached"};

constexpr paddr kL1 = kSecurePagesBase;
constexpr paddr kL2 = kSecurePagesBase + kPageSize;
constexpr vaddr kUserCode = 0x8000;

constexpr paddr Page(word n) { return kSecurePagesBase + n * kPageSize; }

// Points the L1 table at `l1` to the four L2 tables packed in page `l2`.
void BuildL1(MachineState& m, paddr l1, paddr l2) {
  for (word k = 0; k < kL2TablesPerPage; ++k) {
    m.mem.Write(l1 + k * kWordSize, MakeL1PageTableDesc(l2 + k * kL2TableBytes));
  }
}

// Maps `va` (below 4 MB) to `page` in the L2 tables packed in page `l2`.
void Map(MachineState& m, vaddr va, paddr page, bool writable, bool executable,
         paddr l2 = kL2) {
  m.mem.Write(l2 + (va >> 12) * kWordSize,
              MakeL2SmallPageDesc(page, writable, executable, /*ns=*/false));
}

void WriteWords(MachineState& m, paddr at, const std::vector<word>& words) {
  for (size_t i = 0; i < words.size(); ++i) {
    m.mem.Write(at + static_cast<word>(i) * kWordSize, words[i]);
  }
}

// The monitor's half of an Enter: load TTBR0, TLBIALL, drop to user mode.
void EnterUser(MachineState& m, paddr ttbr0, vaddr pc) {
  m.cpsr.mode = Mode::kMonitor;
  m.WriteTtbr0(ttbr0);
  m.FlushTlb();
  m.cpsr.mode = Mode::kUser;  // secure world: SCR.NS stays 0
  m.pc = pc;
}

using Machines = std::array<std::unique_ptr<MachineState>, 3>;  // kRunners order

// Runs `body` on a fresh machine per runner (with the L1 table built and the
// runner's caches and JIT set), then requires the JIT and uncached machines
// to equal the cached one. Returns the machines for case-specific checks.
Machines RunThreeWays(const std::function<void(MachineState&)>& body) {
  Machines ms;
  for (size_t k = 0; k < kRunners.size(); ++k) {
    SCOPED_TRACE(kRunnerNames[k]);
    ms[k] = std::make_unique<MachineState>(64);
    MachineState& m = *ms[k];
    m.SetExecMode(kRunners[k]);
    BuildL1(m, kL1, kL2);
    body(m);
  }
  for (const size_t k : {size_t{0}, size_t{2}}) {
    for (const std::string& diff : fuzz::MachineDiff(*ms[k], *ms[1])) {
      ADD_FAILURE() << kRunnerNames[k] << " vs cached: " << diff;
    }
  }
  return ms;
}

Instruction AddImm(Reg rd, word imm) {
  Instruction add;
  add.op = Op::kAdd;
  add.rd = rd;
  add.rn = rd;
  add.op2 = Operand2::Imm(imm);
  return add;
}

TEST(JitSecureUser, StoreIntoOwnWritableCodePageRestarts) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // A writable code mapping, already in the micro-TLB from the fetch: the
  // store probe must still refuse the running block's own page, so the
  // helper flags the restart and the rewritten instruction runs fresh.
  vaddr target = 0;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(kUserCode);
    a.MovImm(R0, 40);
    a.MovImm(R4, Encode(AddImm(R0, 2)));
    a.MovImm(R3, target);
    a.Str(R4, R3, 0);
    const vaddr here = a.CurrentAddr();
    a.MovImm(R0, 1);  // overwritten before it executes
    a.Svc();
    code = a.Finish();
    target = here;
  }
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), /*writable=*/true, /*executable=*/true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kSvc);
    EXPECT_EQ(m.r[0], 42u) << "the block ran its stale translated tail";
  });
  EXPECT_GE(ms[0]->jit.stats().helper_accesses, 1u);
}

TEST(JitSecureUser, StoreIntoLiveL2TableEndsBlockAndBudgetAtTheStore) {
  // The enclave maps its own L2 table writable at 0xa000 and rewrites
  // 0xb000's descriptor through it. A load warms the window's micro-TLB
  // entry first, so the store probe meets a valid entry and must refuse it
  // (the page is in the live page-table footprint): the helper's NoteStore
  // clears tlb_consistent exactly as Step does. The block [LDR, LDR, STR]
  // and the three-step budget both end at the store.
  Assembler a(kUserCode);
  a.Ldr(R4, R3, 0);
  a.Ldr(R5, R0, 0);
  a.Str(R1, R0, 0);
  a.Svc();  // not reached: outside the hot subset, so the block ends above
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0xa000, kL2, /*writable=*/true, false);
    Map(m, 0xb000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[3] = 0xb000;
    m.r[0] = 0xa000 + (0xb000u >> 12) * kWordSize;  // 0xb000's L2 slot
    m.r[1] = MakeL2SmallPageDesc(Page(4), true, false, false);
    EXPECT_EQ(RunUntilException(m, 3), std::nullopt);
    EXPECT_FALSE(m.tlb_consistent) << "store into the live L2 table not noticed";
    EXPECT_EQ(m.pc, kUserCode + 12);
  });
  if (jit::Available()) {
    EXPECT_EQ(ms[0]->jit.stats().jit_steps, 3u);
  }
}

// Which part of the translation a monitor changes between two Enters.
enum class Remap { kL2Descriptor, kL1Descriptor, kTtbr0 };

void ExpectRemapIsSeen(Remap how) {
  // Run one LDR through 0x10000 (page 3), let the monitor point 0x10000 at
  // page 4, and run the same, already translated, block again: the warm
  // micro-TLB entry must fail its L2 generation, L1 generation or TTBR0
  // compare, and the second load must read the new page.
  Assembler a(kUserCode);
  a.Ldr(R2, R3, 0);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    m.mem.Write(Page(3), 0x111);
    m.mem.Write(Page(4), 0x222);
    EnterUser(m, kL1, kUserCode);
    m.r[3] = 0x10000;
    ASSERT_EQ(RunUntilException(m, 10), Exception::kSvc);
    ASSERT_EQ(m.r[2], 0x111u);

    // Monitor side, from the SVC handler's privileged mode. The new L2
    // tables (page 6) map the code page the same and 0x10000 to page 4.
    paddr ttbr0 = kL1;
    switch (how) {
      case Remap::kL2Descriptor:
        Map(m, 0x10000, Page(4), true, false);
        break;
      case Remap::kL1Descriptor:
        Map(m, kUserCode, Page(2), false, true, Page(6));
        Map(m, 0x10000, Page(4), true, false, Page(6));
        BuildL1(m, kL1, Page(6));
        break;
      case Remap::kTtbr0:
        Map(m, kUserCode, Page(2), false, true, Page(6));
        Map(m, 0x10000, Page(4), true, false, Page(6));
        BuildL1(m, Page(7), Page(6));
        ttbr0 = Page(7);
        break;
    }
    EnterUser(m, ttbr0, kUserCode);
    ASSERT_EQ(RunUntilException(m, 10), Exception::kSvc);
    EXPECT_EQ(m.r[2], 0x222u) << "the load used a stale translation";
  });
}

TEST(JitSecureUser, RemappedL2DescriptorIsSeen) { ExpectRemapIsSeen(Remap::kL2Descriptor); }
TEST(JitSecureUser, RemappedL1DescriptorIsSeen) { ExpectRemapIsSeen(Remap::kL1Descriptor); }
TEST(JitSecureUser, SwitchedTtbr0IsSeen) { ExpectRemapIsSeen(Remap::kTtbr0); }

TEST(JitSecureUser, BlockTransfersAndByteOpsCrossIntoASecondPage) {
  // 0x10000 and 0x11000 map to physical pages 5 and 3: adjacent virtual
  // pages, far-apart physical ones, so serving one access past the end of
  // the first page from its host address would hit the wrong memory. The
  // loop runs three times so that laps two and three find every entry warm.
  Assembler a(kUserCode);
  a.MovImm(R12, 3);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.MovImm(R10, 0x10ff8);
  a.MovImm(R0, 0x1111'0000);
  a.Add(R0, R0, R12);
  a.MovImm(R1, 0x2222);
  a.MovImm(R2, 0x3333);
  a.MovImm(R3, 0x4444);
  a.Stmia(R10, 0b0000'0000'0000'1111, /*writeback=*/true);  // r0-r3, 2 + 2 words
  a.MovImm(R10, 0x10ff8);
  a.Ldmia(R10, 0b0000'0000'1111'0000);  // r4-r7
  a.MovImm(R9, 0x10fff);
  a.Strb(R12, R9, 0);  // last byte of the first page
  a.Strb(R0, R9, 1);   // first byte of the second
  a.Ldrb(R8, R9, 0);
  a.Ldrb(R11, R9, 1);
  a.Subs(R12, R12, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(5), true, false);
    Map(m, 0x11000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 200), Exception::kSvc);
    EXPECT_EQ(m.r[4], 0x1111'0001u);
    EXPECT_EQ(m.r[7], 0x4444u);
    EXPECT_EQ(m.mem.Read(Page(5) + 0xffc), 0x0100'2222u);  // r1, top byte from STRB
    EXPECT_EQ(m.mem.Read(Page(3)), 0x3301u);               // r2, low byte from STRB
    EXPECT_EQ(m.mem.Read(Page(3) + 4), 0x4444u);
    EXPECT_EQ(m.r[8], 1u);
    EXPECT_EQ(m.r[11], 1u);
  });
}

TEST(JitSecureUser, UnalignedLoadFaultsLikeTheInterpreter) {
  // The first load warms 0x10000's entry, so the second, unaligned, one
  // finds a valid entry; the word probe must still send it to the helper.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.Ldr(R1, R3, 0);
  a.Ldr(R2, R3, 2);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kDataAbort);
  });
}

TEST(JitSecureUser, StoreToReadOnlyMappingFaultsLikeTheInterpreter) {
  // A load warms the read-only page's entry; the store probe must refuse it.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.MovImm(R1, 7);
  a.Ldr(R2, R3, 0);
  a.Str(R1, R3, 4);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), /*writable=*/false, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kDataAbort);
    EXPECT_EQ(m.mem.Read(Page(3) + 4), 0u);
  });
}

TEST(JitSecureUser, StoreIntoAnotherCodePageInvalidatesItsBlock) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // The loop calls fn (on its own writable code page) and then, from the
  // caller's block, rewrites fn's first instruction. That store is served
  // inline (another block's page, outside the page tables), so only its
  // generation bump can tell the block table that fn's translation is stale.
  Assembler a(kUserCode);
  Assembler::Label loop = a.NewLabel();
  Assembler::Label fn = a.NewLabel();
  a.MovImm(R0, 0);
  a.MovImm(R5, 0);
  a.MovImm(R3, kUserCode + kPageSize);
  a.MovImm(R4, Encode(AddImm(R0, 2)));
  a.Bind(loop);
  a.Bl(fn);
  a.Str(R4, R3, 0);
  a.Add(R5, R5, 1);
  a.Cmp(R5, 3);
  a.B(loop, Cond::kNe);
  a.Svc();
  while (a.CurrentAddr() < kUserCode + kPageSize) {
    a.EmitWord(0);  // never executed
  }
  a.Bind(fn);
  a.Add(R0, R0, 1);  // ADD R0,R0,#2 after the first call
  a.Bx(LR);
  const std::vector<word> code = a.Finish();
  ASSERT_EQ(a.AddrOf(fn), kUserCode + kPageSize);
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, kUserCode + kPageSize, Page(6), /*writable=*/true, true);
    WriteWords(m, Page(2), std::vector<word>(code.begin(), code.begin() + kWordsPerPage));
    WriteWords(m, Page(6), std::vector<word>(code.begin() + kWordsPerPage, code.end()));
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 200), Exception::kSvc);
    EXPECT_EQ(m.r[0], 5u) << "fn's stale translation survived the store";
  });
  EXPECT_GT(ms[0]->jit.stats().block_invalidations, 0u);
}

TEST(JitSecureUser, ProbeHitsCountAsTlbHitsAndMissesTakeTheHelper) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // Every data access is one micro-TLB lookup, hit or miss, whether the
  // probe or a helper performed it; each dispatch adds one fetch lookup, and
  // the final SVC two (the declined dispatch and the interpreter's step). A
  // chained transfer skips the dispatcher and its fetch. Only the first
  // access to each of the two data pages misses and takes the helper.
  constexpr word kLaps = 50;
  constexpr uint64_t kDataAccesses = 3 * kLaps;
  Assembler a(kUserCode);
  a.MovImm(R12, kLaps);
  a.MovImm(R3, 0x10000);
  a.MovImm(R4, 0x11000);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Ldr(R1, R3, 0);
  a.Str(R1, R4, 0);
  a.Ldrb(R2, R3, 1);
  a.Subs(R12, R12, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    Map(m, 0x11000, Page(4), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
  });
  const MachineState& jm = *ms[0];
  const MachineState& cm = *ms[1];
  const InterpCacheStats& js = jm.interp.stats();
  const InterpCacheStats& cs = cm.interp.stats();
  EXPECT_EQ(cs.tlb_hits + cs.tlb_misses, cm.steps_retired + kDataAccesses);
  const uint64_t dispatches = jm.jit.stats().block_hits - jm.jit.stats().chained;
  EXPECT_EQ(js.tlb_hits + js.tlb_misses, dispatches + 2 + kDataAccesses);
  EXPECT_EQ(js.tlb_misses, 3u);  // the code page and the two data pages
  EXPECT_EQ(jm.jit.stats().helper_accesses, 2u);
}

TEST(JitSecureUser, InvalidatedTlbEntriesMissAlthoughTheirTagsStillMatch) {
  if (!jit::Available()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  // The same loop runs twice with the interpreter caches invalidated in
  // between, as a machine reset or a mode change does. Nothing the entries
  // are tagged with moved (VPN, TTBR0, descriptor generations), so only the
  // epoch tells the probes that the warm data entries are gone: each run's
  // first access to each data page must miss and take the helper, exactly
  // as the cached interpreter's walk misses.
  constexpr word kLaps = 20;
  constexpr uint64_t kRuns = 2;
  Assembler a(kUserCode);
  a.MovImm(R12, kLaps);
  a.MovImm(R3, 0x10000);
  a.MovImm(R4, 0x11000);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Ldr(R1, R3, 0);
  a.Str(R1, R4, 0);
  a.Subs(R12, R12, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    Map(m, 0x11000, Page(4), true, false);
    WriteWords(m, Page(2), code);
    for (uint64_t run = 0; run < kRuns; ++run) {
      m.interp.InvalidateAll();
      EnterUser(m, kL1, kUserCode);
      EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    }
  });
  const MachineState& jm = *ms[0];
  const MachineState& cm = *ms[1];
  const InterpCacheStats& js = jm.interp.stats();
  const InterpCacheStats& cs = cm.interp.stats();
  EXPECT_EQ(cs.tlb_misses, 3 * kRuns);  // the code page and the two data pages
  EXPECT_EQ(js.tlb_misses, cs.tlb_misses);
  // The runners differ only in their fetches: the cached one looks up every
  // step, the JIT one every dispatch and twice at each run's final SVC.
  const uint64_t jit_fetches = jm.jit.stats().block_hits - jm.jit.stats().chained + 2 * kRuns;
  EXPECT_EQ(js.tlb_hits + cm.steps_retired, cs.tlb_hits + jit_fetches);
  // Every data access the cached runner's walk missed took a JIT helper.
  EXPECT_EQ(jm.jit.stats().helper_accesses, cs.tlb_misses - kRuns);
}

// --- Once-per-run validation and the register cache --------------------------
//
// A probe validates a micro-TLB slot against TlbWalk's hit rule once per run
// and records the pass under a stamp; the dispatcher and every runtime
// helper start a new stamp. Guest registers a block names often live in host
// registers and are written back at every exit and before every helper call.

TEST(JitSecureUser, HelperRefillOfAPassedSlotIsValidatedAgain) {
  // The code page 0x8000 and the data page 512 kB above it share micro-TLB
  // slot 8. The second store records the data page's pass; a load from the
  // code page then takes the helper, which refills the slot. The next data
  // store must take the helper again, as TlbWalk misses there, and the last
  // store, into the code page the slot maps once more, must restart: it
  // rewrites the MOV that follows it.
  constexpr vaddr kData = kUserCode + 512 * 1024;
  vaddr target = kUserCode;
  std::vector<word> code;
  for (int pass = 0; pass < 2; ++pass) {
    Assembler a(kUserCode);
    a.MovImm(R0, 40);
    a.MovImm(R3, kData);
    a.MovImm(R4, kUserCode);
    a.MovImm(R6, Encode(AddImm(R0, 2)));
    a.Str(R0, R3, 0);   // miss: the slot holds the code page since the fetch
    a.Str(R0, R3, 4);   // passes, and records it
    a.Ldr(R5, R4, 0);   // miss: the helper refills the slot with the code page
    a.Str(R0, R3, 8);   // miss: the slot holds the code page
    a.Ldr(R5, R4, 4);   // miss: refills the slot with the code page again
    a.Str(R6, R4, static_cast<int32_t>(target - kUserCode));
    const vaddr here = a.CurrentAddr();
    a.MovImm(R0, 1);  // overwritten before it executes
    a.Svc();
    code = a.Finish();
    target = here;
  }
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), /*writable=*/true, /*executable=*/true);
    Map(m, kData, Page(3), /*writable=*/true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kSvc);
    EXPECT_EQ(m.r[0], 42u) << "the store into the code page did not restart";
    EXPECT_EQ(m.mem.Read(Page(3) + 8), 40u);
  });
  if (jit::Available()) {
    // Every access but the recorded store takes its helper. TlbWalk misses
    // at the dispatch's fetch, the first store and the three accesses after
    // it that find the slot refilled; the last store's helper hits.
    EXPECT_EQ(ms[0]->jit.stats().helper_accesses, 5u);
    EXPECT_EQ(ms[0]->interp.stats().tlb_misses, 5u);
  }
}

TEST(JitSecureUser, PassRecordedInOneRunIsValidatedAgainInTheNext) {
  // The first run records passes for a load and a store at 0x10000 (page 3).
  // The monitor then maps 0x10000 to page 4, and the second run's first
  // access must validate the slot again, not reuse the earlier run's pass.
  Assembler a(kUserCode);
  a.Ldr(R1, R3, 0);  // miss
  a.Ldr(R2, R3, 4);  // passes, and records it
  a.Str(R2, R3, 8);  // passes, and records it
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    WriteWords(m, Page(3), {0x111, 0x112});
    WriteWords(m, Page(4), {0x221, 0x222});
    for (const word expected : {word{0x112}, word{0x222}}) {
      EnterUser(m, kL1, kUserCode);
      m.r[3] = 0x10000;
      ASSERT_EQ(RunUntilException(m, 10), Exception::kSvc);
      EXPECT_EQ(m.r[2], expected) << "a load reused the previous run's translation";
      Map(m, 0x10000, Page(4), true, false);  // from the SVC handler
    }
    EXPECT_EQ(m.mem.Read(Page(3) + 8), 0x112u);
    EXPECT_EQ(m.mem.Read(Page(4) + 8), 0x222u);
  });
}

TEST(JitSecureUser, EveryTranslatedStoreBumpsItsPageGeneration) {
  // Ten laps of one chained block store twice into 0x10000 (page 3): the
  // first store of the run validates the slot, the other nineteen take the
  // stamped path. Each must bump the page's generation as PhysMemory::Write
  // does, so the count reads as on the interpreters.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.MovImm(R2, 10);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Str(R2, R3, 0);
  a.Str(R2, R3, 4);
  a.Subs(R2, R2, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kSvc);
  });
  for (const size_t k : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(ms[k]->mem.PageGen(Page(3)), ms[1]->mem.PageGen(Page(3))) << kRunnerNames[k];
  }
}

TEST(JitSecureUser, ProbeHitsOfARunThatEndsInADataAbortAreCounted) {
  // The block's first load misses, the next two hit, and the fourth aborts
  // (0x20000 is unmapped): the run leaves through the helper's exception
  // exit, which must still add its two probe hits to tlb_hits.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.MovImm(R4, 0x20000);
  a.Ldr(R1, R3, 0);
  a.Ldr(R1, R3, 4);
  a.Ldr(R1, R3, 8);
  a.Ldr(R2, R4, 0);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    EXPECT_EQ(RunUntilException(m, 100), Exception::kDataAbort);
  });
  if (jit::Available()) {
    // One dispatch fetch (a miss), then a miss, two hits and the abort's miss.
    const InterpCacheStats& js = ms[0]->interp.stats();
    EXPECT_EQ(js.tlb_hits, 2u);
    EXPECT_EQ(js.tlb_misses, 3u);
  }
}

TEST(JitSecureUser, CachedRegisterWritesReachTheRegisterFileAtEveryExit) {
  // r0 and r1 are named often enough that each block keeps them in host
  // registers, and each block writes them before it leaves: by a data
  // abort from LDR and from a misaligned LDM, by a restart after STR and
  // after an STM whose base (r3, cached) it writes back, by an LDM that
  // loads the PC, and by chained laps of a loop. The register file must be
  // the interpreters' at every exit. A first block loads from 0x10000, so
  // that the PC-loading LDM's transfers hit and call no helper.
  const auto prologue = [](Assembler& a) {
    a.Add(R0, R0, 1);
    a.Add(R0, R0, R0);
    a.Add(R1, R1, R0);
    a.Add(R1, R1, 3);
  };
  enum class Leave { kLdrAbort, kLdmAbort, kStrRestart, kStmRestart, kLdmPc, kChained };
  for (const Leave how : {Leave::kLdrAbort, Leave::kLdmAbort, Leave::kStrRestart,
                          Leave::kStmRestart, Leave::kLdmPc, Leave::kChained}) {
    SCOPED_TRACE(static_cast<int>(how));
    vaddr target = 0;
    std::vector<word> code;
    for (int pass = 0; pass < 2; ++pass) {
      Assembler a(kUserCode);
      Assembler::Label loop = a.NewLabel();
      a.Ldr(R8, R7, 0);
      a.B(loop);
      a.Bind(loop);
      prologue(a);
      switch (how) {
        case Leave::kLdrAbort:
          a.Ldr(R2, R5, 0);  // r5 = 0x20000, unmapped
          break;
        case Leave::kLdmAbort:
          a.Ldmia(R6, 0b0000'0000'0000'1100);  // r6 = 0x10002, misaligned
          break;
        case Leave::kStrRestart:
          a.Str(R4, R3, 0);
          break;
        case Leave::kStmRestart:
          a.Add(R3, R3, 0);
          a.Stmia(R3, 0b0000'0000'0001'0000, /*writeback=*/true);  // r4
          break;
        case Leave::kLdmPc:
          a.Ldmia(R7, 0b1000'0000'0000'0100);  // r2, pc from 0x10000
          break;
        case Leave::kChained:
          a.Subs(R2, R2, 1);
          a.B(loop, Cond::kNe);
          break;
      }
      const vaddr here = a.CurrentAddr();
      a.MovImm(R2, 1);  // the restart cases rewrite this to ADD R2, R2, #2
      a.Svc();
      code = a.Finish();
      target = here;
    }
    RunThreeWays([&](MachineState& m) {
      Map(m, kUserCode, Page(2), /*writable=*/true, true);
      Map(m, 0x10000, Page(3), true, false);
      WriteWords(m, Page(2), code);
      WriteWords(m, Page(3), {7, target});
      EnterUser(m, kL1, kUserCode);
      m.r[0] = 5;
      m.r[1] = 9;
      m.r[2] = 4;
      m.r[3] = target;
      m.r[4] = Encode(AddImm(R2, 2));
      m.r[5] = 0x20000;
      m.r[6] = 0x10002;
      m.r[7] = 0x10000;
      const std::optional<Exception> e = RunUntilException(m, 200);
      EXPECT_EQ(e, how == Leave::kLdrAbort || how == Leave::kLdmAbort
                       ? std::optional<Exception>(Exception::kDataAbort)
                       : std::optional<Exception>(Exception::kSvc));
    });
  }
}

// --- Chained transfers -------------------------------------------------------
//
// A block's static exit to its own page links lazily to the successor's
// entry point, which checks the code page's generation and the step budget
// before the successor runs (DESIGN.md §13). Each case runs three ways over
// the secure-user page table above.

Instruction MovImmInsn(Reg rd, word imm) {
  Instruction mov;
  mov.op = Op::kMov;
  mov.rd = rd;
  mov.op2 = Operand2::Imm(imm);
  return mov;
}

// Writes a short filler block to page 40 (on every runner, so memory stays
// equal) and, with the JIT on, translates it on `m`'s engine at fresh VAs,
// outside the guest's view, until `done()`.
constexpr paddr kFiller = Page(40);

void TranslateFillers(MachineState& m, const std::function<bool()>& done) {
  Assembler a(0);
  for (int k = 0; k < 8; ++k) {
    a.Add(R0, R0, 1);
  }
  a.Svc();
  WriteWords(m, kFiller, a.Finish());
  if (m.exec_mode() != ExecMode::kJit) {
    return;
  }
  jit::Engine* eng = m.jit.GetEngine();
  ASSERT_NE(eng, nullptr);
  // A fresh VA makes every lookup a new translation.
  for (vaddr va = 0x40'0000; !done(); va += kPageSize) {
    ASSERT_NE(eng->LookupOrTranslate(m, kFiller, va, m.jit.mutable_stats()), nullptr);
  }
}

// Fills the code buffer until a translation of `next_bytes` bytes no longer
// fits, without flushing it.
void FillCodeCacheBelow(MachineState& m, size_t next_bytes) {
  const uint64_t flushes = m.jit.stats().code_cache_flushes;
  TranslateFillers(m, [&] { return m.jit.GetEngine()->free_bytes() < next_bytes; });
  ASSERT_LT(jit::CompileBlock(m.mem, 0, kFiller).code.size(), next_bytes);
  ASSERT_EQ(m.jit.stats().code_cache_flushes, flushes);
}

TEST(JitChain, BlockChainsToItself) {
  // One block, its conditional branch back to its own head: after the first
  // lap links the site, every lap is a chained transfer.
  Assembler a(kUserCode);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 3);
  a.Subs(R1, R1, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[1] = 100;
    EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[0], 300u);
  });
  if (jit::Available()) {
    const jit::JitStats& st = ms[0]->jit.stats();
    EXPECT_EQ(st.block_hits, 100u);
    EXPECT_EQ(st.chained, 98u) << "laps after the first link should skip the dispatcher";
  }
}

TEST(JitChain, BudgetRunsOutMidChainWithExactStepCounts) {
  // A cycle of three chained blocks of lengths 3, 2 and 2, run under budgets
  // that end inside a block, at a block's end, and inside a chain. Each
  // RunUntilException(m, n) must retire exactly n steps. The first run ends
  // exactly at the end of `top`, leaving its site unlinked, and the host
  // then sends the pc elsewhere on the page: the next dispatch must not link
  // top's site to that block.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label mid = a.NewLabel();
  Assembler::Label bottom = a.NewLabel();
  Assembler::Label other = a.NewLabel();
  a.Bind(top);
  a.Add(R0, R0, 1);
  a.Add(R1, R1, 2);
  a.B(mid);
  a.Bind(mid);
  a.Add(R2, R2, 3);
  a.B(bottom);
  a.Bind(bottom);
  a.Subs(R3, R3, 1);
  a.B(top, Cond::kNe);
  a.Svc();
  a.Bind(other);
  a.Add(R4, R4, 1);
  a.B(top);
  const std::vector<word> code = a.Finish();
  const vaddr other_va = a.AddrOf(other);
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[3] = 100'000;
    uint64_t expected = 0;
    ASSERT_EQ(RunUntilException(m, 3), std::nullopt);
    expected += 3;
    ASSERT_EQ(m.pc, kUserCode + 12);
    m.pc = other_va;
    for (const uint64_t budget : {uint64_t{2}, uint64_t{7}, uint64_t{1}, uint64_t{108},
                                  uint64_t{5}, uint64_t{1000}, uint64_t{333}}) {
      // A run past its budget leaves the loop; stop before a later run does
      // so without end.
      ASSERT_EQ(RunUntilException(m, budget), std::nullopt);
      expected += budget;
      ASSERT_EQ(m.steps_retired, expected) << "budget " << budget;
    }
    EXPECT_EQ(m.r[4], 1u) << "top's exit ran `other` again";
    // After top's first run and `other`'s 2 steps, a lap starts at top's ADD
    // every 7 steps.
    const uint64_t cycle_steps = expected - 3 - 2;
    EXPECT_EQ(m.r[0], 1 + (cycle_steps + 6) / 7) << "laps of top";
  });
  if (jit::Available()) {
    EXPECT_GT(ms[0]->jit.stats().chained, 200u);
  }
}

TEST(JitChain, HelperStoreElsewhereInThePageMakesLinkedSuccessorStale) {
  // The code page is writable, so the store probe refuses it and every store
  // into it takes the helper. Once the two blocks run linked to each other,
  // `top` rewrites `body`'s first instruction, outside its own words, so
  // nothing restarts: only the generation bump says that the body block
  // top's site links to is stale.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label body = a.NewLabel();
  a.Bind(top);
  a.Cmp(R6, 5);
  a.Str(R4, R3, 0, Cond::kEq);
  a.B(body);
  a.Bind(body);
  a.Add(R0, R0, 1);  // ADD R0, R0, #2 from the lap with r6 == 5 on
  a.Subs(R6, R6, 1);
  a.B(top, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), /*writable=*/true, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[3] = a.AddrOf(body);
    m.r[4] = Encode(AddImm(R0, 2));
    m.r[6] = 20;
    EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[0], 15u + 2 * 5u) << "a stale body block replayed the old ADD";
  });
  if (jit::Available()) {
    EXPECT_GT(ms[0]->jit.stats().chained, 20u);
    EXPECT_GT(ms[0]->jit.stats().block_invalidations, 0u);
  }
}

TEST(JitChain, ChainedSuccessorRestartsOnAStoreIntoItsOwnWords) {
  // Lap 3 enters `body` by a chained transfer, and its store rewrites an
  // instruction later in `body`: the restart range the store helper checks
  // must be body's own, set at its entry, not the dispatched block's.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label body = a.NewLabel();
  a.Bind(top);
  a.Add(R5, R5, 1);
  a.B(body);
  a.Bind(body);
  a.Cmp(R5, 3);
  a.Str(R4, R3, 0, Cond::kEq);
  const vaddr target = a.CurrentAddr();
  a.MovImm(R0, 1);  // MOV R0, #2 from lap 3 on
  a.Add(R1, R1, R0);
  a.Cmp(R5, 6);
  a.B(top, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), /*writable=*/true, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[3] = target;
    m.r[4] = Encode(MovImmInsn(R0, 2));
    EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[1], 10u) << "the chained block ran its stale translated tail";
  });
  if (jit::Available()) {
    EXPECT_GT(ms[0]->jit.stats().chained, 0u);
  }
}

TEST(JitChain, FlushWhileLinksExistRetranslates) {
  // The loop's blocks are linked to each other when the host fills the code
  // buffer and the next translation flushes it; the bytes the links pointed
  // into then hold other code. The second run must retranslate the loop,
  // not follow an old link.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label body = a.NewLabel();
  a.Bind(top);
  a.Add(R0, R0, 1);
  a.B(body);
  a.Bind(body);
  a.Add(R1, R1, R0);
  a.Subs(R2, R2, 1);
  a.B(top, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[2] = 10;
    ASSERT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    // Translate until the buffer flushes, and 16 fillers more, which
    // overwrite the loop's old bytes from the start of the buffer.
    uint64_t after_flush = 0;
    TranslateFillers(m, [&] {
      return m.jit.stats().code_cache_flushes == 1 && ++after_flush > 16;
    });
    EnterUser(m, kL1, kUserCode);
    m.r[2] = 10;
    ASSERT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[0], 20u);
    EXPECT_EQ(m.r[1], 55u + 155u);
  });
  if (jit::Available()) {
    // Each run dispatches top, body and top again, linking both sites, and
    // chains the other 17 of its 20 block entries.
    EXPECT_EQ(ms[0]->jit.stats().chained, 34u);
  }
}

TEST(JitChain, SuccessorsOwnTranslationFlushesTheCache) {
  // `top`, the first block of the engine, exits through its site when the
  // code buffer has no room left for `big`: big's translation flushes and
  // lands at the start of the buffer, over top's bytes. The site is then
  // not top's any more, and writing the link into it would corrupt big.
  Assembler a(kUserCode);
  Assembler::Label big = a.NewLabel();
  a.Add(R0, R0, 1);
  a.B(big);
  a.Bind(big);
  for (int k = 0; k < 63; ++k) {
    a.Add(static_cast<Reg>(1 + k % 8), static_cast<Reg>(1 + k % 8), k + 1);
  }
  a.Svc();
  const std::vector<word> code = a.Finish();
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    ASSERT_EQ(RunUntilException(m, 2), std::nullopt);  // top, up to its site
    FillCodeCacheBelow(m, jit::CompileBlock(m.mem, a.AddrOf(big), Page(2) + 8).code.size());
    EXPECT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.steps_retired, 66u);
  });
  if (jit::Available()) {
    EXPECT_EQ(ms[0]->jit.stats().code_cache_flushes, 1u);
  }
}

TEST(JitChain, ResetBetweenRunsDropsLinks) {
  // A fuzz-pool style reset: run (links made), rewrite a linked block from
  // the host, run, reset to the snapshot, run again. Each run must execute
  // the code that is in memory at the time.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label body = a.NewLabel();
  a.Bind(top);
  a.Add(R0, R0, 1);
  a.B(body);
  a.Bind(body);
  const vaddr patched = a.CurrentAddr();
  a.Add(R1, R1, 1);  // ADD R1, R1, #5 between the first and second run
  a.Subs(R2, R2, 1);
  a.B(top, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    EnterUser(m, kL1, kUserCode);
    m.r[2] = 10;
    const MachineState snapshot = m;
    const auto run = [&m](word expected_r1) {
      ASSERT_EQ(RunUntilException(m, 1000), Exception::kSvc);
      EXPECT_EQ(m.r[1], expected_r1);
      EnterUser(m, kL1, kUserCode);
      m.r[1] = 0;
      m.r[2] = 10;
    };
    run(10);
    m.mem.Write(Page(2) + (patched - kUserCode), Encode(AddImm(R1, 5)));
    run(50);
    m.ResetTo(snapshot);
    run(10);
  });
}

TEST(JitChain, SuccessorOnTheNextPageIsDispatched) {
  // 0x8ff8's block falls through to 0x9000 and 0x9000's block branches back
  // to 0x8ff8: both edges cross a virtual page, whose physical pages (2 and
  // 5) are far apart. Neither chains. The monitor then points 0x9000 at page
  // 6, which holds other code, and the next run must execute it.
  constexpr vaddr kNext = kUserCode + kPageSize;
  const auto program = [](bool page6) {
    Assembler a(kNext - 8);
    Assembler::Label back = a.NewLabel();
    a.Bind(back);
    a.Add(R0, R0, 1);
    a.Add(R3, R3, 1);
    if (page6) {
      a.Add(R1, R1, 100);
    } else {
      a.Add(R1, R1, R0);
    }
    a.Subs(R2, R2, 1);
    a.B(back, Cond::kNe);
    a.Svc();
    return a.Finish();
  };
  const std::vector<word> code5 = program(false);
  const std::vector<word> code6 = program(true);
  const Machines ms = RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, kNext, Page(5), false, true);
    WriteWords(m, Page(2) + kPageSize - 8, {code5[0], code5[1]});
    WriteWords(m, Page(5), std::vector<word>(code5.begin() + 2, code5.end()));
    WriteWords(m, Page(6), std::vector<word>(code6.begin() + 2, code6.end()));
    EnterUser(m, kL1, kNext - 8);
    m.r[2] = 10;
    ASSERT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[1], 55u);
    Map(m, kNext, Page(6), false, true);
    EnterUser(m, kL1, kNext - 8);
    m.r[1] = 0;
    m.r[2] = 10;
    ASSERT_EQ(RunUntilException(m, 1000), Exception::kSvc);
    EXPECT_EQ(m.r[1], 1000u) << "a link crossed the page into the old mapping";
  });
  if (jit::Available()) {
    EXPECT_EQ(ms[0]->jit.stats().chained, 0u);
  }
}

TEST(JitChain, RemapBetweenRunsDoesNotLinkAcrossPhysicalPages) {
  // The first run ends exactly at `top`'s unlinked site. The monitor then
  // maps the code's virtual page to page 6, whose `body` differs, and the
  // second run starts at body: its block is on page 6, not on top's page 2,
  // so the pending link must not be written. The third run, back on page 2,
  // must execute page 2's body.
  Assembler a(kUserCode);
  Assembler::Label top = a.NewLabel();
  Assembler::Label body = a.NewLabel();
  a.Bind(top);
  a.Add(R0, R0, 1);
  a.B(body);
  a.Bind(body);
  const vaddr body_va = a.CurrentAddr();
  a.Add(R1, R1, 1);  // ADD R1, R1, #7 on page 6
  a.Svc();
  const std::vector<word> code = a.Finish();
  std::vector<word> code6 = code;
  code6[(body_va - kUserCode) / kWordSize] = Encode(AddImm(R1, 7));
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    WriteWords(m, Page(2), code);
    WriteWords(m, Page(6), code6);
    EnterUser(m, kL1, kUserCode);
    ASSERT_EQ(RunUntilException(m, 2), std::nullopt);
    ASSERT_EQ(m.pc, body_va);
    Map(m, kUserCode, Page(6), false, true);
    EnterUser(m, kL1, body_va);
    ASSERT_EQ(RunUntilException(m, 100), Exception::kSvc);
    EXPECT_EQ(m.r[1], 7u);
    Map(m, kUserCode, Page(2), false, true);
    EnterUser(m, kL1, kUserCode);
    ASSERT_EQ(RunUntilException(m, 100), Exception::kSvc);
    EXPECT_EQ(m.r[1], 8u) << "top's site was linked to page 6's body";
    EXPECT_EQ(m.r[0], 2u) << "runs of top";
  });
}

// --- Emitted code size --------------------------------------------------------

TEST(JitCodeSize, ShippedProgramsStayCompact) {
  // Bytes of x64 per translated A32 instruction, over a block starting at
  // every word of every shipped program. Bigger blocks fill the 2 MB code
  // cache sooner, and serve-churn, which translates about 1.24 blocks per
  // Enter, pays for every flush (DESIGN.md §13).
  constexpr double kMaxBytesPerInsn = 75.5;
  uint64_t bytes = 0;
  uint64_t words = 0;
  uint64_t blocks = 0;
  for (const enclave::ShippedProgram& p : enclave::ShippedPrograms()) {
    PhysMemory mem(8);
    for (word k = 0; k < p.code.size(); ++k) {
      mem.Write(Page(2) + k * kWordSize, p.code[k]);
    }
    for (word k = 0; k < p.code.size(); ++k) {
      const jit::CompiledBlock b =
          jit::CompileBlock(mem, os::kEnclaveCodeVa + k * kWordSize, Page(2) + k * kWordSize);
      if (b.len_words != 0) {
        bytes += b.code.size();
        words += b.len_words;
        ++blocks;
      }
    }
  }
  ASSERT_GT(words, 0u);
  const double per_insn = static_cast<double>(bytes) / static_cast<double>(words);
  std::printf("%llu bytes over %llu words in %llu blocks: %.2f bytes per A32 instruction\n",
              static_cast<unsigned long long>(bytes), static_cast<unsigned long long>(words),
              static_cast<unsigned long long>(blocks), per_insn);
  EXPECT_LE(per_insn, kMaxBytesPerInsn);
}

TEST(JitSecureUser, DirtyTrackedResetAfterTranslatedStoresMatchesTheSnapshot) {
  // A memory tracks its dirty pages, and a reset to a snapshot restores only
  // those. Every store page is first warmed by a load, and page 4 is not on
  // the dirty list when the run starts, so a probe that served its first
  // store inline would leave the page off the list, and the reset would keep
  // the store.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.MovImm(R4, 0x11000);
  a.MovImm(R12, 4);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Ldr(R1, R3, 0);
  a.Ldr(R2, R4, 0);
  a.Str(R12, R3, 8);
  a.Strb(R12, R4, 3);
  a.Stmia(R4, 0b0001'0000'0000'0110);  // r1, r2, r12
  a.Subs(R12, R12, 1);
  a.B(loop, Cond::kNe);
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    Map(m, 0x11000, Page(4), true, false);
    WriteWords(m, Page(2), code);
    m.mem.Write(Page(3), 0x5a5a);
    EnterUser(m, kL1, kUserCode);
    const MachineState snapshot = m;
    EXPECT_EQ(RunUntilException(m, 200), Exception::kSvc);
    ASSERT_NE(m.mem.Read(Page(3) + 8), 0u);
    m.ResetTo(snapshot);
    const MachineState fresh = snapshot;
    for (const std::string& diff : fuzz::MachineDiff(m, fresh)) {
      ADD_FAILURE() << "reset vs fresh copy: " << diff;
    }
    EXPECT_EQ(m.mem.Read(Page(3) + 8), 0u) << "an untracked store survived the reset";
  });
}

TEST(JitSecureUser, FirstStoreToAnUnlistedPageTakesTheHelperAndListsIt) {
  // A reset empties the dirty list. The load fills the data page's
  // micro-TLB slot, yet the first store into the page must take the helper,
  // whose PhysMemory::Write puts the page on the list; the second is served
  // inline. The next reset must then restore the page.
  Assembler a(kUserCode);
  a.MovImm(R3, 0x10000);
  a.Ldr(R1, R3, 0);  // miss: fills the slot
  a.Str(R1, R3, 4);  // miss: the page is not on the dirty list
  a.Str(R1, R3, 8);  // passes
  a.Svc();
  const std::vector<word> code = a.Finish();
  RunThreeWays([&](MachineState& m) {
    Map(m, kUserCode, Page(2), false, true);
    Map(m, 0x10000, Page(3), true, false);
    WriteWords(m, Page(2), code);
    WriteWords(m, Page(3), {0x5a5a});
    EnterUser(m, kL1, kUserCode);
    const MachineState snapshot = m;
    m.ResetTo(snapshot);
    ASSERT_TRUE(m.mem.dirty_pages().empty());
    ASSERT_EQ(RunUntilException(m, 10), Exception::kSvc);
    EXPECT_EQ(m.mem.Read(Page(3) + 8), 0x5a5au);
    if (m.exec_mode() == ExecMode::kJit) {
      EXPECT_EQ(m.jit.stats().helper_accesses, 2u) << "the load and the first store";
    }
    const std::vector<uint32_t>& dirty = m.mem.dirty_pages();
    EXPECT_NE(std::find(dirty.begin(), dirty.end(), m.mem.PageIndexOf(Page(3))), dirty.end());
    m.ResetTo(snapshot);
    const MachineState fresh = snapshot;
    for (const std::string& diff : fuzz::MachineDiff(m, fresh)) {
      ADD_FAILURE() << "reset vs fresh copy: " << diff;
    }
  });
}

}  // namespace
}  // namespace komodo::arm
