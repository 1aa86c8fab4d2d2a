// A32 basic-block → x64 translator (DESIGN.md §13).
//
// Each translated instruction retires exactly like one interpreter Step():
// it retires one step, evaluates its condition against the live CPSR bytes,
// charges the calibrated Cortex-A7 cycle costs, and applies its
// architectural effects through the same rules execute.cc implements —
// including PC-as-operand = insn_addr + 8, banked SP/LR access indexed by the
// current mode byte, the ARM↔x64 carry-polarity flip on subtraction, and the
// exact shifter-carry semantics of every immediate-shift form.
//
// Memory accesses call a probe stub that serves micro-TLB hits from emitted
// code (EmitStubs below); a miss takes a cold path, laid out after the
// block body, through a call stub into the runtime helpers, which reuse
// TranslateAddress and the live-page-table store hook, so faults, TrustZone
// filtering and TLB consistency behave bit-identically to the interpreter.
//
// Step and cycle charges are compile-time sums, written to steps_retired and
// cycles only where control can leave the straight-line run: at every block
// exit (a helper that leaves the block charges the sum owed at its access)
// and where the two paths of a conditional instruction merge. Nothing reads
// either counter mid-block, and TakeException only adds to cycles, so the
// totals at every exit match per-instruction charging exactly.
//
// A block's exits to a static target on its own page are chain sites
// (jit_internal.h), which the dispatcher links to the successor's entry
// point. Every entry point, dispatched or chained, first checks the code
// page's generation and the step budget (DESIGN.md §13).
//
// Register plan inside a block (System V x64):
//   rbx = MachineState*   rbp = JitRt + kRtBias   r15 = probe hits this run
//   rcx, rdx, r8-r14 = cached guest registers: up to nine of r0-r12, the
//                      ones the block names most often (at least twice)
//   eax = result / probe output   esi = access VA   edi = operand2 / scratch
// The cached registers are loaded at the entry point, after its checks. Data
// processing on them is two-address x64 (`add r9d, r10d` for ADD r9, r9,
// r10). They are written back to MachineState at every exit, chain sites
// included, and by the block's one shared write-back routine, which every
// cold path calls before its helper: so a helper, and the exception and
// restart exits after it, see the whole register file. The helper call
// stubs keep every host register but eax and edi, so the cached values
// survive the call. SP and LR stay banked in MachineState and the NZCV flags
// stay bytes in the CPSR.
#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "src/arm/cycle_model.h"
#include "src/arm/isa.h"
#include "src/arm/machine.h"
#include "src/jit/jit_internal.h"
#include "src/jit/x64_emitter.h"

namespace komodo::jit {

namespace {

using arm::Cond;
using arm::Instruction;
using arm::Op;
using arm::Reg;
using arm::ShiftKind;
using arm::word;

const arm::CycleCosts& kCosts = arm::kCortexA7Costs;

// A block's code buffer is reserved up front at this many bytes per A32
// instruction plus a fixed part, which 394 of the 433 blocks compiled from
// the words of the shipped programs fit (JitCodeSize); the rest grow it.
constexpr size_t kReserveBase = 64;
constexpr size_t kReservePerInsn = 48;

bool IsLogical(Op op) {
  switch (op) {
    case Op::kAnd:
    case Op::kTst:
    case Op::kEor:
    case Op::kTeq:
    case Op::kOrr:
    case Op::kMov:
    case Op::kBic:
    case Op::kMvn:
      return true;
    default:
      return false;
  }
}

// True if the instruction ends a basic block by writing the PC. The
// exception-return idiom never reaches here (not Jitable).
bool IsTerminator(const Instruction& i) {
  return i.op == Op::kB || i.op == Op::kBl || arm::WritesPcIndirectly(i);
}

// The hot subset the translator handles; everything else falls back to the
// interpreter per instruction. PC-as-operand forms that read the *raw* PC in
// the interpreter (ReadReg(PC) mid-step) are excluded rather than modelled.
bool Jitable(const Instruction& i) {
  if (arm::IsDataProcessing(i.op)) {
    return !arm::IsExceptionReturn(i);
  }
  switch (i.op) {
    case Op::kMul:
      return i.rd != arm::PC && i.rn != arm::PC && i.rm != arm::PC;
    case Op::kMovw:
    case Op::kMovt:
      return i.rd != arm::PC;
    case Op::kLdr:
    case Op::kStr:
      return !(i.mem_reg_offset && i.rm == arm::PC);
    case Op::kLdrb:
    case Op::kStrb:
      return i.rd != arm::PC && !(i.mem_reg_offset && i.rm == arm::PC);
    case Op::kLdm:
    case Op::kStm:
      return i.rn != arm::PC;
    case Op::kB:
    case Op::kBl:
      return true;
    case Op::kBx:
      return i.rm != arm::PC;
    default:
      return false;  // traps, PSR/CP15 moves: interpreter only
  }
}

// Where an operand's value is: an immediate, a host register, or a 32-bit
// guest-register slot at [rbx + disp].
struct Src {
  enum Kind : uint8_t { kImm, kReg, kMem };
  Kind kind = kImm;
  uint32_t imm = 0;
  int reg = 0;
  int32_t disp = 0;

  static Src Imm(uint32_t v) { return {kImm, v, 0, 0}; }
  static Src Reg(int r) { return {kReg, 0, r, 0}; }
  static Src Mem(int32_t d) { return {kMem, 0, 0, d}; }
  bool IsReg(int r) const { return kind == kReg && reg == r; }
};

// Host registers that hold cached guest registers, in allocation order.
constexpr int kCacheHosts[] = {RCX, RDX, R8, R9, R10, R11, R12, R13, R14};
constexpr size_t kMaxCached = sizeof(kCacheHosts) / sizeof(kCacheHosts[0]);
// A guest register is cached only when the block names it this often: a
// cached register costs a load at entry, and a store at each exit and in the
// write-back routine once written.
constexpr int kMinCachedUses = 2;

int32_t GuestDisp(Reg r) { return kOffR + 4 * static_cast<int32_t>(r); }
uint16_t Bit(Reg r) { return static_cast<uint16_t>(1u << r); }

class BlockCompiler {
 public:
  CompiledBlock Compile(const arm::PhysMemory& mem, arm::vaddr va, arm::paddr phys);

 private:
  using Alu = X64Emitter::Alu;
  using Sh = X64Emitter::Sh;
  // The carry an arithmetic op reads: none, ARM C (ADC), or NOT C (SBC/RSC).
  enum class CarryIn { kNone, kC, kNotC };

  // Steps and cycles retired on the current path but not yet written.
  struct Charges {
    uint64_t steps = 0;
    uint64_t cycles = 0;
  };

  // An out-of-line path, emitted after the block body: entered by the hit
  // path's jump at `entry`, it runs `emit` and, unless it always exits,
  // rejoins the body at `resume`.
  struct ColdPath {
    size_t entry;
    size_t resume;
    bool rejoins;
    std::function<void()> emit;
  };

  // Picks the guest registers the block keeps in host registers.
  void AllocateRegisters(const std::vector<Instruction>& insns);
  bool Cached(Reg r) const { return r < arm::SP && host_[r] >= 0; }
  void MarkWritten(Reg r) {
    dirty_ |= Bit(r);
    written_ |= Bit(r);
  }
  // The reject path, the entry point's checks, then the cached registers' loads.
  void EmitEntry(word va, arm::paddr phys, uint32_t gen, uint32_t len_words);
  void EmitJmpStub(StubKind k) { e_.JmpMem(RBP, StubOff(k)); }
  void EmitCharges(const Charges& c);
  // Stores the cached registers in `regs` to MachineState.
  void EmitWriteBack(uint16_t regs);
  // Calls the block's shared write-back routine (every written cached
  // register), emitted between the body and the cold paths.
  void CallWriteBack();
  // Writes back the dirty registers and the pending charges, and leaves the
  // block; m->pc is already set.
  void EmitExit();
  // The same, for `target`: through a chain site when the target is on the
  // block's page, else the plain exit.
  void EmitStaticExit(word target);
  void Charge(uint64_t cycles) { pending_.cycles += cycles; }
  // Queues the cold path entered through the fixup `entry`; one that
  // rejoins resumes at the current offset.
  void Defer(size_t entry, bool rejoins, std::function<void()> emit);
  // One transfer of the instruction at `va`, to or from the address in esi:
  // the probe call, the hit path, and a deferred miss path through the
  // helper's call stub. A load leaves the value in eax; a store stores guest
  // register `rd` (insn_addr + 8 for the PC).
  void EmitTransfer(StubKind probe, Reg rd, word va, bool exit_on_restart);

  // Operand access. `scratch` receives a banked SP/LR.
  Src Operand(Reg r, word va, int scratch);
  void MovFrom(int dst, const Src& s);
  void AluFrom(Alu op, int dst, const Src& s);
  void LoadBanked(int dst, Reg r);
  // Writes host register `src` to guest register r (not the PC); `idx` is a
  // scratch other than `src` for a banked register's mode index.
  void WriteGuest(Reg r, int src, int idx);
  void EmitCarryIn(CarryIn c);
  // rd = first OP second, with the x64 flags of the operation left set.
  void EmitAluInto(Reg rd, Alu op, Src first, Src second, bool commutative, CarryIn c);

  std::vector<size_t> EmitCondFail(Cond c);
  Src EmitOperand2(const Instruction& i, word va, bool write_carry);
  void EmitInsn(const Instruction& i, word va);
  void EmitDataProcessing(const Instruction& i, word va);
  void EmitMul(const Instruction& i, word va);
  void EmitMovwMovt(const Instruction& i, word va);
  void EmitMemSingle(const Instruction& i, word va);
  void EmitBlockTransfer(const Instruction& i, word va);
  void EmitBranch(const Instruction& i, word va);

  X64Emitter e_;
  Charges pending_;
  std::vector<ColdPath> cold_;
  word page_va_ = 0;   // the virtual page the block's code lies in
  size_t entry_ = 0;  // offset of the entry point, after the reject path
  std::array<int, arm::SP> host_;  // host register of each cached guest register, else -1
  uint16_t written_ = 0;  // cached registers the block writes (complete once the body is)
  uint16_t dirty_ = 0;    // cached registers written on the current path
  size_t write_back_ = 0;  // offset of the write-back routine
};

void BlockCompiler::AllocateRegisters(const std::vector<Instruction>& insns) {
  std::array<int, arm::SP> uses{};
  const auto name = [&](Reg r) {
    if (r < arm::SP) {
      ++uses[r];
    }
  };
  for (const Instruction& i : insns) {
    if (arm::IsDataProcessing(i.op)) {
      if (arm::ReadsRn(i.op)) {
        name(i.rn);
      }
      if (!i.op2.is_imm) {
        name(i.op2.rm);
      }
      if (!arm::IsCompare(i.op)) {
        name(i.rd);
      }
      continue;
    }
    switch (i.op) {
      case Op::kMul:
        name(i.rm);
        name(i.rn);
        name(i.rd);
        break;
      case Op::kMovw:
      case Op::kMovt:
        name(i.rd);
        break;
      case Op::kLdr:
      case Op::kLdrb:
      case Op::kStr:
      case Op::kStrb:
        name(i.rn);
        name(i.rd);
        if (i.mem_reg_offset) {
          name(i.rm);
        }
        break;
      case Op::kLdm:
      case Op::kStm:
        name(i.rn);
        for (int r = 0; r < arm::SP; ++r) {
          if (((i.reg_list >> r) & 1) != 0) {
            name(static_cast<Reg>(r));
          }
        }
        break;
      case Op::kBx:
        name(i.rm);
        break;
      default:
        break;
    }
  }
  std::array<int, arm::SP> order;
  for (int r = 0; r < arm::SP; ++r) {
    order[r] = r;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return uses[a] > uses[b]; });
  host_.fill(-1);
  size_t n = 0;
  for (const int r : order) {
    if (n == kMaxCached || uses[r] < kMinCachedUses) {
      break;
    }
    host_[r] = kCacheHosts[n++];
  }
}

// The reject path comes first, so the checks branch back to it with rel8
// jumps. A failed check leaves as a plain exit to the block's own address:
// the dispatcher then retranslates a stale block, or interprets the steps
// the budget has left. No guest register is loaded before the checks pass.
void BlockCompiler::EmitEntry(word va, arm::paddr phys, uint32_t gen, uint32_t len_words) {
  const size_t reject = e_.size();
  e_.StoreMemImm32(RBX, kOffPc, va);
  EmitJmpStub(kStubExit);
  entry_ = e_.size();
  e_.LoadMem64(RAX, RBP, kRtOffCodeGen);
  e_.CmpMem32Imm(RAX, 0, gen);
  e_.JccBack(kCcNe, reject);
  // Only a block's last instruction can leave for a successor, so every
  // block entered since the dispatch retired its full length.
  e_.AluMem64Imm(Alu::kSub, RBP, kRtOffStepsLeft, len_words);
  e_.JccBack(kCcB, reject);
  e_.StoreMemImm32(RBP, kRtOffBlockPhysLo, phys);
  e_.StoreMemImm32(RBP, kRtOffBlockPhysHi, phys + 4 * len_words);
  e_.IncMem64(RBP, kRtOffEntries);
  for (int r = 0; r < arm::SP; ++r) {
    if (host_[r] >= 0) {
      e_.LoadMem32(host_[r], RBX, GuestDisp(static_cast<Reg>(r)));
    }
  }
}

void BlockCompiler::EmitCharges(const Charges& c) {
  if (c.steps != 0) {
    e_.AluMem64Imm(Alu::kAdd, RBX, kOffSteps, static_cast<uint32_t>(c.steps));
  }
  if (c.cycles != 0) {
    e_.AluMem64Imm(Alu::kAdd, RBX, kOffCycles, static_cast<uint32_t>(c.cycles));
  }
}

void BlockCompiler::EmitWriteBack(uint16_t regs) {
  for (int r = 0; r < arm::SP; ++r) {
    if (((regs >> r) & 1) != 0) {
      e_.StoreMem32(RBX, GuestDisp(static_cast<Reg>(r)), host_[r]);
    }
  }
}

void BlockCompiler::CallWriteBack() {
  if (written_ != 0) {
    e_.CallBack(write_back_);
  }
}

void BlockCompiler::EmitExit() {
  EmitWriteBack(dirty_);
  EmitCharges(pending_);
  EmitJmpStub(kStubExit);
}

void BlockCompiler::EmitStaticExit(word target) {
  EmitWriteBack(dirty_);
  EmitCharges(pending_);
  if (arm::PageBase(target) != page_va_) {
    e_.StoreMemImm32(RBX, kOffPc, target);
    EmitJmpStub(kStubExit);
    return;
  }
  [[maybe_unused]] const size_t site = e_.size();
  e_.CallMem(RBP, StubOff(kStubUnlinked));
  EmitJmpStub(kStubExit);
  assert(e_.size() - site == kChainTargetOff);
  e_.Data32(target);
}

void BlockCompiler::Defer(size_t entry, bool rejoins, std::function<void()> emit) {
  cold_.push_back({entry, e_.size(), rejoins, std::move(emit)});
}

void BlockCompiler::EmitTransfer(StubKind probe, Reg rd, word va, bool exit_on_restart) {
  const bool is_load = probe == kProbeLoadWord || probe == kProbeLoadByte;
  const bool is_byte = probe == kProbeLoadByte || probe == kProbeStoreByte;
  assert(pending_.steps < (1u << 16) && pending_.cycles < (1u << 16));
  const uint64_t site = PackSite(va, exit_on_restart, pending_.steps, pending_.cycles);
  e_.CallMem(RBP, StubOff(probe));
  const size_t miss = e_.JccForward(kCcE);
  // Hit: rax is the host address of the byte or word.
  if (is_load) {
    if (is_byte) {
      e_.LoadMemZx8(RAX, RAX, 0);
    } else {
      e_.LoadMem32(RAX, RAX, 0);
    }
  } else if (rd == arm::PC) {
    e_.StoreMemImm32(RAX, 0, va + 8);
  } else {
    Src v = Operand(rd, va, RDI);
    if (v.kind != Src::kReg) {
      MovFrom(RDI, v);
      v = Src::Reg(RDI);
    }
    if (is_byte) {
      e_.StoreMem8(RAX, 0, v.reg);
    } else {
      e_.StoreMem32(RAX, 0, v.reg);
    }
  }
  // Miss: the VA is still in esi. The helper charges the owed steps and
  // cycles only if it leaves the block.
  Defer(miss, /*rejoins=*/true, [this, probe, is_load, rd, va, site] {
    CallWriteBack();
    if (!is_load) {
      MovFrom(RDI, Operand(rd, va, RDI));
    }
    e_.MovRegImm64(RAX, site);
    e_.CallMem(RBP, StubOff(static_cast<StubKind>(probe + kCallFirst)));
  });
}

Src BlockCompiler::Operand(Reg r, word va, int scratch) {
  if (r == arm::PC) {
    return Src::Imm(va + 8);  // PC reads as the instruction address + 8
  }
  if (r < arm::SP) {
    return host_[r] >= 0 ? Src::Reg(host_[r]) : Src::Mem(GuestDisp(r));
  }
  LoadBanked(scratch, r);
  return Src::Reg(scratch);
}

void BlockCompiler::MovFrom(int dst, const Src& s) {
  switch (s.kind) {
    case Src::kImm:
      e_.MovRegImm32(dst, s.imm);
      break;
    case Src::kReg:
      if (s.reg != dst) {
        e_.MovRegReg32(dst, s.reg);
      }
      break;
    case Src::kMem:
      e_.LoadMem32(dst, RBX, s.disp);
      break;
  }
}

void BlockCompiler::AluFrom(Alu op, int dst, const Src& s) {
  switch (s.kind) {
    case Src::kImm:
      e_.AluRegImm32(op, dst, s.imm);
      break;
    case Src::kReg:
      e_.AluRegReg32(op, dst, s.reg);
      break;
    case Src::kMem:
      e_.AluRegMem32(op, dst, RBX, s.disp);
      break;
  }
}

// The banked SP/LR of the current mode; dst doubles as the mode index.
void BlockCompiler::LoadBanked(int dst, Reg r) {
  assert(r == arm::SP || r == arm::LR);
  e_.LoadMemZx8(dst, RBX, kOffMode);
  e_.LoadIndex32(dst, RBX, dst, r == arm::SP ? kOffSpBank : kOffLrBank);
}

void BlockCompiler::WriteGuest(Reg r, int src, int idx) {
  assert(r != arm::PC && idx != src);
  if (r < arm::SP) {
    if (host_[r] >= 0) {
      if (host_[r] != src) {
        e_.MovRegReg32(host_[r], src);
      }
      MarkWritten(r);
    } else {
      e_.StoreMem32(RBX, GuestDisp(r), src);
    }
    return;
  }
  e_.LoadMemZx8(idx, RBX, kOffMode);
  e_.StoreIndex32(RBX, idx, r == arm::SP ? kOffSpBank : kOffLrBank, src);
}

void BlockCompiler::EmitCarryIn(CarryIn c) {
  if (c == CarryIn::kNone) {
    return;
  }
  e_.CmpMem8Imm(RBX, kOffFlagC, 1);  // CF = NOT C, the x64 borrow
  if (c == CarryIn::kC) {
    e_.Cmc();
  }
}

// Two-address where the operands allow: rd == rn (or, commutatively, rd ==
// the second operand) is one x64 instruction on the cached register, or a
// read-modify-write of an uncached register's slot. Moves never touch the
// x64 flags, so the operation's flags survive the result's write.
void BlockCompiler::EmitAluInto(Reg rd, Alu op, Src first, Src second, bool commutative,
                                CarryIn c) {
  if (Cached(rd)) {
    const int h = host_[rd];
    if (!first.IsReg(h) && second.IsReg(h) && commutative) {
      std::swap(first, second);
    }
    if (second.IsReg(h) && !first.IsReg(h)) {
      MovFrom(RAX, first);
      EmitCarryIn(c);
      AluFrom(op, RAX, second);
      e_.MovRegReg32(h, RAX);
    } else {
      MovFrom(h, first);
      EmitCarryIn(c);
      AluFrom(op, h, second);
    }
    MarkWritten(rd);
    return;
  }
  if (rd < arm::SP && first.kind == Src::kMem && first.disp == GuestDisp(rd)) {
    if (second.kind == Src::kMem) {
      MovFrom(RAX, second);
      second = Src::Reg(RAX);
    }
    EmitCarryIn(c);
    if (second.kind == Src::kImm) {
      e_.AluMemImm32(op, RBX, first.disp, second.imm);
    } else {
      e_.AluMemReg32(op, RBX, first.disp, second.reg);
    }
    return;
  }
  // The result is computed in eax, or in edi when the second operand is a
  // banked rn already in eax (RSB/RSC).
  const int acc = second.IsReg(RAX) ? RDI : RAX;
  MovFrom(acc, first);
  EmitCarryIn(c);
  AluFrom(op, acc, second);
  if (rd == arm::PC) {
    MovFrom(RAX, Src::Reg(acc));  // the caller branches to eax
    return;
  }
  WriteGuest(rd, acc, acc == RAX ? RDI : RAX);
}

// Emits the condition test; returns fixups that jump when the condition
// FAILS (to be bound at the caller's cond-fail stub).
std::vector<size_t> BlockCompiler::EmitCondFail(Cond c) {
  std::vector<size_t> fails;
  const auto flag_is = [&](int32_t off) { e_.CmpMem8Imm(RBX, off, 0); };
  const auto n_vs_v = [&] {
    e_.LoadMem8(RAX, RBX, kOffFlagN);
    e_.CmpReg8Mem8(RAX, RBX, kOffFlagV);
  };
  switch (c) {
    case Cond::kAl:
      break;
    case Cond::kEq:
      flag_is(kOffFlagZ);
      fails.push_back(e_.JccForward(kCcE));
      break;
    case Cond::kNe:
      flag_is(kOffFlagZ);
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kCs:
      flag_is(kOffFlagC);
      fails.push_back(e_.JccForward(kCcE));
      break;
    case Cond::kCc:
      flag_is(kOffFlagC);
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kMi:
      flag_is(kOffFlagN);
      fails.push_back(e_.JccForward(kCcE));
      break;
    case Cond::kPl:
      flag_is(kOffFlagN);
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kVs:
      flag_is(kOffFlagV);
      fails.push_back(e_.JccForward(kCcE));
      break;
    case Cond::kVc:
      flag_is(kOffFlagV);
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kHi:  // C && !Z
      flag_is(kOffFlagC);
      fails.push_back(e_.JccForward(kCcE));
      flag_is(kOffFlagZ);
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kLs: {  // !C || Z
      flag_is(kOffFlagC);
      const size_t pass = e_.JccForward(kCcE);
      flag_is(kOffFlagZ);
      fails.push_back(e_.JccForward(kCcE));
      e_.BindForward(pass);
      break;
    }
    case Cond::kGe:  // N == V
      n_vs_v();
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kLt:  // N != V
      n_vs_v();
      fails.push_back(e_.JccForward(kCcE));
      break;
    case Cond::kGt:  // !Z && N == V
      flag_is(kOffFlagZ);
      fails.push_back(e_.JccForward(kCcNe));
      n_vs_v();
      fails.push_back(e_.JccForward(kCcNe));
      break;
    case Cond::kLe: {  // Z || N != V
      flag_is(kOffFlagZ);
      const size_t pass = e_.JccForward(kCcNe);
      n_vs_v();
      fails.push_back(e_.JccForward(kCcE));
      e_.BindForward(pass);
      break;
    }
  }
  return fails;
}

// Operand2's value, reproducing ApplyShift()'s value and carry semantics for
// every immediate-shift form (LSR/ASR #0 mean #32; ROR #0 is RRX). A shifted
// register is computed in edi. With `write_carry` (a flag-setting logical
// op, which reads no flag afterwards) the shifter carry goes straight to the
// C flag byte; otherwise C is left alone.
Src BlockCompiler::EmitOperand2(const Instruction& i, word va, bool write_carry) {
  const arm::Operand2& o = i.op2;
  if (o.is_imm) {
    const word v = o.ImmValue();
    if (write_carry && o.rot4 != 0) {
      e_.StoreMemImm8(RBX, kOffFlagC, static_cast<uint8_t>(v >> 31));
    }
    return Src::Imm(v);
  }
  const Src rm = Operand(o.rm, va, RDI);
  const unsigned amt = o.shift_imm;
  if (o.shift == ShiftKind::kLsl && amt == 0) {
    return rm;
  }
  MovFrom(RDI, rm);
  switch (o.shift) {
    case ShiftKind::kLsl:
      e_.ShiftRegImm32(Sh::kShl, RDI, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kLsr:
      if (amt == 0) {  // LSR #32: result 0, carry = bit 31
        if (write_carry) {
          e_.BtRegImm32(RDI, 31);
          e_.SetccMem8(kCcB, RBX, kOffFlagC);
        }
        e_.MovRegImm32(RDI, 0);
        return Src::Reg(RDI);
      }
      e_.ShiftRegImm32(Sh::kShr, RDI, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kAsr:
      if (amt == 0) {  // ASR #32: sign-fill, carry = bit 31
        if (write_carry) {
          e_.BtRegImm32(RDI, 31);
          e_.SetccMem8(kCcB, RBX, kOffFlagC);
        }
        e_.ShiftRegImm32(Sh::kSar, RDI, 31);
        return Src::Reg(RDI);
      }
      e_.ShiftRegImm32(Sh::kSar, RDI, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kRor:
      if (amt == 0) {  // RRX: rotate right through carry by one
        EmitCarryIn(CarryIn::kC);
        e_.ShiftRegImm32(Sh::kRcr, RDI, 1);
      } else {
        e_.ShiftRegImm32(Sh::kRor, RDI, static_cast<uint8_t>(amt));
      }
      break;
  }
  // x64 leaves CF = the last bit shifted/rotated out — exactly ARM's shifter
  // carry for every form above.
  if (write_carry) {
    e_.SetccMem8(kCcB, RBX, kOffFlagC);
  }
  return Src::Reg(RDI);
}

void BlockCompiler::EmitDataProcessing(const Instruction& i, word va) {
  Charge(kCosts.alu);
  const bool compare = arm::IsCompare(i.op);
  const bool flags = i.set_flags || compare;
  const bool logical = IsLogical(i.op);
  Src op2 = EmitOperand2(i, va, flags && logical);
  // The register whose value N and Z describe when the x64 op set no flags
  // (MOV, MVN); -1 once the flags are set.
  int result = -1;
  switch (i.op) {
    case Op::kMov:
    case Op::kMvn:
      if (i.op == Op::kMvn) {
        MovFrom(RDI, op2);
        e_.NotReg32(RDI);
        op2 = Src::Reg(RDI);
      }
      result = Cached(i.rd) ? host_[i.rd] : op2.kind == Src::kReg ? op2.reg : RAX;
      MovFrom(result, op2);
      if (i.rd == arm::PC) {
        MovFrom(RAX, Src::Reg(result));
      } else {
        WriteGuest(i.rd, result, result == RDI ? RAX : RDI);
      }
      break;
    case Op::kTst:
    case Op::kCmp: {
      const Alu op = i.op == Op::kTst ? Alu::kAnd : Alu::kCmp;
      Src rn = Operand(i.rn, va, RAX);
      if (rn.kind != Src::kReg) {
        MovFrom(RAX, rn);
        rn = Src::Reg(RAX);
      }
      if (op == Alu::kCmp) {
        AluFrom(Alu::kCmp, rn.reg, op2);
      } else if (op2.kind == Src::kImm) {
        e_.TestRegImm32(rn.reg, op2.imm);
      } else {
        if (op2.kind == Src::kMem) {
          MovFrom(RDI, op2);
        }
        e_.TestRegReg32(rn.reg, op2.kind == Src::kReg ? op2.reg : RDI);
      }
      break;
    }
    case Op::kTeq:
    case Op::kCmn:
      MovFrom(RAX, Operand(i.rn, va, RAX));
      AluFrom(i.op == Op::kTeq ? Alu::kXor : Alu::kAdd, RAX, op2);
      break;
    case Op::kBic:
      MovFrom(RDI, op2);
      e_.NotReg32(RDI);
      EmitAluInto(i.rd, Alu::kAnd, Operand(i.rn, va, RAX), Src::Reg(RDI), true,
                  CarryIn::kNone);
      break;
    case Op::kAnd:
    case Op::kEor:
    case Op::kOrr:
    case Op::kAdd:
    case Op::kAdc: {
      const Alu op = i.op == Op::kAnd   ? Alu::kAnd
                     : i.op == Op::kEor ? Alu::kXor
                     : i.op == Op::kOrr ? Alu::kOr
                     : i.op == Op::kAdd ? Alu::kAdd
                                        : Alu::kAdc;
      EmitAluInto(i.rd, op, Operand(i.rn, va, RAX), op2, true,
                  i.op == Op::kAdc ? CarryIn::kC : CarryIn::kNone);
      break;
    }
    case Op::kSub:
    case Op::kSbc:
      EmitAluInto(i.rd, i.op == Op::kSub ? Alu::kSub : Alu::kSbb, Operand(i.rn, va, RAX), op2,
                  false, i.op == Op::kSbc ? CarryIn::kNotC : CarryIn::kNone);
      break;
    case Op::kRsb:
    case Op::kRsc:  // rd = op2 - rn
      EmitAluInto(i.rd, i.op == Op::kRsb ? Alu::kSub : Alu::kSbb, op2, Operand(i.rn, va, RAX),
                  false, i.op == Op::kRsc ? CarryIn::kNotC : CarryIn::kNone);
      break;
    default:
      assert(false && "not a data-processing op");
      break;
  }
  if (flags) {
    if (logical) {
      if (result >= 0) {
        e_.TestRegReg32(result, result);
      }
      e_.SetccMem8(kCcS, RBX, kOffFlagN);
      e_.SetccMem8(kCcE, RBX, kOffFlagZ);
    } else {
      // ARM C on subtraction = NOT x64 borrow; on addition they agree.
      const bool add_family = i.op == Op::kAdd || i.op == Op::kCmn || i.op == Op::kAdc;
      e_.SetccMem8(add_family ? kCcB : kCcAe, RBX, kOffFlagC);
      e_.SetccMem8(kCcO, RBX, kOffFlagV);
      e_.SetccMem8(kCcS, RBX, kOffFlagN);
      e_.SetccMem8(kCcE, RBX, kOffFlagZ);
    }
  }
  if (!compare && i.rd == arm::PC) {
    // Branch by ALU result (in eax): raw value, no alignment masking
    // (execute.cc).
    e_.StoreMem32(RBX, kOffPc, RAX);
    Charge(kCosts.branch_taken);
    EmitExit();
  }
}

void BlockCompiler::EmitMul(const Instruction& i, word va) {
  Charge(kCosts.mul);
  const Src rm = Operand(i.rm, va, RDI);
  const Src rn = Operand(i.rn, va, RAX);
  const auto imul = [&](int dst, const Src& s) {
    if (s.kind == Src::kMem) {
      MovFrom(RDI, s);  // edi is free by now: rm is in dst or used up
    }
    e_.ImulRegReg32(dst, s.kind == Src::kReg ? s.reg : RDI);
  };
  const int result = Cached(i.rd) ? host_[i.rd] : RAX;
  if (rn.IsReg(result)) {
    imul(result, rm);
  } else {
    MovFrom(result, rm);
    imul(result, rn);
  }
  WriteGuest(i.rd, result, RDI);
  if (i.set_flags) {
    e_.TestRegReg32(result, result);
    e_.SetccMem8(kCcS, RBX, kOffFlagN);
    e_.SetccMem8(kCcE, RBX, kOffFlagZ);
  }
}

void BlockCompiler::EmitMovwMovt(const Instruction& i, word va) {
  Charge(kCosts.alu);
  const uint32_t imm16 = i.trap_imm & 0xffff;
  const int r = Cached(i.rd) ? host_[i.rd] : RAX;
  if (i.op == Op::kMovw) {
    e_.MovRegImm32(r, imm16);
  } else {
    MovFrom(r, Operand(i.rd, va, RAX));
    e_.AluRegImm32(Alu::kAnd, r, 0xffff);
    e_.AluRegImm32(Alu::kOr, r, imm16 << 16);
  }
  WriteGuest(i.rd, r, RDI);
}

void BlockCompiler::EmitMemSingle(const Instruction& i, word va) {
  const bool is_load = i.op == Op::kLdr || i.op == Op::kLdrb;
  const bool is_byte = i.op == Op::kLdrb || i.op == Op::kStrb;
  Charge(is_load ? kCosts.load : kCosts.store);
  MovFrom(RSI, Operand(i.rn, va, RSI));  // base (PC = va + 8)
  if (i.mem_reg_offset) {
    AluFrom(i.mem_add ? Alu::kAdd : Alu::kSub, RSI, Operand(i.rm, va, RDI));
  } else if (i.mem_imm12 != 0) {
    e_.AluRegImm32(i.mem_add ? Alu::kAdd : Alu::kSub, RSI, i.mem_imm12);
  }
  if (is_load) {
    EmitTransfer(is_byte ? kProbeLoadByte : kProbeLoadWord, i.rd, va,
                 /*exit_on_restart=*/false);
    if (!is_byte && i.rd == arm::PC) {
      e_.AluRegImm32(Alu::kAnd, RAX, ~3u);  // interworking unmodelled
      e_.StoreMem32(RBX, kOffPc, RAX);
      Charge(kCosts.branch_taken);
      EmitExit();
    } else {
      WriteGuest(i.rd, RAX, RDI);
    }
  } else {
    // STR with Rd = PC stores insn_addr + 8 (STRB with Rd = PC is not jitable).
    EmitTransfer(is_byte ? kProbeStoreByte : kProbeStoreWord, i.rd, va,
                 /*exit_on_restart=*/true);
  }
}

// esi walks the transfer addresses; the probes and the call stubs keep it.
void BlockCompiler::EmitBlockTransfer(const Instruction& i, word va) {
  const bool is_load = i.op == Op::kLdm;
  const uint32_t count = static_cast<uint32_t>(__builtin_popcount(i.reg_list));
  MovFrom(RSI, Operand(i.rn, va, RSI));
  if (i.mem_add) {
    if (i.block_pre) {
      e_.AluRegImm32(Alu::kAdd, RSI, 4);
    }
  } else {
    const uint32_t down = 4 * count - (i.block_pre ? 0 : 4);
    if (down != 0) {
      e_.AluRegImm32(Alu::kSub, RSI, down);
    }
  }
  // Alignment of the lowest address, checked before any per-transfer charge.
  e_.TestRegImm32(RSI, 3);
  const size_t misaligned = e_.JccForward(kCcNe);
  {
    const uint64_t site = PackSite(va, false, pending_.steps, pending_.cycles);
    Defer(misaligned, /*rejoins=*/false, [this, site] {
      CallWriteBack();
      e_.MovRegImm64(RAX, site);
      e_.CallMem(RBP, StubOff(kCallDataAbort));  // does not return
    });
  }

  bool first = true;
  for (int r = 0; r < 16; ++r) {
    if (((i.reg_list >> r) & 1) == 0) {
      continue;
    }
    if (!first) {
      e_.AluRegImm32(Alu::kAdd, RSI, 4);
    }
    first = false;
    Charge(is_load ? kCosts.load : kCosts.store);
    // STM with PC in the list stores insn_addr + 8.
    EmitTransfer(is_load ? kProbeLoadWord : kProbeStoreWord, static_cast<Reg>(r), va,
                 /*exit_on_restart=*/false);
    if (is_load && r != arm::PC) {
      WriteGuest(static_cast<Reg>(r), RAX, RDI);
    }
  }

  // LDM that also loads the base register wins over writeback. The base
  // still holds its value from before the transfers otherwise, and eax the
  // loaded PC.
  if (i.block_wback && !(is_load && ((i.reg_list >> i.rn) & 1) != 0)) {
    const Alu op = i.mem_add ? Alu::kAdd : Alu::kSub;
    if (Cached(i.rn)) {
      e_.AluRegImm32(op, host_[i.rn], 4 * count);
      MarkWritten(i.rn);
    } else if (i.rn < arm::SP) {
      e_.AluMemImm32(op, RBX, GuestDisp(i.rn), 4 * count);
    } else {
      LoadBanked(RDI, i.rn);
      e_.AluRegImm32(op, RDI, 4 * count);
      WriteGuest(i.rn, RDI, RSI);
    }
  }
  if (!is_load) {
    // A store helper may have flagged a restart; the STM still completes.
    e_.CmpMem8Imm(RBP, kRtOffRestart, 0);
    const size_t restart = e_.JccForward(kCcNe);
    const Charges owed = pending_;
    Defer(restart, /*rejoins=*/false, [this, va, owed] {
      CallWriteBack();
      e_.StoreMemImm32(RBX, kOffPc, va + 4);
      EmitCharges(owed);
      EmitJmpStub(kStubExit);
    });
  }
  if (is_load && ((i.reg_list >> arm::PC) & 1) != 0) {
    e_.AluRegImm32(Alu::kAnd, RAX, ~3u);
    e_.StoreMem32(RBX, kOffPc, RAX);
    Charge(kCosts.branch_taken);
    EmitExit();
  }
}

void BlockCompiler::EmitBranch(const Instruction& i, word va) {
  Charge(kCosts.branch_taken);
  if (i.op == Op::kBx) {
    MovFrom(RAX, Operand(i.rm, va, RAX));
    e_.AluRegImm32(Alu::kAnd, RAX, ~3u);
    e_.StoreMem32(RBX, kOffPc, RAX);
    EmitExit();
    return;
  }
  if (i.op == Op::kBl) {
    e_.MovRegImm32(RAX, va + 4);
    WriteGuest(arm::LR, RAX, RDI);
  }
  EmitStaticExit(static_cast<word>(static_cast<int64_t>(va) + 8 + i.branch_offset));
}

void BlockCompiler::EmitInsn(const Instruction& i, word va) {
  ++pending_.steps;
  const bool terminator = IsTerminator(i);
  if (terminator && i.op != Op::kLdm) {
    // Neither path writes r0-r12 and both leave: one write-back serves both.
    EmitWriteBack(dirty_);
    dirty_ = 0;
  }
  const uint16_t dirty_before = dirty_;
  const std::vector<size_t> fails = EmitCondFail(i.cond);
  // A failed condition retires the step as a 1-cycle fall-through.
  const Charges failed{pending_.steps, pending_.cycles + kCosts.alu};

  switch (i.op) {
    case Op::kMul:
      EmitMul(i, va);
      break;
    case Op::kMovw:
    case Op::kMovt:
      EmitMovwMovt(i, va);
      break;
    case Op::kLdr:
    case Op::kStr:
    case Op::kLdrb:
    case Op::kStrb:
      EmitMemSingle(i, va);
      break;
    case Op::kLdm:
    case Op::kStm:
      EmitBlockTransfer(i, va);
      break;
    case Op::kB:
    case Op::kBl:
    case Op::kBx:
      EmitBranch(i, va);
      break;
    default:
      EmitDataProcessing(i, va);
      break;
  }

  if (i.cond == Cond::kAl) {
    return;
  }
  if (terminator) {
    // The body exited; the failed path exits on its own charges.
    for (const size_t f : fails) {
      e_.BindForward(f);
    }
    pending_ = failed;
    dirty_ = dirty_before;
    EmitStaticExit(va + 4);
    return;
  }
  // The paths merge. Both retired the same step; the one that charged more
  // cycles writes the difference, so the merged path owes the lesser count.
  // The registers the body wrote stay dirty: on the failed path their host
  // registers still hold the loaded values.
  if (pending_.cycles > failed.cycles) {
    EmitCharges({0, pending_.cycles - failed.cycles});
    for (const size_t f : fails) {
      e_.BindForward(f);
    }
    pending_ = failed;
  } else if (pending_.cycles < failed.cycles) {
    const size_t merge = e_.JmpForward();
    for (const size_t f : fails) {
      e_.BindForward(f);
    }
    EmitCharges({0, failed.cycles - pending_.cycles});
    e_.BindForward(merge);
  } else {
    for (const size_t f : fails) {
      e_.BindForward(f);
    }
  }
}

CompiledBlock BlockCompiler::Compile(const arm::PhysMemory& mem, arm::vaddr va,
                                     arm::paddr phys) {
  // Gather the straight-line run of translatable instructions. Blocks never
  // cross a physical page: one page-generation tag validates the whole block.
  std::vector<Instruction> insns;
  bool terminated = false;
  while (insns.size() < kMaxBlockInsns) {
    const arm::paddr p = phys + 4 * static_cast<arm::paddr>(insns.size());
    if (arm::PageBase(p) != arm::PageBase(phys)) {
      break;
    }
    const std::optional<Instruction> d = arm::Decode(mem.Read(p));
    if (!d.has_value() || !Jitable(*d)) {
      break;
    }
    insns.push_back(*d);
    if (IsTerminator(*d)) {
      terminated = true;
      break;
    }
  }
  CompiledBlock out;
  if (insns.empty()) {
    return out;
  }
  const uint32_t len_words = static_cast<uint32_t>(insns.size());
  e_.Reserve(kReserveBase + kReservePerInsn * len_words);
  page_va_ = arm::PageBase(va);
  AllocateRegisters(insns);
  EmitEntry(va, phys, mem.PageGenAt(mem.PageIndexOf(phys)), len_words);
  for (size_t k = 0; k < insns.size(); ++k) {
    EmitInsn(insns[k], va + 4 * static_cast<word>(k));
  }
  if (!terminated) {
    EmitStaticExit(va + 4 * len_words);
  }
  // Every cold path calls the write-back routine, and none writes a guest
  // register, so written_ is complete once the body is.
  if (written_ != 0 && !cold_.empty()) {
    write_back_ = e_.size();
    EmitWriteBack(written_);
    e_.Ret();
  }
  for (ColdPath& c : cold_) {
    e_.BindForward(c.entry);
    c.emit();
    if (c.rejoins) {
      e_.JmpBack(c.resume);
    }
  }
  out.code = e_.TakeCode();
  out.entry = entry_;
  out.len_words = len_words;
  return out;
}

}  // namespace

CompiledBlock CompileBlock(const arm::PhysMemory& mem, arm::vaddr va, arm::paddr phys) {
  BlockCompiler c;
  return c.Compile(mem, va, phys);
}

// The stubs, one copy per engine at the head of the code buffer: the four
// probes, the five helper call stubs, the exits, the unlinked chain site's
// handler and the enter stub. One copy per engine, called from every
// access, keeps the bytes emitted per access small.
//
// A probe first looks the VA's micro-TLB slot up in JitRt::probe: if the
// slot's key for this access kind is the current stamp with this VPN, the
// access was validated earlier in the run and is served from the recorded
// host address alone (DESIGN.md §13). Otherwise it applies TlbWalk's hit
// rule (VPN, TTBR0, epoch, and the L1/L2 descriptor pages' generations) and
// the access's permission to the micro-TLB entry and, if the access may hit,
// records the key. Loads may use any hit: only user-readable walks are
// cached. A store hits only when the entry allows inline stores (writable,
// outside the live page-table footprint), the page is not the running
// block's code page, and the page is already on the memory's dirty list, so
// the store need not list it; every store hit bumps the page's generation as
// PhysMemory::Write does. A hit counts in r15; everything else returns 0
// with ZF set, and the access takes its helper, whose PhysMemory::Write
// lists the page for the stores after it.
void EmitStubs(std::vector<uint8_t>& out, size_t entry[kNumStubs]) {
  using Alu = X64Emitter::Alu;
  using Sh = X64Emitter::Sh;
  using TlbEntry = arm::InterpCaches::TlbEntry;
  // The compares below read each field at its natural width.
  static_assert(sizeof(TlbEntry::vpn) == 4 && sizeof(TlbEntry::ttbr0) == 4 &&
                sizeof(TlbEntry::l1_gen) == 4 && sizeof(TlbEntry::l1_gen_idx) == 8 &&
                sizeof(TlbEntry::gen_idx) == 8 && sizeof(TlbEntry::inline_store) == 1);
  static_assert(sizeof(TlbEntry) == 64 && arm::InterpCaches::kTlbEntries <= 128);
  constexpr uint32_t kSlotMask = arm::InterpCaches::kTlbEntries - 1;
  X64Emitter e;
  for (const bool store : {false, true}) {
    const int32_t key = kRtOffProbe + static_cast<int32_t>(store ? offsetof(ProbeSlot, store_key)
                                                                 : offsetof(ProbeSlot, load_key));
    const int32_t bias = kRtOffProbe + static_cast<int32_t>(offsetof(ProbeSlot, host_bias));
    const int32_t gen = kRtOffProbe + static_cast<int32_t>(offsetof(ProbeSlot, gen));
    std::vector<size_t> unaligned;
    entry[store ? kProbeStoreWord : kProbeLoadWord] = e.size();
    e.TestRegImm32(RSI, 3);
    unaligned.push_back(e.JccForward(kCcNe));  // the helper takes the data abort
    entry[store ? kProbeStoreByte : kProbeLoadByte] = e.size();
    e.MovRegReg32(RAX, RSI);
    e.ShiftRegImm32(Sh::kShr, RAX, 12);  // eax = vpn
    e.MovRegReg32(RDI, RAX);
    e.AluRegImm32(Alu::kAnd, RDI, kSlotMask);
    e.ShiftRegImm32(Sh::kShl, RDI, 5);  // rdi = slot * sizeof(ProbeSlot)
    e.AluRegMem64(Alu::kOr, RAX, RBP, kRtOffStampKey);
    e.CmpRegIndex64(RAX, RBP, RDI, 0, key);
    const size_t validate = e.JccForward(kCcNe);
    // Stamped: validated earlier in this run.
    if (store) {
      e.LoadIndex64(RAX, RBP, RDI, 0, gen);
      e.AluMemImm32(Alu::kAdd, RAX, 0, 1);  // the store's generation bump
    }
    e.LoadIndex64(RAX, RBP, RDI, 0, bias);
    e.AluRegReg64(Alu::kAdd, RAX, RSI);
    e.IncReg64(R15);  // a hit; clears ZF
    e.Ret();

    // TlbWalk's hit rule, with rax = the key and rdi = the slot offset.
    e.BindForward(validate);
    std::vector<size_t> misses;
    const auto miss_if = [&](uint8_t cc) { misses.push_back(e.JccForward(cc)); };
    e.PushR64(RCX);
    e.PushR64(RDX);
    e.LoadMem64(RCX, RBP, kRtOffTlb);
    e.AluRegReg64(Alu::kAdd, RCX, RDI);
    e.AluRegReg64(Alu::kAdd, RCX, RDI);  // rcx = &entries[slot]
    e.MovRegReg32(RDX, RSI);
    e.ShiftRegImm32(Sh::kShr, RDX, 12);
    e.CmpRegMem32(RDX, RCX, offsetof(TlbEntry, vpn));
    miss_if(kCcNe);
    e.LoadMem32(RDX, RBP, kRtOffTtbr0);
    e.CmpRegMem32(RDX, RCX, offsetof(TlbEntry, ttbr0));
    miss_if(kCcNe);
    e.LoadMem64(RDX, RBP, kRtOffTlbEpoch);
    e.CmpRegMem64(RDX, RCX, offsetof(TlbEntry, epoch));
    miss_if(kCcNe);
    for (const auto& [idx, g] :
         {std::pair{offsetof(TlbEntry, l1_gen_idx), offsetof(TlbEntry, l1_gen)},
          std::pair{offsetof(TlbEntry, l2_gen_idx), offsetof(TlbEntry, l2_gen)}}) {
      e.LoadMem64(RDX, RCX, idx);
      e.AluRegReg64(Alu::kAdd, RDX, RDX);
      e.AluRegReg64(Alu::kAdd, RDX, RDX);  // the index, scaled by 4 in 64 bits
      e.AluRegMem64(Alu::kAdd, RDX, RBP, kRtOffGens);
      e.LoadMem32(RDX, RDX, 0);
      e.CmpRegMem32(RDX, RCX, g);
      miss_if(kCcNe);
    }
    if (store) {
      e.CmpMem8Imm(RCX, offsetof(TlbEntry, inline_store), 0);
      miss_if(kCcE);
      e.LoadMem64(RDX, RCX, offsetof(TlbEntry, gen_idx));
      e.CmpRegMem64(RDX, RBP, kRtOffCodeGenIdx);
      miss_if(kCcE);
      e.AluRegMem64(Alu::kAdd, RDX, RBP, kRtOffDirty);
      e.CmpMem8Imm(RDX, 0, 0);
      miss_if(kCcE);  // not on the dirty list
      e.AluRegMem64(Alu::kSub, RDX, RBP, kRtOffDirty);
      e.AluRegReg64(Alu::kAdd, RDX, RDX);
      e.AluRegReg64(Alu::kAdd, RDX, RDX);
      e.AluRegMem64(Alu::kAdd, RDX, RBP, kRtOffGens);
      e.AluMemImm32(Alu::kAdd, RDX, 0, 1);  // the store's generation bump
      e.StoreIndex64(RBP, RDI, 0, gen, RDX);
    }
    e.LoadMem64(RDX, RCX, offsetof(TlbEntry, host));
    if (!store) {
      e.TestRegReg64(RDX, RDX);
      miss_if(kCcE);  // the descriptor names no mapped page
    }
    // Record the pass and the page's bias, and serve the access.
    e.StoreIndex64(RBP, RDI, 0, key, RAX);
    e.MovRegReg32(RCX, RSI);
    e.AluRegImm32(Alu::kAnd, RCX, ~(arm::kPageSize - 1));
    e.AluRegReg64(Alu::kSub, RDX, RCX);
    e.StoreIndex64(RBP, RDI, 0, bias, RDX);
    e.MovRegReg64(RAX, RDX);
    e.AluRegReg64(Alu::kAdd, RAX, RSI);
    e.PopR64(RDX);
    e.PopR64(RCX);
    e.IncReg64(R15);
    e.Ret();
    for (const size_t m : misses) {
      e.BindForward(m);
    }
    e.PopR64(RDX);
    e.PopR64(RCX);
    for (const size_t m : unaligned) {
      e.BindForward(m);
    }
    e.AluRegReg32(Alu::kXor, RAX, RAX);  // sets ZF
    e.Ret();
  }

  // The exits, and the one epilogue of the frame the enter stub builds: the
  // run's probe hits go to InterpCacheStats::tlb_hits on every way out.
  entry[kStubExit] = e.size();
  e.AluRegReg32(Alu::kXor, RDI, RDI);
  const size_t exit_status = e.size();  // returns edi, a helper's exit code
  e.MovRegReg32(RAX, RDI);
  e.LoadMem64(RCX, RBP, kRtOffTlbHits);
  e.AluRegMem64(Alu::kAdd, R15, RCX, 0);
  e.StoreMem64(RCX, 0, R15);
  for (const int r : {RCX, R15, R14, R13, R12, RBP, RBX}) {
    e.PopR64(r);
  }
  e.Ret();

  // The helper call stubs: keep every register the block may cache (the
  // callee-saved ones the helper keeps itself), move the arguments into
  // place and call the helper with rsp 16-byte aligned. On an exit status
  // the stub drops its return address and leaves through the epilogue.
  static const struct {
    StubKind kind;
    uint64_t fn;
    int args;  // after rt: 1 = (site), 2 = (va, site), 3 = (va, value, site)
  } kCalls[] = {
      {kCallLoadWord, reinterpret_cast<uint64_t>(&komodo_jit_load_word), 2},
      {kCallLoadByte, reinterpret_cast<uint64_t>(&komodo_jit_load_byte), 2},
      {kCallStoreWord, reinterpret_cast<uint64_t>(&komodo_jit_store_word), 3},
      {kCallStoreByte, reinterpret_cast<uint64_t>(&komodo_jit_store_byte), 3},
      {kCallDataAbort, reinterpret_cast<uint64_t>(&komodo_jit_data_abort), 1},
  };
  constexpr int kSaved[] = {RCX, RDX, R8, R9, R10, R11, RSI};  // with the return address, 64 bytes
  for (const auto& c : kCalls) {
    entry[c.kind] = e.size();
    for (const int r : kSaved) {
      e.PushR64(r);
    }
    switch (c.args) {
      case 1:
        e.MovRegReg64(RSI, RAX);
        break;
      case 2:
        e.MovRegReg64(RDX, RAX);
        break;
      default:
        e.MovRegReg32(RDX, RDI);
        e.MovRegReg64(RCX, RAX);
        break;
    }
    e.LeaMem64(RDI, RBP, -kRtBias);  // rt
    e.MovRegImm64(RAX, c.fn);
    e.CallReg(RAX);
    for (auto it = std::rbegin(kSaved); it != std::rend(kSaved); ++it) {
      e.PopR64(*it);
    }
    e.MovRegReg64(RDI, RAX);
    e.ShrReg64Imm(RDI, 32);
    const size_t leave = e.JccForward(kCcNe);
    e.Ret();
    e.BindForward(leave);
    e.PopR64(RCX);
    e.JmpBack(exit_status);
  }

  // An unlinked chain site called this: its return address is the site's
  // exit jump, followed by the target word. Set m->pc from the word, report
  // the site and return to the exit jump; the call and return pair up, so
  // the return-stack predictor stays in step.
  entry[kStubUnlinked] = e.size();
  e.LoadMem64(RAX, RSP, 0);
  e.LoadMem32(RDI, RAX, kChainTargetOff - kChainCallBytes);
  e.StoreMem32(RBX, kOffPc, RDI);
  e.StoreMem64(RBP, kRtOffExitJump, RAX);
  e.Ret();

  // enter(m, rt, entry): seven pushes after the return address keep rsp
  // 16-byte aligned in the blocks, so the call stubs' seven pushes align
  // their helper calls; the epilogue pops the padding into rcx.
  entry[kStubEnter] = e.size();
  for (const int r : {RBX, RBP, R12, R13, R14, R15, RCX}) {
    e.PushR64(r);
  }
  e.MovRegReg64(RBX, RDI);
  e.LeaMem64(RBP, RSI, kRtBias);
  e.AluRegReg32(Alu::kXor, R15, R15);
  e.JmpReg(RDX);
  out = e.TakeCode();
}

}  // namespace komodo::jit
