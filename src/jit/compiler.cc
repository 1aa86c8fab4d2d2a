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
// code (EmitProbeStubs below); a miss takes a cold path, laid out after the
// block body, into the runtime helpers, which reuse TranslateAddress and the
// live-page-table store hook, so faults, TrustZone filtering and TLB
// consistency behave bit-identically to the interpreter.
//
// Step and cycle charges are compile-time sums, written to steps_retired and
// cycles only where control can leave the straight-line run: at every block
// exit (including a helper's exception exit) and where the two paths of a
// conditional instruction merge. Nothing reads either counter mid-block, and
// TakeException only adds to cycles, so the totals at every exit match
// per-instruction charging exactly.
//
// A block's exits to a static target on its own page are chain sites
// (jit_internal.h), which the dispatcher links to the successor's entry
// point. Every entry point, dispatched or chained, first checks the code
// page's generation and the step budget (DESIGN.md §13).
//
// Register plan inside a block (System V x64):
//   rbx = MachineState*      rbp = JitRt*          (callee-saved, enter stub)
//   eax = primary/result     ecx = operand2        edx = scratch/mode index
//   esi = access VA          r8b = shifter carry   r12d = LDM/STM addr
//   r13d = LDM loaded PC     r14d = LDM/STM base   (callee-saved, enter stub)
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
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
// instruction plus a fixed part, which 403 of the 433 blocks compiled from
// the words of the shipped programs fit (JitCodeSize); the rest grow it.
constexpr size_t kReserveBase = 64;
constexpr size_t kReservePerInsn = 96;

bool IsDataProcessing(Op op) {
  return static_cast<uint8_t>(op) <= static_cast<uint8_t>(Op::kMvn);
}

bool IsCompare(Op op) {
  return op == Op::kTst || op == Op::kTeq || op == Op::kCmp || op == Op::kCmn;
}

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
  switch (i.op) {
    case Op::kB:
    case Op::kBl:
    case Op::kBx:
      return true;
    case Op::kLdr:
      return i.rd == arm::PC;
    case Op::kLdm:
      return ((i.reg_list >> arm::PC) & 1) != 0;
    default:
      break;
  }
  return IsDataProcessing(i.op) && !IsCompare(i.op) && i.rd == arm::PC &&
         !i.set_flags;
}

// The hot subset the translator handles; everything else falls back to the
// interpreter per instruction. PC-as-operand forms that read the *raw* PC in
// the interpreter (ReadReg(PC) mid-step) are excluded rather than modelled.
bool Jitable(const Instruction& i) {
  if (IsDataProcessing(i.op)) {
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

class BlockCompiler {
 public:
  CompiledBlock Compile(const arm::PhysMemory& mem, arm::vaddr va, arm::paddr phys);

 private:
  using Alu = X64Emitter::Alu;
  using Sh = X64Emitter::Sh;
  // Where the ARM shifter carry ended up after operand2 evaluation.
  enum class CarrySrc { kUnchanged, kZero, kOne, kR8 };

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

  // The reject path, then the entry point's checks.
  void EmitEntry(word va, arm::paddr phys, uint32_t gen, uint32_t len_words);
  void EmitJmpStub(StubKind k) { e_.JmpMem(RBP, StubOff(k)); }
  void EmitCharges(const Charges& c);
  // Writes the pending charges and leaves the block; m->pc is already set.
  void EmitExit();
  // Writes the pending charges and leaves the block for `target`: through a
  // chain site when the target is on the block's page, else the plain exit.
  void EmitStaticExit(word target);
  void Charge(uint64_t cycles) { pending_.cycles += cycles; }
  void EmitHelperCall(uint64_t fn) {
    e_.MovRegImm64(RAX, fn);
    e_.CallReg(RAX);
  }
  void EmitStatusCheck(const Charges& owed);
  void EmitRestartCheck(word va, const Charges& owed);
  // Queues the cold path entered through the fixup `entry`; one that
  // rejoins resumes at the current offset.
  void Defer(size_t entry, bool rejoins, std::function<void()> emit);
  // One transfer of the instruction at `va`, to or from the address in
  // `va_reg`: the probe call, the hit path, and a deferred miss path into the
  // runtime helper. A load leaves the value in eax; a store stores guest
  // register `rd` (insn_addr + 8 for the PC). `check_restart` ends the block
  // after a helper store that flagged a restart.
  void EmitTransfer(StubKind kind, int va_reg, Reg rd, word va, bool check_restart);
  void LoadGuestReg(int dst, Reg r);
  void StoreGuestReg(Reg r, int src);
  void LoadOperandReg(int dst, Reg r, word va);
  std::vector<size_t> EmitCondFail(Cond c);
  CarrySrc EmitOperand2(const Instruction& i, word va, bool need_carry);
  void EmitInsn(const Instruction& i, word va);
  void EmitDataProcessing(const Instruction& i, word va);
  void EmitMul(const Instruction& i);
  void EmitMovwMovt(const Instruction& i);
  void EmitMemSingle(const Instruction& i, word va);
  void EmitBlockTransfer(const Instruction& i, word va);
  void EmitBranch(const Instruction& i, word va);

  X64Emitter e_;
  Charges pending_;
  std::vector<ColdPath> cold_;
  word page_va_ = 0;   // the virtual page the block's code lies in
  size_t entry_ = 0;  // offset of the entry point, after the reject path
};

// The reject path comes first, so the checks branch back to it with rel8
// jumps. A failed check leaves as a plain exit to the block's own address:
// the dispatcher then retranslates a stale block, or interprets the steps
// the budget has left.
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
}

void BlockCompiler::EmitCharges(const Charges& c) {
  if (c.steps != 0) {
    e_.AluMem64Imm(Alu::kAdd, RBX, kOffSteps, static_cast<uint32_t>(c.steps));
  }
  if (c.cycles != 0) {
    e_.AluMem64Imm(Alu::kAdd, RBX, kOffCycles, static_cast<uint32_t>(c.cycles));
  }
}

void BlockCompiler::EmitExit() {
  EmitCharges(pending_);
  EmitJmpStub(kStubExit);
}

void BlockCompiler::EmitStaticExit(word target) {
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

// After a helper call: high 32 bits of rax are 0 (ok) or the exception exit
// code; exit with it (after writing the owed charges) if set, else continue
// with the value in eax.
void BlockCompiler::EmitStatusCheck(const Charges& owed) {
  e_.MovRegReg64(RDX, RAX);
  e_.ShrReg64Imm(RDX, 32);
  const size_t ok = e_.JccForward(kCcE);
  EmitCharges(owed);
  e_.MovRegReg64(RAX, RDX);
  EmitJmpStub(kStubExitStatus);
  e_.BindForward(ok);
}

// After a store helper: if it flagged a restart (store into this block's own
// code, or TLB consistency lost), end the block at this instruction boundary
// with the PC advanced past it.
void BlockCompiler::EmitRestartCheck(word va, const Charges& owed) {
  e_.CmpMem8Imm(RBP, kRtOffRestart, 0);
  const size_t ok = e_.JccForward(kCcE);
  e_.StoreMemImm32(RBX, kOffPc, va + 4);
  EmitCharges(owed);
  EmitJmpStub(kStubExit);
  e_.BindForward(ok);
}

void BlockCompiler::Defer(size_t entry, bool rejoins, std::function<void()> emit) {
  cold_.push_back({entry, e_.size(), rejoins, std::move(emit)});
}

void BlockCompiler::EmitTransfer(StubKind kind, int va_reg, Reg rd, word va,
                                 bool check_restart) {
  static const uint64_t kHelpers[] = {
      reinterpret_cast<uint64_t>(&komodo_jit_load_word),
      reinterpret_cast<uint64_t>(&komodo_jit_load_byte),
      reinterpret_cast<uint64_t>(&komodo_jit_store_word),
      reinterpret_cast<uint64_t>(&komodo_jit_store_byte),
  };
  const bool is_load = kind == kProbeLoadWord || kind == kProbeLoadByte;
  const bool is_byte = kind == kProbeLoadByte || kind == kProbeStoreByte;
  const Charges owed = pending_;
  e_.MovRegReg32(RSI, va_reg);
  e_.CallMem(RBP, StubOff(kind));
  e_.TestRegReg64(RAX, RAX);
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
    LoadGuestReg(RCX, rd);
    if (is_byte) {
      e_.StoreMem8(RAX, 0, RCX);
    } else {
      e_.StoreMem32(RAX, 0, RCX);
    }
  }
  // Miss: the VA is still in esi. The owed charges are written only if the
  // helper takes an exception.
  Defer(miss, /*rejoins=*/true, [this, kind, is_load, rd, va, check_restart, owed] {
    if (!is_load) {
      if (rd == arm::PC) {
        e_.MovRegImm32(RDX, va + 8);
      } else {
        LoadGuestReg(RAX, rd);
        e_.MovRegReg32(RDX, RAX);
      }
    }
    e_.MovRegReg64(RDI, RBP);
    e_.MovRegImm32(is_load ? RDX : RCX, va);
    EmitHelperCall(kHelpers[kind]);
    EmitStatusCheck(owed);
    if (check_restart) {
      EmitRestartCheck(va, owed);
    }
  });
}

void BlockCompiler::LoadGuestReg(int dst, Reg r) {
  if (r < arm::SP) {
    e_.LoadMem32(dst, RBX, kOffR + 4 * static_cast<int32_t>(r));
    return;
  }
  assert(r != arm::PC);
  assert(dst != RDX);
  e_.LoadMemZx8(RDX, RBX, kOffMode);
  e_.LoadIndex32(dst, RBX, RDX, r == arm::SP ? kOffSpBank : kOffLrBank);
}

void BlockCompiler::StoreGuestReg(Reg r, int src) {
  if (r < arm::SP) {
    e_.StoreMem32(RBX, kOffR + 4 * static_cast<int32_t>(r), src);
    return;
  }
  assert(r != arm::PC);
  assert(src != RDX);
  e_.LoadMemZx8(RDX, RBX, kOffMode);
  e_.StoreIndex32(RBX, RDX, r == arm::SP ? kOffSpBank : kOffLrBank, src);
}

// Operand read with the A32 rule that PC reads as the instruction address + 8.
void BlockCompiler::LoadOperandReg(int dst, Reg r, word va) {
  if (r == arm::PC) {
    e_.MovRegImm32(dst, va + 8);
  } else {
    LoadGuestReg(dst, r);
  }
}

// Emits the condition test; returns fixups that jump when the condition
// FAILS (to be bound at the caller's cond-fail stub).
std::vector<size_t> BlockCompiler::EmitCondFail(Cond c) {
  std::vector<size_t> fails;
  const auto flag_is = [&](int32_t off) { e_.CmpMem8Imm(RBX, off, 0); };
  const auto n_vs_v = [&] {
    e_.LoadMem8(RDX, RBX, kOffFlagN);
    e_.CmpReg8Mem8(RDX, RBX, kOffFlagV);
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

// Materializes operand2 into ecx, reproducing ApplyShift()'s value and carry
// semantics for every immediate-shift form (LSR/ASR #0 mean #32; ROR #0 is
// RRX). The shifter carry lands in r8b when dynamic.
BlockCompiler::CarrySrc BlockCompiler::EmitOperand2(const Instruction& i, word va,
                                                    bool need_carry) {
  const arm::Operand2& o = i.op2;
  if (o.is_imm) {
    const word v = o.ImmValue();
    e_.MovRegImm32(RCX, v);
    if (o.rot4 == 0) {
      return CarrySrc::kUnchanged;
    }
    return (v >> 31) != 0 ? CarrySrc::kOne : CarrySrc::kZero;
  }
  LoadOperandReg(RCX, o.rm, va);
  const unsigned amt = o.shift_imm;
  switch (o.shift) {
    case ShiftKind::kLsl:
      if (amt == 0) {
        return CarrySrc::kUnchanged;
      }
      e_.ShiftRegImm32(Sh::kShl, RCX, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kLsr:
      if (amt == 0) {  // LSR #32: result 0, carry = bit 31
        if (need_carry) {
          e_.BtRegImm32(RCX, 31);
          e_.SetccReg8(kCcB, R8);
        }
        e_.MovRegImm32(RCX, 0);
        return CarrySrc::kR8;
      }
      e_.ShiftRegImm32(Sh::kShr, RCX, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kAsr:
      if (amt == 0) {  // ASR #32: sign-fill, carry = bit 31
        if (need_carry) {
          e_.BtRegImm32(RCX, 31);
          e_.SetccReg8(kCcB, R8);
        }
        e_.ShiftRegImm32(Sh::kSar, RCX, 31);
        return CarrySrc::kR8;
      }
      e_.ShiftRegImm32(Sh::kSar, RCX, static_cast<uint8_t>(amt));
      break;
    case ShiftKind::kRor:
      if (amt == 0) {  // RRX: rotate right through carry by one
        e_.LoadMemZx8(RDX, RBX, kOffFlagC);
        e_.ShiftRegImm32(Sh::kShr, RDX, 1);  // CF = old C flag
        e_.ShiftRegImm32(Sh::kRcr, RCX, 1);
      } else {
        e_.ShiftRegImm32(Sh::kRor, RCX, static_cast<uint8_t>(amt));
      }
      break;
  }
  // x64 leaves CF = the last bit shifted/rotated out — exactly ARM's shifter
  // carry for every form above.
  if (need_carry) {
    e_.SetccReg8(kCcB, R8);
  }
  return CarrySrc::kR8;
}

void BlockCompiler::EmitDataProcessing(const Instruction& i, word va) {
  Charge(kCosts.alu);
  const bool compare = IsCompare(i.op);
  const bool flags = i.set_flags || compare;
  const bool logical = IsLogical(i.op);
  const CarrySrc cs = EmitOperand2(i, va, flags && logical);
  switch (i.op) {
    case Op::kAnd:
    case Op::kTst:
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kAnd, RAX, RCX);
      break;
    case Op::kEor:
    case Op::kTeq:
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kXor, RAX, RCX);
      break;
    case Op::kOrr:
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kOr, RAX, RCX);
      break;
    case Op::kBic:
      e_.NotReg32(RCX);
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kAnd, RAX, RCX);
      break;
    case Op::kMov:
      e_.MovRegReg32(RAX, RCX);
      break;
    case Op::kMvn:
      e_.NotReg32(RCX);
      e_.MovRegReg32(RAX, RCX);
      break;
    case Op::kSub:
    case Op::kCmp:
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kSub, RAX, RCX);
      break;
    case Op::kRsb:
      LoadOperandReg(RAX, i.rn, va);
      e_.XchgRegReg32(RAX, RCX);  // eax = op2, ecx = rn
      e_.AluRegReg32(Alu::kSub, RAX, RCX);
      break;
    case Op::kAdd:
    case Op::kCmn:
      LoadOperandReg(RAX, i.rn, va);
      e_.AluRegReg32(Alu::kAdd, RAX, RCX);
      break;
    case Op::kAdc:
      LoadOperandReg(RAX, i.rn, va);
      e_.LoadMemZx8(RDX, RBX, kOffFlagC);
      e_.AluRegImm32(Alu::kAdd, RDX, 0xffff'ffff);  // CF = C flag
      e_.AluRegReg32(Alu::kAdc, RAX, RCX);
      break;
    case Op::kSbc:
      LoadOperandReg(RAX, i.rn, va);
      e_.LoadMemZx8(RDX, RBX, kOffFlagC);
      e_.AluRegImm32(Alu::kCmp, RDX, 1);  // CF = !C (x64 borrow = 1 - ARM C)
      e_.AluRegReg32(Alu::kSbb, RAX, RCX);
      break;
    case Op::kRsc:
      LoadOperandReg(RAX, i.rn, va);
      e_.XchgRegReg32(RAX, RCX);
      e_.LoadMemZx8(RDX, RBX, kOffFlagC);
      e_.AluRegImm32(Alu::kCmp, RDX, 1);
      e_.AluRegReg32(Alu::kSbb, RAX, RCX);
      break;
    default:
      assert(false && "not a data-processing op");
      break;
  }
  if (flags) {
    if (logical) {
      e_.TestRegReg32(RAX, RAX);
      e_.SetccMem8(kCcS, RBX, kOffFlagN);
      e_.SetccMem8(kCcE, RBX, kOffFlagZ);
      switch (cs) {
        case CarrySrc::kUnchanged:
          break;
        case CarrySrc::kZero:
          e_.StoreMemImm8(RBX, kOffFlagC, 0);
          break;
        case CarrySrc::kOne:
          e_.StoreMemImm8(RBX, kOffFlagC, 1);
          break;
        case CarrySrc::kR8:
          e_.StoreMem8(RBX, kOffFlagC, R8);
          break;
      }
    } else {
      // ARM C on subtraction = NOT x64 borrow; on addition they agree.
      const bool add_family = i.op == Op::kAdd || i.op == Op::kCmn || i.op == Op::kAdc;
      e_.SetccMem8(add_family ? kCcB : kCcAe, RBX, kOffFlagC);
      e_.SetccMem8(kCcO, RBX, kOffFlagV);
      e_.SetccMem8(kCcS, RBX, kOffFlagN);
      e_.SetccMem8(kCcE, RBX, kOffFlagZ);
    }
  }
  if (!compare) {
    if (i.rd == arm::PC) {
      // Branch by ALU result: raw value, no alignment masking (execute.cc).
      e_.StoreMem32(RBX, kOffPc, RAX);
      Charge(kCosts.branch_taken);
      EmitExit();
    } else {
      StoreGuestReg(i.rd, RAX);
    }
  }
}

void BlockCompiler::EmitMul(const Instruction& i) {
  Charge(kCosts.mul);
  LoadGuestReg(RAX, i.rm);
  LoadGuestReg(RCX, i.rn);
  e_.ImulRegReg32(RAX, RCX);
  StoreGuestReg(i.rd, RAX);
  if (i.set_flags) {
    e_.TestRegReg32(RAX, RAX);
    e_.SetccMem8(kCcS, RBX, kOffFlagN);
    e_.SetccMem8(kCcE, RBX, kOffFlagZ);
  }
}

void BlockCompiler::EmitMovwMovt(const Instruction& i) {
  Charge(kCosts.alu);
  const uint32_t imm16 = i.trap_imm & 0xffff;
  if (i.op == Op::kMovw) {
    e_.MovRegImm32(RAX, imm16);
  } else {
    LoadGuestReg(RAX, i.rd);
    e_.AluRegImm32(Alu::kAnd, RAX, 0xffff);
    e_.AluRegImm32(Alu::kOr, RAX, imm16 << 16);
  }
  StoreGuestReg(i.rd, RAX);
}

void BlockCompiler::EmitMemSingle(const Instruction& i, word va) {
  const bool is_load = i.op == Op::kLdr || i.op == Op::kLdrb;
  const bool is_byte = i.op == Op::kLdrb || i.op == Op::kStrb;
  Charge(is_load ? kCosts.load : kCosts.store);
  LoadOperandReg(RAX, i.rn, va);  // base (PC = va + 8)
  if (i.mem_reg_offset) {
    LoadGuestReg(RCX, i.rm);
    e_.AluRegReg32(i.mem_add ? Alu::kAdd : Alu::kSub, RAX, RCX);
  } else if (i.mem_imm12 != 0) {
    e_.AluRegImm32(i.mem_add ? Alu::kAdd : Alu::kSub, RAX, i.mem_imm12);
  }
  if (is_load) {
    EmitTransfer(is_byte ? kProbeLoadByte : kProbeLoadWord, RAX, i.rd, va,
                 /*check_restart=*/false);
    if (!is_byte && i.rd == arm::PC) {
      e_.AluRegImm32(Alu::kAnd, RAX, ~3u);  // interworking unmodelled
      e_.StoreMem32(RBX, kOffPc, RAX);
      Charge(kCosts.branch_taken);
      EmitExit();
    } else {
      StoreGuestReg(i.rd, RAX);
    }
  } else {
    // STR with Rd = PC stores insn_addr + 8 (STRB with Rd = PC is not jitable).
    EmitTransfer(is_byte ? kProbeStoreByte : kProbeStoreWord, RAX, i.rd, va,
                 /*check_restart=*/true);
  }
}

void BlockCompiler::EmitBlockTransfer(const Instruction& i, word va) {
  const bool is_load = i.op == Op::kLdm;
  const uint32_t count = static_cast<uint32_t>(__builtin_popcount(i.reg_list));
  LoadGuestReg(RAX, i.rn);
  e_.MovRegReg32(R14, RAX);  // original base, for writeback
  e_.MovRegReg32(R12, RAX);  // running transfer address
  if (i.mem_add) {
    if (i.block_pre) {
      e_.AluRegImm32(Alu::kAdd, R12, 4);
    }
  } else {
    const uint32_t down = 4 * count - (i.block_pre ? 0 : 4);
    if (down != 0) {
      e_.AluRegImm32(Alu::kSub, R12, down);
    }
  }
  // Alignment of the lowest address, checked before any per-transfer charge.
  e_.TestRegImm32(R12, 3);
  const size_t misaligned = e_.JccForward(kCcNe);
  {
    const Charges owed = pending_;
    Defer(misaligned, /*rejoins=*/false, [this, va, owed] {
      EmitCharges(owed);
      e_.MovRegReg64(RDI, RBP);
      e_.MovRegImm32(RSI, static_cast<uint32_t>(arm::Exception::kDataAbort));
      e_.MovRegImm32(RDX, va);
      EmitHelperCall(reinterpret_cast<uint64_t>(&komodo_jit_fault));
      e_.ShrReg64Imm(RAX, 32);
      EmitJmpStub(kStubExitStatus);
    });
  }

  for (int r = 0; r < 16; ++r) {
    if (((i.reg_list >> r) & 1) == 0) {
      continue;
    }
    Charge(is_load ? kCosts.load : kCosts.store);
    // STM with PC in the list stores insn_addr + 8.
    EmitTransfer(is_load ? kProbeLoadWord : kProbeStoreWord, R12, static_cast<Reg>(r), va,
                 /*check_restart=*/false);
    if (is_load) {
      if (r == arm::PC) {
        e_.MovRegReg32(R13, RAX);  // committed only after writeback
      } else {
        StoreGuestReg(static_cast<Reg>(r), RAX);
      }
    }
    e_.AluRegImm32(Alu::kAdd, R12, 4);
  }

  if (i.block_wback) {
    // LDM that also loads the base register wins over writeback.
    const bool base_loaded = is_load && ((i.reg_list >> i.rn) & 1) != 0;
    if (!base_loaded) {
      e_.MovRegReg32(RAX, R14);
      e_.AluRegImm32(i.mem_add ? Alu::kAdd : Alu::kSub, RAX, 4 * count);
      StoreGuestReg(i.rn, RAX);
    }
  }
  if (!is_load) {
    // A store helper may have flagged a restart; the STM still completes.
    EmitRestartCheck(va, pending_);
  }
  if (is_load && ((i.reg_list >> arm::PC) & 1) != 0) {
    e_.AluRegImm32(Alu::kAnd, R13, ~3u);
    e_.StoreMem32(RBX, kOffPc, R13);
    Charge(kCosts.branch_taken);
    EmitExit();
  }
}

void BlockCompiler::EmitBranch(const Instruction& i, word va) {
  Charge(kCosts.branch_taken);
  if (i.op == Op::kBx) {
    LoadGuestReg(RAX, i.rm);
    e_.AluRegImm32(Alu::kAnd, RAX, ~3u);
    e_.StoreMem32(RBX, kOffPc, RAX);
    EmitExit();
    return;
  }
  if (i.op == Op::kBl) {
    e_.MovRegImm32(RAX, va + 4);
    StoreGuestReg(arm::LR, RAX);
  }
  EmitStaticExit(static_cast<word>(static_cast<int64_t>(va) + 8 + i.branch_offset));
}

void BlockCompiler::EmitInsn(const Instruction& i, word va) {
  ++pending_.steps;
  const std::vector<size_t> fails = EmitCondFail(i.cond);
  // A failed condition retires the step as a 1-cycle fall-through.
  const Charges failed{pending_.steps, pending_.cycles + kCosts.alu};

  switch (i.op) {
    case Op::kMul:
      EmitMul(i);
      break;
    case Op::kMovw:
    case Op::kMovt:
      EmitMovwMovt(i);
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
  if (IsTerminator(i)) {
    // The body exited; the failed path exits on its own charges.
    for (const size_t f : fails) {
      e_.BindForward(f);
    }
    pending_ = failed;
    EmitStaticExit(va + 4);
    return;
  }
  // The paths merge. Both retired the same step; the one that charged more
  // cycles writes the difference, so the merged path owes the lesser count.
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
  EmitEntry(va, phys, mem.PageGenAt(mem.PageIndexOf(phys)), len_words);
  for (size_t k = 0; k < insns.size(); ++k) {
    EmitInsn(insns[k], va + 4 * static_cast<word>(k));
  }
  if (!terminated) {
    EmitStaticExit(va + 4 * len_words);
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
// probes, the two exits, the unlinked chain site's handler and the enter
// stub.
//
// The probes apply TlbWalk's hit rule (VPN, TTBR0, epoch, and the L1/L2
// descriptor pages' generations) and the access's permission in emitted
// code, counting a hit in InterpCacheStats::tlb_hits as TlbWalk does. Loads
// may use any hit: only user-readable walks are cached. A store hits only
// when the entry allows inline stores (writable, outside the live page-table
// footprint) and the page is not the running block's code page; it then
// bumps the page's generation as PhysMemory::Write does. Everything else
// returns 0, and the access takes its helper. One copy per engine, called
// from every access, keeps the bytes emitted per access small.
void EmitStubs(std::vector<uint8_t>& out, size_t entry[kNumStubs]) {
  using Alu = X64Emitter::Alu;
  using Sh = X64Emitter::Sh;
  using TlbEntry = arm::InterpCaches::TlbEntry;
  // The compares below read each field at its natural width.
  static_assert(sizeof(TlbEntry::vpn) == 4 && sizeof(TlbEntry::ttbr0) == 4 &&
                sizeof(TlbEntry::l1_gen) == 4 && sizeof(TlbEntry::l1_gen_idx) == 8 &&
                sizeof(TlbEntry::gen_idx) == 8 && sizeof(TlbEntry::inline_store) == 1);
  static_assert(sizeof(TlbEntry) == 64 && arm::InterpCaches::kTlbEntries <= 128);
  X64Emitter e;
  for (const bool store : {false, true}) {
    std::vector<size_t> misses;
    const auto miss_if = [&](uint8_t cc) { misses.push_back(e.JccForward(cc)); };
    entry[store ? kProbeStoreWord : kProbeLoadWord] = e.size();
    e.TestRegImm32(RSI, 3);
    miss_if(kCcNe);  // unaligned word: the helper takes the data abort
    entry[store ? kProbeStoreByte : kProbeLoadByte] = e.size();
    e.LoadMem64(RDI, RBP, store ? kRtOffStoreTlb : kRtOffLoadTlb);
    e.MovRegReg32(RAX, RSI);
    e.ShiftRegImm32(Sh::kShr, RAX, 12);  // eax = vpn
    e.MovRegReg32(RCX, RAX);
    e.AluRegImm32(Alu::kAnd, RCX, arm::InterpCaches::kTlbEntries - 1);
    e.ShiftRegImm32(Sh::kShl, RCX, 6);
    e.AluRegReg64(Alu::kAdd, RDI, RCX);  // rdi = &table[vpn & (entries - 1)]
    e.CmpRegMem32(RAX, RDI, offsetof(TlbEntry, vpn));
    miss_if(kCcNe);
    e.LoadMem32(RAX, RBP, kRtOffTtbr0);
    e.CmpRegMem32(RAX, RDI, offsetof(TlbEntry, ttbr0));
    miss_if(kCcNe);
    e.LoadMem64(RAX, RBP, kRtOffTlbEpoch);
    e.CmpRegMem64(RAX, RDI, offsetof(TlbEntry, epoch));
    miss_if(kCcNe);
    e.LoadMem64(RDX, RBP, kRtOffGens);
    for (const auto& [idx, gen] :
         {std::pair{offsetof(TlbEntry, l1_gen_idx), offsetof(TlbEntry, l1_gen)},
          std::pair{offsetof(TlbEntry, l2_gen_idx), offsetof(TlbEntry, l2_gen)}}) {
      e.LoadMem64(RAX, RDI, idx);
      e.LoadIndex32(RCX, RDX, RAX, 0);
      e.CmpRegMem32(RCX, RDI, gen);
      miss_if(kCcNe);
    }
    e.LoadMem64(RAX, RDI, offsetof(TlbEntry, host));
    if (store) {
      e.CmpMem8Imm(RDI, offsetof(TlbEntry, inline_store), 0);
      miss_if(kCcE);
      e.LoadMem64(RCX, RDI, offsetof(TlbEntry, gen_idx));
      e.CmpRegMem64(RCX, RBP, kRtOffCodeGenIdx);
      miss_if(kCcE);
      e.IncIndex32(RDX, RCX);  // the store's generation bump
    } else {
      e.TestRegReg64(RAX, RAX);
      miss_if(kCcE);  // the descriptor names no mapped page
    }
    e.MovRegReg32(RCX, RSI);
    e.AluRegImm32(Alu::kAnd, RCX, arm::kPageSize - 1);
    e.AluRegReg64(Alu::kAdd, RAX, RCX);
    e.LoadMem64(RCX, RBP, kRtOffTlbHits);
    e.IncMem64(RCX, 0);
    e.Ret();
    for (const size_t m : misses) {
      e.BindForward(m);
    }
    e.AluRegReg32(Alu::kXor, RAX, RAX);
    e.Ret();
  }

  // The exits, and the one epilogue of the frame the enter stub builds.
  entry[kStubExit] = e.size();
  e.AluRegReg32(Alu::kXor, RAX, RAX);
  entry[kStubExitStatus] = e.size();
  for (const int r : {R14, R13, R12, RBP, RBX}) {
    e.PopR64(r);
  }
  e.Ret();

  // An unlinked chain site called this: its return address is the site's
  // exit jump, followed by the target word. Set m->pc from the word, report
  // the site and return to the exit jump; the call and return pair up, so
  // the return-stack predictor stays in step.
  entry[kStubUnlinked] = e.size();
  e.LoadMem64(RAX, RSP, 0);
  e.LoadMem32(RCX, RAX, kChainTargetOff - kChainCallBytes);
  e.StoreMem32(RBX, kOffPc, RCX);
  e.StoreMem64(RBP, kRtOffExitJump, RAX);
  e.Ret();

  // enter(m, rt, entry): five pushes after the return address keep rsp
  // 16-byte aligned at the helper calls inside blocks.
  entry[kStubEnter] = e.size();
  for (const int r : {RBX, RBP, R12, R13, R14}) {
    e.PushR64(r);
  }
  e.MovRegReg64(RBX, RDI);
  e.MovRegReg64(RBP, RSI);
  e.JmpReg(RDX);
  out = e.TakeCode();
}

}  // namespace komodo::jit
