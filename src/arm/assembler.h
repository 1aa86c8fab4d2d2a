// A small programmatic assembler for the modelled A32 subset.
//
// This plays the role of the enclave-side toolchain: test and example
// enclaves are written against this builder and executed natively by the
// interpreter through the enclave's own page tables. Branch targets are
// label-based and resolved at Finish().
#ifndef SRC_ARM_ASSEMBLER_H_
#define SRC_ARM_ASSEMBLER_H_

#include <cstddef>
#include <vector>

#include "src/arm/isa.h"
#include "src/arm/types.h"

namespace komodo::arm {

class Assembler {
 public:
  // `base` is the virtual address the code will be placed at (needed to
  // resolve PC-relative branches).
  explicit Assembler(vaddr base) : base_(base) {}

  struct Label {
    size_t id;
  };

  Label NewLabel();
  void Bind(Label label);
  vaddr AddrOf(Label label) const;  // only valid after Bind
  vaddr CurrentAddr() const { return base_ + static_cast<word>(code_.size()) * kWordSize; }

  // --- Moves and arithmetic --------------------------------------------------
  // Loads an arbitrary 32-bit constant (MOV imm if encodable, else MOVW/MOVT).
  void MovImm(Reg rd, word value, Cond cond = Cond::kAl);
  void Mov(Reg rd, Reg rm, Cond cond = Cond::kAl);
  void Mvn(Reg rd, Reg rm);
  void Add(Reg rd, Reg rn, word imm, Cond cond = Cond::kAl);
  void Add(Reg rd, Reg rn, Reg rm, Cond cond = Cond::kAl);
  void Adc(Reg rd, Reg rn, Reg rm);
  void Sub(Reg rd, Reg rn, word imm, Cond cond = Cond::kAl);
  void Sub(Reg rd, Reg rn, Reg rm, Cond cond = Cond::kAl);
  void Sbc(Reg rd, Reg rn, Reg rm);
  void Rsb(Reg rd, Reg rn, word imm);
  void Mul(Reg rd, Reg rm, Reg rs);
  void And(Reg rd, Reg rn, word imm);
  void And(Reg rd, Reg rn, Reg rm);
  void Orr(Reg rd, Reg rn, word imm);
  void Orr(Reg rd, Reg rn, Reg rm);
  void Eor(Reg rd, Reg rn, word imm);
  void Eor(Reg rd, Reg rn, Reg rm);
  void Bic(Reg rd, Reg rn, word imm);
  void Lsl(Reg rd, Reg rm, uint8_t amount);
  void Lsr(Reg rd, Reg rm, uint8_t amount);
  void Asr(Reg rd, Reg rm, uint8_t amount);
  void Ror(Reg rd, Reg rm, uint8_t amount);
  // rd = rn OP (rm SHIFT #amount) — the general register form.
  void AddShifted(Reg rd, Reg rn, Reg rm, ShiftKind shift, uint8_t amount);
  void OrrShifted(Reg rd, Reg rn, Reg rm, ShiftKind shift, uint8_t amount);
  void EorShifted(Reg rd, Reg rn, Reg rm, ShiftKind shift, uint8_t amount);
  void AndShifted(Reg rd, Reg rn, Reg rm, ShiftKind shift, uint8_t amount);

  // --- Compares (always set flags) -------------------------------------------
  void Cmp(Reg rn, word imm, Cond cond = Cond::kAl);
  void Cmp(Reg rn, Reg rm, Cond cond = Cond::kAl);
  void Tst(Reg rn, word imm);

  // Flag-setting arithmetic (ADDS/SUBS) for multi-word carries.
  void Adds(Reg rd, Reg rn, Reg rm);
  void Subs(Reg rd, Reg rn, Reg rm);
  void Subs(Reg rd, Reg rn, word imm);

  // --- Memory -----------------------------------------------------------------
  void Ldr(Reg rd, Reg rn, int32_t offset = 0, Cond cond = Cond::kAl);
  void Str(Reg rd, Reg rn, int32_t offset = 0, Cond cond = Cond::kAl);
  void LdrReg(Reg rd, Reg rn, Reg rm);
  void StrReg(Reg rd, Reg rn, Reg rm);
  void Ldrb(Reg rd, Reg rn, int32_t offset = 0);
  void Strb(Reg rd, Reg rn, int32_t offset = 0);
  // Block transfers. `reg_mask` is a bitmask of registers (bit i = Ri).
  void Ldmia(Reg rn, uint16_t reg_mask, bool writeback = false);
  void Stmia(Reg rn, uint16_t reg_mask, bool writeback = false);
  void Push(uint16_t reg_mask);  // STMDB sp!, {...}
  void Pop(uint16_t reg_mask);   // LDMIA sp!, {...}

  // --- Control flow -------------------------------------------------------------
  void B(Label target, Cond cond = Cond::kAl);
  void Bl(Label target, Cond cond = Cond::kAl);
  void Bx(Reg rm);

  // --- Traps and system ----------------------------------------------------------
  void Svc(word imm = 0, Cond cond = Cond::kAl);
  void Smc(word imm = 0);
  void MrsCpsr(Reg rd);
  void MsrCpsr(Reg rm);
  // CP15 access (privileged, secure world): raw form plus the named system
  // registers the monitor uses.
  void Mcr(Reg rt, uint8_t opc1, uint8_t crn, uint8_t crm, uint8_t opc2);
  void Mrc(Reg rt, uint8_t opc1, uint8_t crn, uint8_t crm, uint8_t opc2);
  void WriteTtbr0(Reg rt) { Mcr(rt, 0, 2, 0, 0); }
  void ReadTtbr0(Reg rt) { Mrc(rt, 0, 2, 0, 0); }
  void TlbiAll(Reg rt) { Mcr(rt, 0, 8, 7, 0); }
  void ReadScr(Reg rt) { Mrc(rt, 0, 1, 1, 0); }
  void WriteScr(Reg rt) { Mcr(rt, 0, 1, 1, 0); }

  // Raw escape hatches.
  void Emit(const Instruction& insn);
  void EmitWord(word bits);

  // Resolves all branch fixups and returns the instruction words.
  std::vector<word> Finish();

  size_t size_words() const { return code_.size(); }

 private:
  void Dp(Op op, Reg rd, Reg rn, Operand2 op2, Cond cond = Cond::kAl, bool set_flags = false);
  void DpImm(Op op, Reg rd, Reg rn, word imm, Cond cond = Cond::kAl, bool set_flags = false);
  void Shift(Reg rd, Reg rm, ShiftKind kind, uint8_t amount);
  void MemOp(Op op, Reg rd, Reg rn, int32_t offset, Cond cond);

  struct Fixup {
    size_t code_index;
    size_t label_id;
  };

  vaddr base_;
  std::vector<word> code_;
  std::vector<vaddr> label_addrs_;  // ~0u = unbound
  std::vector<Fixup> fixups_;
  bool finished_ = false;
};

}  // namespace komodo::arm

#endif  // SRC_ARM_ASSEMBLER_H_
