// Decoded representation of the modelled A32 instruction subset.
//
// The paper's machine model covers ~25 instructions (§5.1): integer and
// bitwise data-processing, multiply, loads/stores, branches, the trapping
// instructions (SVC/SMC), status-register moves, and the exception-return
// idiom MOVS PC, LR. We model the same subset with genuine A32 encodings so
// that the assembler and decoder are mutually inverse (a property the tests
// check exhaustively for the generator side).
#ifndef SRC_ARM_ISA_H_
#define SRC_ARM_ISA_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/arm/psr.h"
#include "src/arm/types.h"

namespace komodo::arm {

enum class Op : uint8_t {
  // Data-processing (opcode bits 24:21 in the encoding order).
  kAnd,
  kEor,
  kSub,
  kRsb,
  kAdd,
  kAdc,
  kSbc,
  kRsc,
  kTst,
  kTeq,
  kCmp,
  kCmn,
  kOrr,
  kMov,
  kBic,
  kMvn,
  // Multiply.
  kMul,
  // Wide immediates.
  kMovw,
  kMovt,
  // Memory.
  kLdr,
  kStr,
  kLdrb,
  kStrb,
  kLdm,
  kStm,
  // Branches.
  kB,
  kBl,
  kBx,
  // Traps.
  kSvc,
  kSmc,
  // Status registers.
  kMrs,
  kMsr,
  // CP15 system-register access (TTBR0/TTBR1, TLBIALL, VBAR, SCR).
  kMcr,
  kMrc,
};

// The sixteen data-processing ops, which lead the enum.
constexpr bool IsDataProcessing(Op op) { return op <= Op::kMvn; }

// TST, TEQ, CMP and CMN: data-processing ops that only set the flags and
// never write rd.
constexpr bool IsCompare(Op op) { return op >= Op::kTst && op <= Op::kCmn; }

// Data-processing ops that read rn: all but MOV and MVN, which take only the
// shifter operand.
constexpr bool ReadsRn(Op op) { return IsDataProcessing(op) && op != Op::kMov && op != Op::kMvn; }

enum class ShiftKind : uint8_t { kLsl = 0, kLsr = 1, kAsr = 2, kRor = 3 };

// Flexible second operand of data-processing instructions: either a rotated
// 8-bit immediate or a register with an immediate shift.
struct Operand2 {
  bool is_imm = true;
  // Immediate form: value = ror(imm8, 2*rot4).
  uint8_t imm8 = 0;
  uint8_t rot4 = 0;
  // Register form.
  Reg rm = R0;
  ShiftKind shift = ShiftKind::kLsl;
  uint8_t shift_imm = 0;  // 0..31

  static Operand2 Imm(uint8_t imm8, uint8_t rot4 = 0);
  static Operand2 Rm(Reg rm, ShiftKind shift = ShiftKind::kLsl, uint8_t shift_imm = 0);
  // Tries to express an arbitrary 32-bit value as a rotated immediate.
  static std::optional<Operand2> TryImm32(word value);
  // The immediate value this operand denotes (immediate form only).
  word ImmValue() const;
};

struct Instruction {
  Op op = Op::kMov;
  Cond cond = Cond::kAl;
  bool set_flags = false;  // S bit (data-processing / MUL)

  Reg rd = R0;
  Reg rn = R0;
  Reg rm = R0;  // MUL / BX / MSR source / LDR-STR register offset
  Operand2 op2;

  // Memory form: [rn, #imm12] with U = sign of offset, or [rn, rm].
  bool mem_reg_offset = false;
  uint16_t mem_imm12 = 0;
  bool mem_add = true;  // U bit

  // Block transfer (LDM/STM): register list, pre-index (P) and writeback (W).
  // The modelled idiom covers the four usual addressing modes (IA/IB/DA/DB);
  // the S bit (user-bank/exception-return forms) is unmodelled.
  uint16_t reg_list = 0;
  bool block_pre = false;  // P bit
  bool block_wback = false;  // W bit

  // Branch: signed word offset relative to the instruction's address + 8.
  int32_t branch_offset = 0;

  // SVC/SMC immediate.
  word trap_imm = 0;

  // MRS/MSR: true = SPSR, false = CPSR.
  bool uses_spsr = false;

  // MCR/MRC coprocessor-15 operands (opc1, CRn, CRm, opc2); rd is Rt.
  uint8_t cp_opc1 = 0;
  uint8_t cp_crn = 0;
  uint8_t cp_crm = 0;
  uint8_t cp_opc2 = 0;

  std::string ToString() const;
};

// Encodes to a genuine A32 instruction word. Asserts that the instruction is
// representable (the assembler only builds representable forms).
word Encode(const Instruction& insn);

// Decodes an instruction word. Returns nullopt for anything outside the
// modelled subset — the executor treats that as an Undefined exception.
std::optional<Instruction> Decode(word bits);

const char* OpName(Op op);

// --- Static-analysis helpers (shared with src/analysis) -----------------------

// Resolved target of a direct branch (B/BL) at `insn_addr`: the executor
// computes insn_addr + 8 + branch_offset.
word BranchTargetAddr(word insn_addr, const Instruction& insn);

// True if the instruction writes the PC other than by falling through or by a
// direct B/BL: BX, data-processing with rd=PC, LDR into PC, or LDM with PC in
// the register list. Such targets are not statically resolvable in general.
bool WritesPcIndirectly(const Instruction& insn);

// True for the exception-return idiom MOVS/SUBS/... PC, ... (set_flags with
// rd=PC on a non-compare data-processing op) — privileged-only.
bool IsExceptionReturn(const Instruction& insn);

}  // namespace komodo::arm

#endif  // SRC_ARM_ISA_H_
