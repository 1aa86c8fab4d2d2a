// A32 encoder/decoder for the modelled subset. Encodings follow DDI 0406C
// chapter A8; Decode() is the inverse of Encode() on every representable
// instruction (property-tested), and rejects the rest of the encoding space.
#include "src/arm/isa.h"

#include <cassert>
#include <cstdio>

namespace komodo::arm {

namespace {

constexpr word kDpOpcode(Op op) {
  // Data-processing opcode field values (bits 24:21).
  switch (op) {
    case Op::kAnd:
      return 0x0;
    case Op::kEor:
      return 0x1;
    case Op::kSub:
      return 0x2;
    case Op::kRsb:
      return 0x3;
    case Op::kAdd:
      return 0x4;
    case Op::kAdc:
      return 0x5;
    case Op::kSbc:
      return 0x6;
    case Op::kRsc:
      return 0x7;
    case Op::kTst:
      return 0x8;
    case Op::kTeq:
      return 0x9;
    case Op::kCmp:
      return 0xa;
    case Op::kCmn:
      return 0xb;
    case Op::kOrr:
      return 0xc;
    case Op::kMov:
      return 0xd;
    case Op::kBic:
      return 0xe;
    case Op::kMvn:
      return 0xf;
    default:
      return 0xff;
  }
}

Op DpOpFromOpcode(word opcode) {
  static constexpr Op kTable[16] = {Op::kAnd, Op::kEor, Op::kSub, Op::kRsb, Op::kAdd, Op::kAdc,
                                    Op::kSbc, Op::kRsc, Op::kTst, Op::kTeq, Op::kCmp, Op::kCmn,
                                    Op::kOrr, Op::kMov, Op::kBic, Op::kMvn};
  return kTable[opcode & 0xf];
}

word RotateRight(word value, unsigned amount) {
  amount &= 31;
  if (amount == 0) {
    return value;
  }
  return (value >> amount) | (value << (32 - amount));
}

}  // namespace

Operand2 Operand2::Imm(uint8_t imm8, uint8_t rot4) {
  Operand2 o;
  o.is_imm = true;
  o.imm8 = imm8;
  o.rot4 = static_cast<uint8_t>(rot4 & 0xf);
  return o;
}

Operand2 Operand2::Rm(Reg rm, ShiftKind shift, uint8_t shift_imm) {
  Operand2 o;
  o.is_imm = false;
  o.rm = rm;
  o.shift = shift;
  o.shift_imm = static_cast<uint8_t>(shift_imm & 0x1f);
  return o;
}

std::optional<Operand2> Operand2::TryImm32(word value) {
  // value == ror(imm8, 2*rot)  <=>  imm8 == rol(value, 2*rot)
  for (unsigned rot = 0; rot < 16; ++rot) {
    const unsigned amount = 2 * rot;
    const word candidate = (amount == 0) ? value : ((value << amount) | (value >> (32 - amount)));
    if (candidate <= 0xff) {
      return Imm(static_cast<uint8_t>(candidate), static_cast<uint8_t>(rot));
    }
  }
  return std::nullopt;
}

word Operand2::ImmValue() const {
  assert(is_imm);
  return RotateRight(imm8, 2u * rot4);
}

word Encode(const Instruction& insn) {
  const word cond = static_cast<word>(insn.cond) << 28;

  if (IsDataProcessing(insn.op)) {
    word bits = cond | (kDpOpcode(insn.op) << 21);
    if (insn.set_flags || IsCompare(insn.op)) {
      bits |= 1u << 20;
    }
    bits |= static_cast<word>(insn.rn) << 16;
    bits |= static_cast<word>(insn.rd) << 12;
    if (insn.op2.is_imm) {
      bits |= 1u << 25;
      bits |= static_cast<word>(insn.op2.rot4) << 8;
      bits |= insn.op2.imm8;
    } else {
      bits |= static_cast<word>(insn.op2.shift_imm) << 7;
      bits |= static_cast<word>(insn.op2.shift) << 5;
      bits |= static_cast<word>(insn.op2.rm);
    }
    return bits;
  }

  switch (insn.op) {
    case Op::kMul: {
      // MUL rd, rm, rs: rd at 19:16, rs at 11:8, rm at 3:0. We carry rs in rn.
      word bits = cond | 0x0000'0090;
      if (insn.set_flags) {
        bits |= 1u << 20;
      }
      bits |= static_cast<word>(insn.rd) << 16;
      bits |= static_cast<word>(insn.rn) << 8;
      bits |= static_cast<word>(insn.rm);
      return bits;
    }
    case Op::kMovw:
    case Op::kMovt: {
      const word imm16 = insn.trap_imm & 0xffff;
      word bits = cond | ((insn.op == Op::kMovw) ? 0x0300'0000u : 0x0340'0000u);
      bits |= (imm16 >> 12) << 16;
      bits |= static_cast<word>(insn.rd) << 12;
      bits |= imm16 & 0xfff;
      return bits;
    }
    case Op::kLdr:
    case Op::kStr:
    case Op::kLdrb:
    case Op::kStrb: {
      const bool is_load = insn.op == Op::kLdr || insn.op == Op::kLdrb;
      const bool is_byte = insn.op == Op::kLdrb || insn.op == Op::kStrb;
      word bits = cond | (1u << 26) | (1u << 24);  // P=1, W=0 (offset addressing)
      if (insn.mem_add) {
        bits |= 1u << 23;
      }
      if (is_byte) {
        bits |= 1u << 22;
      }
      if (is_load) {
        bits |= 1u << 20;
      }
      bits |= static_cast<word>(insn.rn) << 16;
      bits |= static_cast<word>(insn.rd) << 12;
      if (insn.mem_reg_offset) {
        bits |= 1u << 25;
        bits |= static_cast<word>(insn.rm);  // no shift
      } else {
        assert(insn.mem_imm12 <= 0xfff);
        bits |= insn.mem_imm12;
      }
      return bits;
    }
    case Op::kLdm:
    case Op::kStm: {
      word bits = cond | (0x4u << 25);
      if (insn.block_pre) {
        bits |= 1u << 24;
      }
      if (insn.mem_add) {
        bits |= 1u << 23;
      }
      if (insn.block_wback) {
        bits |= 1u << 21;
      }
      if (insn.op == Op::kLdm) {
        bits |= 1u << 20;
      }
      bits |= static_cast<word>(insn.rn) << 16;
      bits |= insn.reg_list;
      return bits;
    }
    case Op::kB:
    case Op::kBl: {
      word bits = cond | (0x5u << 25);
      if (insn.op == Op::kBl) {
        bits |= 1u << 24;
      }
      assert((insn.branch_offset & 3) == 0);
      const word imm24 = (static_cast<word>(insn.branch_offset) >> 2) & 0x00ff'ffff;
      bits |= imm24;
      return bits;
    }
    case Op::kBx:
      return cond | 0x012f'ff10 | static_cast<word>(insn.rm);
    case Op::kSvc:
      return cond | (0xfu << 24) | (insn.trap_imm & 0x00ff'ffff);
    case Op::kSmc:
      return cond | 0x0160'0070 | (insn.trap_imm & 0xf);
    case Op::kMrs: {
      word bits = cond | 0x010f'0000;
      if (insn.uses_spsr) {
        bits |= 1u << 22;
      }
      bits |= static_cast<word>(insn.rd) << 12;
      return bits;
    }
    case Op::kMsr: {
      word bits = cond | 0x0129'f000;  // mask = 0b1001 (flags+control)
      if (insn.uses_spsr) {
        bits |= 1u << 22;
      }
      bits |= static_cast<word>(insn.rm);
      return bits;
    }
    case Op::kMcr:
    case Op::kMrc: {
      word bits = cond | 0x0e00'0f10;  // coproc 15
      if (insn.op == Op::kMrc) {
        bits |= 1u << 20;
      }
      bits |= static_cast<word>(insn.cp_opc1 & 0x7) << 21;
      bits |= static_cast<word>(insn.cp_crn & 0xf) << 16;
      bits |= static_cast<word>(insn.rd) << 12;
      bits |= static_cast<word>(insn.cp_opc2 & 0x7) << 5;
      bits |= static_cast<word>(insn.cp_crm & 0xf);
      return bits;
    }
    default:
      assert(false && "unencodable instruction");
      return 0;
  }
}

std::optional<Instruction> Decode(word bits) {
  const word cond_bits = bits >> 28;
  if (cond_bits == 0xf) {
    return std::nullopt;  // unconditional space unmodelled
  }
  Instruction insn;
  insn.cond = static_cast<Cond>(cond_bits);

  const word op1 = (bits >> 25) & 0x7;

  // SVC: bits[27:24] = 1111.
  if (((bits >> 24) & 0xf) == 0xf) {
    insn.op = Op::kSvc;
    insn.trap_imm = bits & 0x00ff'ffff;
    return insn;
  }

  if (op1 == 0x5) {  // B / BL
    insn.op = ((bits >> 24) & 1) ? Op::kBl : Op::kB;
    word imm24 = bits & 0x00ff'ffff;
    // Sign-extend 24 -> 32 and convert to byte offset.
    int32_t off = static_cast<int32_t>(imm24 << 8) >> 8;
    insn.branch_offset = off * 4;
    return insn;
  }

  if (op1 == 0x4) {  // LDM/STM
    if ((bits >> 22) & 1) {
      return std::nullopt;  // S bit (user bank / exception return) unmodelled
    }
    if ((bits & 0xffff) == 0) {
      return std::nullopt;  // empty register list is unpredictable
    }
    insn.op = ((bits >> 20) & 1) ? Op::kLdm : Op::kStm;
    insn.block_pre = (bits >> 24) & 1;
    insn.mem_add = (bits >> 23) & 1;
    insn.block_wback = (bits >> 21) & 1;
    insn.rn = static_cast<Reg>((bits >> 16) & 0xf);
    insn.reg_list = static_cast<uint16_t>(bits & 0xffff);
    if (insn.rn == PC) {
      return std::nullopt;
    }
    return insn;
  }

  if (op1 == 0x2 || op1 == 0x3) {  // LDR/STR
    const bool reg_offset = (op1 == 0x3);
    if (reg_offset && (bits & 0x0000'0ff0) != 0) {
      return std::nullopt;  // shifted register offsets unmodelled
    }
    const bool p = (bits >> 24) & 1;
    const bool w = (bits >> 21) & 1;
    if (!p || w) {
      return std::nullopt;  // pre/post-indexed writeback unmodelled
    }
    const bool is_byte = (bits >> 22) & 1;
    const bool is_load = (bits >> 20) & 1;
    insn.op = is_load ? (is_byte ? Op::kLdrb : Op::kLdr) : (is_byte ? Op::kStrb : Op::kStr);
    insn.mem_add = (bits >> 23) & 1;
    insn.rn = static_cast<Reg>((bits >> 16) & 0xf);
    insn.rd = static_cast<Reg>((bits >> 12) & 0xf);
    insn.mem_reg_offset = reg_offset;
    if (reg_offset) {
      insn.rm = static_cast<Reg>(bits & 0xf);
    } else {
      insn.mem_imm12 = static_cast<uint16_t>(bits & 0xfff);
    }
    return insn;
  }

  if (op1 == 0x0 || op1 == 0x1) {
    const bool imm_form = (op1 == 0x1);
    const word opcode = (bits >> 21) & 0xf;
    const bool s_bit = (bits >> 20) & 1;

    // MUL: bits[27:21]=0, bits[7:4]=1001.
    if (!imm_form && (bits & 0x0fc0'00f0) == 0x0000'0090) {
      insn.op = Op::kMul;
      insn.set_flags = s_bit;
      insn.rd = static_cast<Reg>((bits >> 16) & 0xf);
      insn.rn = static_cast<Reg>((bits >> 8) & 0xf);  // rs carried in rn
      insn.rm = static_cast<Reg>(bits & 0xf);
      return insn;
    }

    // MOVW/MOVT reuse the S=0 compare-opcode space of the immediate form.
    if (imm_form && !s_bit && (opcode == 0x8 || opcode == 0xa)) {
      insn.op = (opcode == 0x8) ? Op::kMovw : Op::kMovt;
      insn.rd = static_cast<Reg>((bits >> 12) & 0xf);
      insn.trap_imm = (((bits >> 16) & 0xf) << 12) | (bits & 0xfff);
      return insn;
    }

    // Miscellaneous space: register form, opcode 10xx, S=0.
    if (!imm_form && !s_bit && (opcode & 0xc) == 0x8) {
      if ((bits & 0x0fbf'0fff) == 0x010f'0000) {
        insn.op = Op::kMrs;
        insn.uses_spsr = (bits >> 22) & 1;
        insn.rd = static_cast<Reg>((bits >> 12) & 0xf);
        return insn;
      }
      if ((bits & 0x0fb0'fff0) == 0x0120'f000) {
        insn.op = Op::kMsr;
        insn.uses_spsr = (bits >> 22) & 1;
        insn.rm = static_cast<Reg>(bits & 0xf);
        return insn;
      }
      if ((bits & 0x0fff'fff0) == 0x012f'ff10) {
        insn.op = Op::kBx;
        insn.rm = static_cast<Reg>(bits & 0xf);
        return insn;
      }
      if ((bits & 0x0fff'fff0) == 0x0160'0070) {
        insn.op = Op::kSmc;
        insn.trap_imm = bits & 0xf;
        return insn;
      }
      return std::nullopt;
    }

    // Plain data-processing.
    if (!imm_form) {
      if ((bits >> 4 & 1) != 0) {
        return std::nullopt;  // register-shifted register unmodelled
      }
    }
    insn.op = DpOpFromOpcode(opcode);
    if (IsCompare(insn.op) && !s_bit) {
      return std::nullopt;  // would be misc space; already handled above
    }
    insn.set_flags = s_bit;
    insn.rn = static_cast<Reg>((bits >> 16) & 0xf);
    insn.rd = static_cast<Reg>((bits >> 12) & 0xf);
    if (imm_form) {
      insn.op2 = Operand2::Imm(static_cast<uint8_t>(bits & 0xff),
                               static_cast<uint8_t>((bits >> 8) & 0xf));
    } else {
      insn.op2 = Operand2::Rm(static_cast<Reg>(bits & 0xf),
                              static_cast<ShiftKind>((bits >> 5) & 0x3),
                              static_cast<uint8_t>((bits >> 7) & 0x1f));
    }
    return insn;
  }

  if (op1 == 0x7 && ((bits >> 24) & 1) == 0 && ((bits >> 4) & 1) == 1) {
    // Coprocessor register transfer; only CP15 is modelled.
    if (((bits >> 8) & 0xf) != 15) {
      return std::nullopt;
    }
    insn.op = ((bits >> 20) & 1) ? Op::kMrc : Op::kMcr;
    insn.cp_opc1 = static_cast<uint8_t>((bits >> 21) & 0x7);
    insn.cp_crn = static_cast<uint8_t>((bits >> 16) & 0xf);
    insn.rd = static_cast<Reg>((bits >> 12) & 0xf);
    insn.cp_opc2 = static_cast<uint8_t>((bits >> 5) & 0x7);
    insn.cp_crm = static_cast<uint8_t>(bits & 0xf);
    return insn;
  }

  return std::nullopt;  // media, remaining coprocessor space: unmodelled
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kAnd:
      return "and";
    case Op::kEor:
      return "eor";
    case Op::kSub:
      return "sub";
    case Op::kRsb:
      return "rsb";
    case Op::kAdd:
      return "add";
    case Op::kAdc:
      return "adc";
    case Op::kSbc:
      return "sbc";
    case Op::kRsc:
      return "rsc";
    case Op::kTst:
      return "tst";
    case Op::kTeq:
      return "teq";
    case Op::kCmp:
      return "cmp";
    case Op::kCmn:
      return "cmn";
    case Op::kOrr:
      return "orr";
    case Op::kMov:
      return "mov";
    case Op::kBic:
      return "bic";
    case Op::kMvn:
      return "mvn";
    case Op::kMul:
      return "mul";
    case Op::kMovw:
      return "movw";
    case Op::kMovt:
      return "movt";
    case Op::kLdr:
      return "ldr";
    case Op::kStr:
      return "str";
    case Op::kLdrb:
      return "ldrb";
    case Op::kStrb:
      return "strb";
    case Op::kLdm:
      return "ldm";
    case Op::kStm:
      return "stm";
    case Op::kB:
      return "b";
    case Op::kBl:
      return "bl";
    case Op::kBx:
      return "bx";
    case Op::kSvc:
      return "svc";
    case Op::kSmc:
      return "smc";
    case Op::kMrs:
      return "mrs";
    case Op::kMsr:
      return "msr";
    case Op::kMcr:
      return "mcr";
    case Op::kMrc:
      return "mrc";
  }
  return "?";
}

std::string Instruction::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s r%d, r%d", OpName(op), rd, rn);
  return buf;
}

word BranchTargetAddr(word insn_addr, const Instruction& insn) {
  return static_cast<word>(static_cast<int64_t>(insn_addr) + 8 + insn.branch_offset);
}

bool IsExceptionReturn(const Instruction& insn) {
  return IsDataProcessing(insn.op) && !IsCompare(insn.op) && insn.set_flags && insn.rd == PC;
}

bool WritesPcIndirectly(const Instruction& insn) {
  switch (insn.op) {
    case Op::kBx:
      return true;
    case Op::kLdr:
      return insn.rd == PC;
    case Op::kLdm:
      return (insn.reg_list & (1u << PC)) != 0;
    default:
      // Compares never write rd; the exception-return idiom is classified
      // separately (it is a privileged instruction, not a plain branch).
      return IsDataProcessing(insn.op) && !IsCompare(insn.op) && insn.rd == PC &&
             !insn.set_flags;
  }
}

}  // namespace komodo::arm
