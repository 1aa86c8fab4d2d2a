#include "src/jit/x64_emitter.h"

#include <cassert>

namespace komodo::jit {

void X64Emitter::B32(uint32_t v) {
  B(static_cast<uint8_t>(v));
  B(static_cast<uint8_t>(v >> 8));
  B(static_cast<uint8_t>(v >> 16));
  B(static_cast<uint8_t>(v >> 24));
}

void X64Emitter::B64(uint64_t v) {
  B32(static_cast<uint32_t>(v));
  B32(static_cast<uint32_t>(v >> 32));
}

void X64Emitter::Rex(bool w, int reg, int rm, int index, int byte_reg) {
  uint8_t rex = 0x40;
  if (w) {
    rex |= 0x08;
  }
  if (reg >= 8) {
    rex |= 0x04;
  }
  if (index >= 8) {
    rex |= 0x02;
  }
  if (rm >= 8) {
    rex |= 0x01;
  }
  if (rex != 0x40 || (byte_reg >= RSP && byte_reg <= RDI)) {
    B(rex);
  }
}

namespace {

bool FitsDisp8(int32_t disp) { return disp >= -128 && disp <= 127; }

}  // namespace

// mod=00 (no displacement) when disp is 0, except for an rbp/r13 base, whose
// mod=00 encoding means something else (rip-relative, or no base in a SIB).
uint8_t X64Emitter::Mod(int base, int32_t disp) {
  if (disp == 0 && (base & 7) != RBP) {
    return 0x00;
  }
  return FitsDisp8(disp) ? 0x40 : 0x80;
}

void X64Emitter::Disp(uint8_t mod, int32_t disp) {
  if (mod == 0x40) {
    B(static_cast<uint8_t>(disp));
  } else if (mod == 0x80) {
    B32(static_cast<uint32_t>(disp));
  }
}

void X64Emitter::ModRmDisp(int reg, int base, int32_t disp) {
  const uint8_t mod = Mod(base, disp);
  B(static_cast<uint8_t>(mod | ((reg & 7) << 3) | (base & 7)));
  if ((base & 7) == RSP) {
    B(0x24);  // SIB: no index, base = rsp/r12
  }
  Disp(mod, disp);
}

void X64Emitter::ModRmIndex(int reg, int base, int index, int32_t disp, int scale_log2) {
  assert(index != RSP);
  const uint8_t mod = Mod(base, disp);
  B(static_cast<uint8_t>(mod | ((reg & 7) << 3) | RSP));  // rm=100: SIB
  B(static_cast<uint8_t>((scale_log2 << 6) | ((index & 7) << 3) | (base & 7)));
  Disp(mod, disp);
}

void X64Emitter::PushR64(int r) {
  if (r >= 8) {
    B(0x41);
  }
  B(static_cast<uint8_t>(0x50 | (r & 7)));
}

void X64Emitter::PopR64(int r) {
  if (r >= 8) {
    B(0x41);
  }
  B(static_cast<uint8_t>(0x58 | (r & 7)));
}

void X64Emitter::Ret() { B(0xc3); }

void X64Emitter::CallReg(int r) {
  if (r >= 8) {
    B(0x41);
  }
  B(0xff);
  B(static_cast<uint8_t>(0xd0 | (r & 7)));  // mod=11 /2
}

void X64Emitter::CallMem(int base, int32_t disp) {
  Rex(false, 0, base);
  B(0xff);
  ModRmDisp(2, base, disp);  // /2 = call
}

void X64Emitter::CallBack(size_t target) {
  B(0xe8);
  B32(static_cast<uint32_t>(target - (buf_.size() + 4)));
}

void X64Emitter::JmpMem(int base, int32_t disp) {
  Rex(false, 0, base);
  B(0xff);
  ModRmDisp(4, base, disp);  // /4 = jmp
}

void X64Emitter::JmpReg(int r) {
  Rex(false, 0, r);
  B(0xff);
  B(static_cast<uint8_t>(0xe0 | (r & 7)));  // mod=11 /4
}

size_t X64Emitter::JccForward(uint8_t cc) {
  B(0x0f);
  B(static_cast<uint8_t>(0x80 | cc));
  const size_t fixup = buf_.size();
  B32(0);
  return fixup;
}

size_t X64Emitter::JmpForward() {
  B(0xe9);
  const size_t fixup = buf_.size();
  B32(0);
  return fixup;
}

void X64Emitter::BindForward(size_t fixup) {
  const uint32_t rel = static_cast<uint32_t>(buf_.size() - (fixup + 4));
  buf_[fixup] = static_cast<uint8_t>(rel);
  buf_[fixup + 1] = static_cast<uint8_t>(rel >> 8);
  buf_[fixup + 2] = static_cast<uint8_t>(rel >> 16);
  buf_[fixup + 3] = static_cast<uint8_t>(rel >> 24);
}

void X64Emitter::JmpBack(size_t target) {
  const int64_t rel8 = static_cast<int64_t>(target) - static_cast<int64_t>(buf_.size() + 2);
  if (rel8 >= -128) {
    B(0xeb);
    B(static_cast<uint8_t>(rel8));
    return;
  }
  B(0xe9);
  B32(static_cast<uint32_t>(target - (buf_.size() + 4)));
}

void X64Emitter::JccBack(uint8_t cc, size_t target) {
  const int64_t rel8 = static_cast<int64_t>(target) - static_cast<int64_t>(buf_.size() + 2);
  if (rel8 >= -128) {
    B(static_cast<uint8_t>(0x70 | cc));
    B(static_cast<uint8_t>(rel8));
    return;
  }
  B(0x0f);
  B(static_cast<uint8_t>(0x80 | cc));
  B32(static_cast<uint32_t>(target - (buf_.size() + 4)));
}

void X64Emitter::Data32(uint32_t v) { B32(v); }

void X64Emitter::MovRegImm64(int r, uint64_t v) {
  Rex(true, 0, r);
  B(static_cast<uint8_t>(0xb8 | (r & 7)));
  B64(v);
}

void X64Emitter::MovRegImm32(int r, uint32_t v) {
  Rex(false, 0, r);
  B(static_cast<uint8_t>(0xb8 | (r & 7)));
  B32(v);
}

void X64Emitter::MovRegReg32(int dst, int src) {
  Rex(false, dst, src);
  B(0x8b);
  B(static_cast<uint8_t>(0xc0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::MovRegReg64(int dst, int src) {
  Rex(true, dst, src);
  B(0x8b);
  B(static_cast<uint8_t>(0xc0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::LoadMem32(int dst, int base, int32_t disp) {
  Rex(false, dst, base);
  B(0x8b);
  ModRmDisp(dst, base, disp);
}

void X64Emitter::LoadMem64(int dst, int base, int32_t disp) {
  Rex(true, dst, base);
  B(0x8b);
  ModRmDisp(dst, base, disp);
}

void X64Emitter::StoreMem32(int base, int32_t disp, int src) {
  Rex(false, src, base);
  B(0x89);
  ModRmDisp(src, base, disp);
}

void X64Emitter::StoreMem64(int base, int32_t disp, int src) {
  Rex(true, src, base);
  B(0x89);
  ModRmDisp(src, base, disp);
}

void X64Emitter::StoreMemImm32(int base, int32_t disp, uint32_t imm) {
  Rex(false, 0, base);
  B(0xc7);
  ModRmDisp(0, base, disp);
  B32(imm);
}

void X64Emitter::LoadMemZx8(int dst, int base, int32_t disp) {
  Rex(false, dst, base);
  B(0x0f);
  B(0xb6);
  ModRmDisp(dst, base, disp);
}

void X64Emitter::LoadMem8(int dst, int base, int32_t disp) {
  Rex(false, dst, base, 0, dst);
  B(0x8a);
  ModRmDisp(dst, base, disp);
}

void X64Emitter::StoreMem8(int base, int32_t disp, int src) {
  Rex(false, src, base, 0, src);
  B(0x88);
  ModRmDisp(src, base, disp);
}

void X64Emitter::StoreMemImm8(int base, int32_t disp, uint8_t imm) {
  Rex(false, 0, base);
  B(0xc6);
  ModRmDisp(0, base, disp);
  B(imm);
}

void X64Emitter::LoadIndex32(int dst, int base, int index, int32_t disp) {
  Rex(false, dst, base, index);
  B(0x8b);
  ModRmIndex(dst, base, index, disp);
}

void X64Emitter::StoreIndex32(int base, int index, int32_t disp, int src) {
  Rex(false, src, base, index);
  B(0x89);
  ModRmIndex(src, base, index, disp);
}

void X64Emitter::LoadIndex64(int dst, int base, int index, int scale_log2, int32_t disp) {
  Rex(true, dst, base, index);
  B(0x8b);
  ModRmIndex(dst, base, index, disp, scale_log2);
}

void X64Emitter::StoreIndex64(int base, int index, int scale_log2, int32_t disp, int src) {
  Rex(true, src, base, index);
  B(0x89);
  ModRmIndex(src, base, index, disp, scale_log2);
}

void X64Emitter::CmpRegIndex64(int reg, int base, int index, int scale_log2, int32_t disp) {
  Rex(true, reg, base, index);
  B(0x3b);
  ModRmIndex(reg, base, index, disp, scale_log2);
}

void X64Emitter::AluRegReg32(Alu op, int dst, int src) {
  Rex(false, dst, src);
  B(static_cast<uint8_t>((static_cast<uint8_t>(op) << 3) | 0x03));
  B(static_cast<uint8_t>(0xc0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::AluRegReg64(Alu op, int dst, int src) {
  Rex(true, dst, src);
  B(static_cast<uint8_t>((static_cast<uint8_t>(op) << 3) | 0x03));
  B(static_cast<uint8_t>(0xc0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::AluRegImm32(Alu op, int r, uint32_t imm) {
  Rex(false, 0, r);
  const int32_t simm = static_cast<int32_t>(imm);
  if (simm >= -128 && simm <= 127) {
    B(0x83);
    B(static_cast<uint8_t>(0xc0 | (static_cast<uint8_t>(op) << 3) | (r & 7)));
    B(static_cast<uint8_t>(imm));
  } else {
    B(0x81);
    B(static_cast<uint8_t>(0xc0 | (static_cast<uint8_t>(op) << 3) | (r & 7)));
    B32(imm);
  }
}

void X64Emitter::LeaMem64(int dst, int base, int32_t disp) {
  Rex(true, dst, base);
  B(0x8d);
  ModRmDisp(dst, base, disp);
}

void X64Emitter::AluRegMem32(Alu op, int dst, int base, int32_t disp) {
  Rex(false, dst, base);
  B(static_cast<uint8_t>((static_cast<uint8_t>(op) << 3) | 0x03));
  ModRmDisp(dst, base, disp);
}

void X64Emitter::AluRegMem64(Alu op, int dst, int base, int32_t disp) {
  Rex(true, dst, base);
  B(static_cast<uint8_t>((static_cast<uint8_t>(op) << 3) | 0x03));
  ModRmDisp(dst, base, disp);
}

void X64Emitter::AluMemReg32(Alu op, int base, int32_t disp, int src) {
  Rex(false, src, base);
  B(static_cast<uint8_t>((static_cast<uint8_t>(op) << 3) | 0x01));
  ModRmDisp(src, base, disp);
}

void X64Emitter::AluMemImm32(Alu op, int base, int32_t disp, uint32_t imm) {
  Rex(false, 0, base);
  const int32_t simm = static_cast<int32_t>(imm);
  const bool short_imm = simm >= -128 && simm <= 127;
  B(short_imm ? 0x83 : 0x81);
  ModRmDisp(static_cast<uint8_t>(op), base, disp);
  if (short_imm) {
    B(static_cast<uint8_t>(imm));
  } else {
    B32(imm);
  }
}

void X64Emitter::TestRegReg32(int a, int b) {
  Rex(false, b, a);
  B(0x85);
  B(static_cast<uint8_t>(0xc0 | ((b & 7) << 3) | (a & 7)));
}

void X64Emitter::TestRegReg64(int a, int b) {
  Rex(true, b, a);
  B(0x85);
  B(static_cast<uint8_t>(0xc0 | ((b & 7) << 3) | (a & 7)));
}

void X64Emitter::TestRegImm32(int r, uint32_t imm) {
  Rex(false, 0, r);
  B(0xf7);
  B(static_cast<uint8_t>(0xc0 | (r & 7)));  // /0
  B32(imm);
}

void X64Emitter::NotReg32(int r) {
  Rex(false, 0, r);
  B(0xf7);
  B(static_cast<uint8_t>(0xd0 | (r & 7)));  // /2
}

void X64Emitter::ImulRegReg32(int dst, int src) {
  Rex(false, dst, src);
  B(0x0f);
  B(0xaf);
  B(static_cast<uint8_t>(0xc0 | ((dst & 7) << 3) | (src & 7)));
}

void X64Emitter::ShiftRegImm32(Sh k, int r, uint8_t amount) {
  assert(amount >= 1 && amount <= 31);
  Rex(false, 0, r);
  B(0xc1);
  B(static_cast<uint8_t>(0xc0 | (static_cast<uint8_t>(k) << 3) | (r & 7)));
  B(amount);
}

void X64Emitter::BtRegImm32(int r, uint8_t bit) {
  Rex(false, 0, r);
  B(0x0f);
  B(0xba);
  B(static_cast<uint8_t>(0xe0 | (r & 7)));  // /4
  B(bit);
}

void X64Emitter::ShrReg64Imm(int r, uint8_t amount) {
  Rex(true, 0, r);
  B(0xc1);
  B(static_cast<uint8_t>(0xe8 | (r & 7)));  // /5
  B(amount);
}

void X64Emitter::CmpMem8Imm(int base, int32_t disp, uint8_t imm) {
  Rex(false, 0, base);
  B(0x80);
  ModRmDisp(7, base, disp);  // /7 = cmp
  B(imm);
}

void X64Emitter::CmpReg8Mem8(int reg, int base, int32_t disp) {
  Rex(false, reg, base, 0, reg);
  B(0x3a);
  ModRmDisp(reg, base, disp);
}

void X64Emitter::CmpRegMem32(int reg, int base, int32_t disp) {
  Rex(false, reg, base);
  B(0x3b);
  ModRmDisp(reg, base, disp);
}

void X64Emitter::CmpRegMem64(int reg, int base, int32_t disp) {
  Rex(true, reg, base);
  B(0x3b);
  ModRmDisp(reg, base, disp);
}

void X64Emitter::CmpMem32Imm(int base, int32_t disp, uint32_t imm) {
  Rex(false, 0, base);
  const int32_t simm = static_cast<int32_t>(imm);
  B(simm >= -128 && simm <= 127 ? 0x83 : 0x81);
  ModRmDisp(7, base, disp);  // /7 = cmp
  if (simm >= -128 && simm <= 127) {
    B(static_cast<uint8_t>(imm));
  } else {
    B32(imm);
  }
}

void X64Emitter::IncMem64(int base, int32_t disp) {
  Rex(true, 0, base);
  B(0xff);
  ModRmDisp(0, base, disp);  // /0 = inc
}

void X64Emitter::IncReg64(int r) {
  Rex(true, 0, r);
  B(0xff);
  B(static_cast<uint8_t>(0xc0 | (r & 7)));  // /0 = inc
}

void X64Emitter::Cmc() { B(0xf5); }

void X64Emitter::AluMem64Imm(Alu op, int base, int32_t disp, uint32_t imm) {
  Rex(true, 0, base);
  if (imm <= 127) {
    B(0x83);
    ModRmDisp(static_cast<uint8_t>(op), base, disp);
    B(static_cast<uint8_t>(imm));
  } else {
    B(0x81);
    ModRmDisp(static_cast<uint8_t>(op), base, disp);
    B32(imm);
  }
}

void X64Emitter::SetccMem8(uint8_t cc, int base, int32_t disp) {
  Rex(false, 0, base);
  B(0x0f);
  B(static_cast<uint8_t>(0x90 | cc));
  ModRmDisp(0, base, disp);
}

}  // namespace komodo::jit
