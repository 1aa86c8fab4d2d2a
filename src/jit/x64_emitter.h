// Minimal x86-64 machine-code emitter for the A32 block translator.
//
// Emits into a plain byte vector; the engine copies finished blocks into the
// executable code cache. Only the addressing shapes the translator uses are
// provided: register-register and register-memory ALU, [base + disp] and
// [base + index*scale + disp] memory operands (no displacement for 0, an
// 8-bit one when it fits, else 32-bit), byte moves for the Psr flag bytes,
// setcc, forward jumps with fixups, backward jumps and calls to a known
// offset, absolute 64-bit calls, and calls and jumps through a pointer in
// memory (the stubs, DESIGN.md §13). The emitter itself is
// portable C++ and compiles on every host; only *executing* its output is
// x86-64 specific (see jit.cc's Available()).
#ifndef SRC_JIT_X64_EMITTER_H_
#define SRC_JIT_X64_EMITTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace komodo::jit {

// Register numbers in hardware encoding order.
enum X64Reg : int {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// Condition-code nibbles for jcc (0F 8x) and setcc (0F 9x).
enum X64Cc : uint8_t {
  kCcO = 0x0,   // overflow
  kCcNo = 0x1,
  kCcB = 0x2,   // below = carry set
  kCcAe = 0x3,  // above-or-equal = carry clear
  kCcE = 0x4,   // equal / zero
  kCcNe = 0x5,
  kCcS = 0x8,   // sign
  kCcNs = 0x9,
};

class X64Emitter {
 public:
  // x64 ALU /digit (and reg-form opcode) order.
  enum class Alu : uint8_t {
    kAdd = 0,
    kOr = 1,
    kAdc = 2,
    kSbb = 3,
    kAnd = 4,
    kSub = 5,
    kXor = 6,
    kCmp = 7,
  };
  // Group-2 shift /digit order.
  enum class Sh : uint8_t {
    kRol = 0,
    kRor = 1,
    kRcr = 3,
    kShl = 4,
    kShr = 5,
    kSar = 7,
  };

  size_t size() const { return buf_.size(); }
  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  // Moves the emitted bytes out, leaving the emitter empty.
  std::vector<uint8_t> TakeCode() { return std::move(buf_); }

  // --- Stack / control ------------------------------------------------------
  void PushR64(int r);
  void PopR64(int r);
  void Ret();
  void CallReg(int r);  // call r64
  void CallBack(size_t target);  // call rel32 to an already-emitted offset
  void CallMem(int base, int32_t disp);  // call qword [base + disp]
  void JmpMem(int base, int32_t disp);   // jmp qword [base + disp]
  void JmpReg(int r);                    // jmp r64
  // Forward jumps: emit with a rel32 placeholder, patch at the target.
  size_t JccForward(uint8_t cc);
  size_t JmpForward();
  void BindForward(size_t fixup);
  // Jumps to an already-emitted offset, rel8 when it reaches.
  void JmpBack(size_t target);
  void JccBack(uint8_t cc, size_t target);
  void Data32(uint32_t v);  // a raw little-endian word in the code stream

  // --- Moves ----------------------------------------------------------------
  void MovRegImm64(int r, uint64_t v);  // movabs
  void MovRegImm32(int r, uint32_t v);  // zero-extends into the full register
  void MovRegReg32(int dst, int src);
  void MovRegReg64(int dst, int src);
  void LoadMem32(int dst, int base, int32_t disp);    // mov r32, [base+disp]
  void LoadMem64(int dst, int base, int32_t disp);    // mov r64, [base+disp]
  void StoreMem32(int base, int32_t disp, int src);   // mov [base+disp], r32
  void StoreMem64(int base, int32_t disp, int src);   // mov [base+disp], r64
  void StoreMemImm32(int base, int32_t disp, uint32_t imm);
  void LoadMemZx8(int dst, int base, int32_t disp);   // movzx r32, byte [..]
  void LoadMem8(int dst, int base, int32_t disp);     // mov r8low, byte [..]
  void StoreMem8(int base, int32_t disp, int src);    // mov byte [..], r8low
  void StoreMemImm8(int base, int32_t disp, uint8_t imm);
  // mov r32, [base + index*4 + disp] and the store form (index != RSP).
  void LoadIndex32(int dst, int base, int index, int32_t disp);
  void StoreIndex32(int base, int index, int32_t disp, int src);
  // 64-bit forms over [base + index*(1 << scale_log2) + disp].
  void LoadIndex64(int dst, int base, int index, int scale_log2, int32_t disp);
  void StoreIndex64(int base, int index, int scale_log2, int32_t disp, int src);
  void CmpRegIndex64(int reg, int base, int index, int scale_log2, int32_t disp);
  void LeaMem64(int dst, int base, int32_t disp);  // lea r64, [base + disp]

  // --- ALU ------------------------------------------------------------------
  void AluRegReg32(Alu op, int dst, int src);
  void AluRegReg64(Alu op, int dst, int src);
  void AluRegImm32(Alu op, int r, uint32_t imm);
  void AluRegMem32(Alu op, int dst, int base, int32_t disp);  // op r32, [..]
  void AluRegMem64(Alu op, int dst, int base, int32_t disp);  // op r64, [..]
  void AluMemReg32(Alu op, int base, int32_t disp, int src);  // op [..], r32
  void AluMemImm32(Alu op, int base, int32_t disp, uint32_t imm);  // op dword [..], imm
  void TestRegReg32(int a, int b);
  void TestRegReg64(int a, int b);
  void TestRegImm32(int r, uint32_t imm);
  void NotReg32(int r);
  void ImulRegReg32(int dst, int src);
  void ShiftRegImm32(Sh k, int r, uint8_t amount);  // amount 1..31
  void BtRegImm32(int r, uint8_t bit);
  void ShrReg64Imm(int r, uint8_t amount);
  void CmpMem8Imm(int base, int32_t disp, uint8_t imm);
  void CmpReg8Mem8(int reg, int base, int32_t disp);  // cmp r8low, byte [..]
  void CmpRegMem32(int reg, int base, int32_t disp);  // cmp r32, [..]
  void CmpRegMem64(int reg, int base, int32_t disp);  // cmp r64, [..]
  void CmpMem32Imm(int base, int32_t disp, uint32_t imm);  // cmp dword [..], imm
  void AluMem64Imm(Alu op, int base, int32_t disp, uint32_t imm);  // op qword [..], imm
  void IncMem64(int base, int32_t disp);                   // inc qword [..]
  void IncReg64(int r);
  void Cmc();                                              // complement CF

  // --- Flags ----------------------------------------------------------------
  void SetccMem8(uint8_t cc, int base, int32_t disp);

 private:
  void B(uint8_t b) { buf_.push_back(b); }
  void B32(uint32_t v);
  void B64(uint64_t v);
  // REX prefix covering reg (R), index (X) and rm/base (B); emitted only when
  // needed, or when `byte_reg` is spl/bpl/sil/dil, which only a REX prefix
  // can name.
  void Rex(bool w, int reg, int rm, int index = 0, int byte_reg = -1);
  // ModRM for [base + disp] (mod=00 with no displacement for disp 0, mod=01
  // with disp8 when it fits, else mod=10 with disp32); handles the RSP/R12
  // SIB escape.
  void ModRmDisp(int reg, int base, int32_t disp);
  // ModRM+SIB for [base + index*(1 << scale_log2) + disp], displacement
  // sized as above.
  void ModRmIndex(int reg, int base, int index, int32_t disp, int scale_log2 = 2);
  static uint8_t Mod(int base, int32_t disp);  // the mod bits for [base + disp]
  void Disp(uint8_t mod, int32_t disp);        // the displacement `mod` calls for

  std::vector<uint8_t> buf_;
};

}  // namespace komodo::jit

#endif  // SRC_JIT_X64_EMITTER_H_
