#include "src/enclave/sha256_program.h"

#include <cassert>

#include "src/arm/assembler.h"
#include "src/core/kom_defs.h"
#include "src/crypto/sha256.h"

namespace komodo::enclave {

using arm::Assembler;
using arm::Cond;
using arm::ShiftKind;
using namespace arm;  // register names

namespace {

// Data-page layout (byte offsets from kEnclaveDataVa).
constexpr word kWBase = 0x000;      // W[0..63]
constexpr word kHBase = 0x100;      // running H[0..7]
constexpr word kLoopState = 0x120;  // +0: blocks left, +4: VA of current block

}  // namespace

std::vector<word> Sha256Program() {
  Assembler a(os::kEnclaveCodeVa);
  const vaddr data = os::kEnclaveDataVa;
  const vaddr shared = os::kEnclaveSharedVa;

  Assembler::Label start = a.NewLabel();
  Assembler::Label k_table = a.NewLabel();
  Assembler::Label h_table = a.NewLabel();

  // Constant tables live in the (read-only, executable) code page; jump over.
  a.B(start);
  a.Bind(k_table);
  for (uint32_t k : crypto::kSha256RoundConstants) {
    a.EmitWord(k);
  }
  a.Bind(h_table);
  for (uint32_t h : crypto::kSha256InitState) {
    a.EmitWord(h);
  }

  a.Bind(start);
  // r0 = nblocks (Enter arg1). Persist the block-loop state.
  a.MovImm(R9, data + kLoopState);
  a.Str(R0, R9, 0);                   // remaining = nblocks
  a.MovImm(R10, shared);
  a.Str(R10, R9, 4);                  // cur = first block

  // H = initial constants (copied from the code page).
  a.MovImm(R8, a.AddrOf(h_table));
  a.Ldmia(R8, 0x00ff);                // r0-r7 = H0..H7
  a.MovImm(R9, data + kHBase);
  a.Stmia(R9, 0x00ff);

  Assembler::Label block_loop = a.NewLabel();
  Assembler::Label finish = a.NewLabel();
  a.Bind(block_loop);
  a.MovImm(R9, data + kLoopState);
  a.Ldr(R0, R9, 0);
  a.Cmp(R0, 0u);
  a.B(finish, Cond::kEq);

  // --- Copy the 16 message words into W[0..15] -------------------------------
  a.Ldr(R1, R9, 4);   // r1 = current block VA
  a.MovImm(R8, data + kWBase);  // r8 = W base (constant for the whole block)
  a.MovImm(R11, 0);
  Assembler::Label copy16 = a.NewLabel();
  a.Bind(copy16);
  a.LdrReg(R10, R1, R11);
  a.StrReg(R10, R8, R11);
  a.Add(R11, R11, 4u);
  a.Cmp(R11, 64u);
  a.B(copy16, Cond::kNe);

  // --- Message schedule: W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] ---
  Assembler::Label sched = a.NewLabel();
  a.Bind(sched);  // r11 = t*4, starts at 64
  a.Sub(R12, R11, 60u);        // &W[t-15]
  a.LdrReg(R9, R8, R12);
  a.Ror(R10, R9, 7);           // σ0 = ror7 ^ ror18 ^ shr3
  a.EorShifted(R10, R10, R9, ShiftKind::kRor, 18);
  a.EorShifted(R10, R10, R9, ShiftKind::kLsr, 3);
  a.Sub(R12, R11, 28u);        // + W[t-7]
  a.LdrReg(R9, R8, R12);
  a.Add(R10, R10, R9);
  a.Sub(R12, R11, 64u);        // + W[t-16]
  a.LdrReg(R9, R8, R12);
  a.Add(R10, R10, R9);
  a.Sub(R12, R11, 8u);         // σ1(W[t-2]) = ror17 ^ ror19 ^ shr10
  a.LdrReg(R9, R8, R12);
  a.Ror(R12, R9, 17);
  a.EorShifted(R12, R12, R9, ShiftKind::kRor, 19);
  a.EorShifted(R12, R12, R9, ShiftKind::kLsr, 10);
  a.Add(R10, R10, R12);
  a.StrReg(R10, R8, R11);
  a.Add(R11, R11, 4u);
  a.Cmp(R11, 256u);
  a.B(sched, Cond::kNe);

  // --- Compression: a..h in r0..r7, W base r8, K base sp, t*4 in r11 ----------
  a.MovImm(R9, data + kHBase);
  a.Ldmia(R9, 0x00ff);
  a.MovImm(SP, a.AddrOf(k_table));
  a.MovImm(R11, 0);
  Assembler::Label rounds = a.NewLabel();
  a.Bind(rounds);
  // T1 = h + Σ1(e) + Ch(e,f,g) + K[t] + W[t]          (e=r4 f=r5 g=r6 h=r7)
  a.Ror(R9, R4, 6);
  a.EorShifted(R9, R9, R4, ShiftKind::kRor, 11);
  a.EorShifted(R9, R9, R4, ShiftKind::kRor, 25);
  a.Add(R9, R9, R7);
  a.Eor(R10, R5, R6);          // Ch = g ^ (e & (f ^ g))
  a.And(R10, R4, R10);
  a.Eor(R10, R6, R10);
  a.Add(R9, R9, R10);
  a.LdrReg(R10, SP, R11);      // K[t]
  a.Add(R9, R9, R10);
  a.LdrReg(R10, R8, R11);      // W[t]
  a.Add(R9, R9, R10);          // r9 = T1
  // T2 = Σ0(a) + Maj(a,b,c); Maj's terms (a&b) and (c&(a^b)) are bitwise
  // disjoint, so plain additions compose them without carries.
  a.Ror(R10, R0, 2);
  a.EorShifted(R10, R10, R0, ShiftKind::kRor, 13);
  a.EorShifted(R10, R10, R0, ShiftKind::kRor, 22);
  a.Eor(R12, R0, R1);
  a.And(R12, R2, R12);
  a.Add(R10, R10, R12);
  a.And(R12, R0, R1);
  a.Add(R10, R10, R12);        // r10 = T2
  // Rotate the working variables.
  a.Mov(R7, R6);
  a.Mov(R6, R5);
  a.Mov(R5, R4);
  a.Add(R4, R3, R9);
  a.Mov(R3, R2);
  a.Mov(R2, R1);
  a.Mov(R1, R0);
  a.Add(R0, R9, R10);
  a.Add(R11, R11, 4u);
  a.Cmp(R11, 256u);
  a.B(rounds, Cond::kNe);

  // --- H += working variables ---------------------------------------------------
  a.MovImm(R12, data + kHBase);
  const Reg regs[8] = {R0, R1, R2, R3, R4, R5, R6, R7};
  for (int i = 0; i < 8; ++i) {
    a.Ldr(R9, R12, i * 4);
    a.Add(R9, R9, regs[i]);
    a.Str(R9, R12, i * 4);
  }

  // --- Next block -----------------------------------------------------------------
  a.MovImm(R9, data + kLoopState);
  a.Ldr(R10, R9, 0);
  a.Sub(R10, R10, 1u);
  a.Str(R10, R9, 0);
  a.Ldr(R10, R9, 4);
  a.Add(R10, R10, 64u);
  a.Str(R10, R9, 4);
  a.B(block_loop);

  // --- Publish the digest words and exit --------------------------------------------
  a.Bind(finish);
  a.MovImm(R9, data + kHBase);
  a.Ldmia(R9, 0x00ff);
  a.MovImm(R9, shared + kSha256ProgramDigestOffset);
  a.Stmia(R9, 0x00ff);
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

word StageSha256Message(os::Os& os, word shared_pg, const std::vector<uint8_t>& message) {
  // FIPS 180-4 padding: 0x80, zeros, 64-bit big-endian bit length.
  std::vector<uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  const word nblocks = static_cast<word>(padded.size() / 64);
  assert(nblocks <= kSha256ProgramMaxBlocks);
  // Stage as big-endian-converted words (the enclave computes on native
  // words; the byte-order flip is the driver's job, like the monitor's
  // block-alignment precondition in §7.2).
  for (word i = 0; i < padded.size() / 4; ++i) {
    const word be = (static_cast<word>(padded[i * 4]) << 24) |
                    (static_cast<word>(padded[i * 4 + 1]) << 16) |
                    (static_cast<word>(padded[i * 4 + 2]) << 8) | padded[i * 4 + 3];
    os.WriteInsecure(shared_pg, i, be);
  }
  return nblocks;
}

std::array<uint8_t, 32> ReadSha256Digest(os::Os& os, word shared_pg) {
  std::array<uint8_t, 32> digest;
  for (word i = 0; i < 8; ++i) {
    const word h = os.ReadInsecure(shared_pg, kSha256ProgramDigestOffset / 4 + i);
    digest[i * 4] = static_cast<uint8_t>(h >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h);
  }
  return digest;
}

}  // namespace komodo::enclave
