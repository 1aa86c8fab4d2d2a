#include "src/enclave/programs.h"

#include "src/arm/assembler.h"
#include "src/core/kom_defs.h"
#include "src/os/os.h"

namespace komodo::enclave {

using arm::Assembler;
using arm::Cond;
using namespace arm;  // register names

namespace {

// All programs are linked at the conventional code VA.
Assembler NewAsm() { return Assembler(os::kEnclaveCodeVa); }

// Emits "r0 = kSvcExit; r1 = <retval already in reg>; svc".
void EmitExit(Assembler& a, Reg retval_reg) {
  if (retval_reg != R1) {
    a.Mov(R1, retval_reg);
  }
  a.MovImm(R0, kSvcExit);
  a.Svc();
}

}  // namespace

std::vector<word> AddTwoProgram() {
  Assembler a = NewAsm();
  a.Add(R1, R0, R1);  // arg1 + arg2
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> EchoSharedProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, os::kEnclaveSharedVa);
  a.Ldr(R5, R4, 0);             // x = shared[0]
  a.AddShifted(R6, R5, R5, ShiftKind::kLsl, 0);  // 2x via r5+r5
  a.Add(R6, R6, 1u);            // 2x + 1
  a.Str(R6, R4, 4);             // shared[1] = 2x+1
  EmitExit(a, R5);
  return a.Finish();
}

std::vector<word> CounterProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R5, R4, 0);   // counter
  a.Add(R5, R5, R0);  // += arg1
  a.Str(R5, R4, 0);
  EmitExit(a, R5);
  return a.Finish();
}

std::vector<word> SpinProgram() {
  Assembler a = NewAsm();
  Assembler::Label spin = a.NewLabel();
  Assembler::Label skip = a.NewLabel();
  a.Cmp(R0, 0u);
  a.B(skip, Cond::kEq);
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Str(R0, R4, 0);
  a.Bind(skip);
  a.MovImm(R6, 0);
  a.Bind(spin);
  a.Add(R6, R6, 1u);  // keep some visible progress in r6
  a.B(spin);
  return a.Finish();
}

std::vector<word> CounterBatchProgram() {
  Assembler a = NewAsm();
  Assembler::Label loop = a.NewLabel();
  Assembler::Label done = a.NewLabel();
  a.MovImm(R4, os::kEnclaveSharedVa);
  a.Ldr(R5, R4, 0);  // n
  a.MovImm(R9, os::kEnclaveDataVa);
  a.Ldr(R6, R9, 0);  // counter
  a.MovImm(R7, 0);   // i
  a.Bind(loop);
  a.Cmp(R7, R5);
  a.B(done, Cond::kCs);  // unsigned i >= n
  a.AddShifted(R8, R4, R7, ShiftKind::kLsl, 2);  // &shared[i]
  a.Ldr(R10, R8, 4);      // shared[1+i]
  a.Add(R6, R6, R10);     // counter += arg
  a.Str(R6, R8, 33 * 4);  // shared[33+i] = counter
  a.Add(R7, R7, 1u);
  a.B(loop);
  a.Bind(done);
  a.Str(R6, R9, 0);  // persist the counter in the private data page
  EmitExit(a, R5);
  return a.Finish();
}

std::vector<word> EchoBatchProgram() {
  Assembler a = NewAsm();
  Assembler::Label loop = a.NewLabel();
  Assembler::Label done = a.NewLabel();
  a.MovImm(R4, os::kEnclaveSharedVa);
  a.Ldr(R5, R4, 0);  // n
  a.MovImm(R7, 0);   // i
  a.Bind(loop);
  a.Cmp(R7, R5);
  a.B(done, Cond::kCs);
  a.AddShifted(R8, R4, R7, ShiftKind::kLsl, 2);
  a.Ldr(R10, R8, 4);   // x = shared[1+i]
  a.Add(R6, R10, R10);  // 2x
  a.Add(R6, R6, 1u);    // 2x + 1
  a.Str(R6, R8, 33 * 4);
  a.Add(R7, R7, 1u);
  a.B(loop);
  a.Bind(done);
  EmitExit(a, R5);
  return a.Finish();
}

std::vector<word> AttestProgram() {
  Assembler a = NewAsm();
  // data page: words 0..7 = user data (arg1 + i), words 8..15 = MAC output.
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Mov(R5, R0);  // arg1
  for (word i = 0; i < 8; ++i) {
    a.Add(R6, R5, i);
    a.Str(R6, R4, static_cast<int32_t>(i * 4));
  }
  a.MovImm(R0, kSvcAttest);
  a.MovImm(R1, os::kEnclaveDataVa);       // data
  a.MovImm(R2, os::kEnclaveDataVa + 32);  // mac out
  a.Svc();
  // Copy the MAC to the shared page for the OS to ferry to a verifier.
  a.MovImm(R4, os::kEnclaveDataVa + 32);
  a.MovImm(R7, os::kEnclaveSharedVa);
  for (word i = 0; i < 8; ++i) {
    a.Ldr(R6, R4, static_cast<int32_t>(i * 4));
    a.Str(R6, R7, static_cast<int32_t>(i * 4));
  }
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> VerifyProgram() {
  Assembler a = NewAsm();
  // Copy 24 words (data, measurement, mac) from shared into the private page
  // first — verifying against insecure memory directly would be TOCTOU-prone.
  a.MovImm(R4, os::kEnclaveSharedVa);
  a.MovImm(R5, os::kEnclaveDataVa);
  for (word i = 0; i < 24; ++i) {
    a.Ldr(R6, R4, static_cast<int32_t>(i * 4));
    a.Str(R6, R5, static_cast<int32_t>(i * 4));
  }
  a.MovImm(R0, kSvcVerify);
  a.MovImm(R1, os::kEnclaveDataVa);       // data[8]
  a.MovImm(R2, os::kEnclaveDataVa + 32);  // measurement[8]
  a.MovImm(R3, os::kEnclaveDataVa + 64);  // mac[8]
  a.Svc();
  EmitExit(a, R1);  // ok flag
  return a.Finish();
}

void StageAttestation(os::Os& os, word verifier_pg, word data_seed,
                      const crypto::DigestWords& measurement, word attestor_pg) {
  for (word i = 0; i < 8; ++i) {
    os.WriteInsecure(verifier_pg, i, data_seed + i);
    os.WriteInsecure(verifier_pg, 8 + i, measurement[i]);
    os.WriteInsecure(verifier_pg, 16 + i, os.ReadInsecure(attestor_pg, i));
  }
}

std::vector<word> DynMemProgram() {
  Assembler a = NewAsm();
  constexpr vaddr kDynVa = 0x0003'0000;
  Assembler::Label fail1 = a.NewLabel();
  Assembler::Label fail2 = a.NewLabel();
  Assembler::Label fail3 = a.NewLabel();

  a.Mov(R7, R0);  // spare page number from arg1
  // MapData(spare, kDynVa RW)
  a.MovImm(R0, kSvcMapData);
  a.Mov(R1, R7);
  a.MovImm(R2, MakeMapping(kDynVa, kMapR | kMapW));
  a.Svc();
  a.Cmp(R0, 0u);
  a.B(fail1, Cond::kNe);
  // Write and read back a pattern.
  a.MovImm(R4, kDynVa);
  a.MovImm(R5, 0x5a5a0000);
  a.Orr(R5, R5, 0x33);
  a.Str(R5, R4, 64);
  a.Ldr(R6, R4, 64);
  a.Cmp(R5, R6);
  a.B(fail2, Cond::kNe);
  // UnmapData(page, mapping)
  a.MovImm(R0, kSvcUnmapData);
  a.Mov(R1, R7);
  a.MovImm(R2, MakeMapping(kDynVa, kMapR | kMapW));
  a.Svc();
  a.Cmp(R0, 0u);
  a.B(fail3, Cond::kNe);
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();

  a.Bind(fail1);
  a.MovImm(R1, 1);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  a.Bind(fail2);
  a.MovImm(R1, 2);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  a.Bind(fail3);
  a.MovImm(R1, 3);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> RandomProgram() {
  Assembler a = NewAsm();
  a.MovImm(R7, os::kEnclaveSharedVa);
  for (word i = 0; i < 4; ++i) {
    a.MovImm(R0, kSvcGetRandom);
    a.Svc();
    a.Str(R1, R7, static_cast<int32_t>(i * 4));
  }
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> SquareSecretProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R5, R4, 0);
  a.Mul(R6, R5, R5);
  a.Str(R6, R4, 4);
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> LeakSecretProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R5, R4, 0);  // the secret
  a.MovImm(R6, os::kEnclaveSharedVa);
  a.Str(R5, R6, 0);  // deliberately publish it
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> ReadOutsideProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, 0x3f00'0000);  // inside the 1 GB window but unmapped
  a.Ldr(R5, R4, 0);
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> WriteCodeProgram() {
  Assembler a = NewAsm();
  a.MovImm(R4, os::kEnclaveCodeVa);
  a.MovImm(R5, 0);
  a.Str(R5, R4, 0);  // code page is RX, not W — data abort
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> UndefinedInsnProgram() {
  Assembler a = NewAsm();
  a.EmitWord(0xe7f0'00f0);  // permanently-undefined encoding space
  a.MovImm(R1, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

}  // namespace komodo::enclave
