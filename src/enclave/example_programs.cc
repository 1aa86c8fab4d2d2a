#include "src/enclave/example_programs.h"

#include "src/arm/assembler.h"
#include "src/core/kom_defs.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/os/os.h"

namespace komodo::enclave {

using namespace arm;

std::vector<word> QuickstartProgram() {
  Assembler a(os::kEnclaveCodeVa);
  a.Add(R1, R0, R1);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> HeapProgram() {
  Assembler a(os::kEnclaveCodeVa);
  a.Mov(R7, R0);  // spare #1
  a.MovImm(R0, kSvcMapData);
  a.Mov(R1, R7);
  a.MovImm(R2, MakeMapping(0x30000, kMapR | kMapW));
  a.Svc();
  a.MovImm(R4, 0x30000);
  a.MovImm(R5, 0xfeed);
  a.Str(R5, R4, 0);
  a.Ldr(R1, R4, 0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<word> VaultProgram() {
  constexpr word kMaxAttempts = 3;
  Assembler a(os::kEnclaveCodeVa);
  a.MovImm(R4, os::kEnclaveDataVa);
  a.MovImm(R5, os::kEnclaveSharedVa);

  // not_locked = ~0 iff attempts < kMaxAttempts (ASR drags out the sign bit).
  a.Ldr(R6, R4, 16);  // attempts
  a.Sub(R7, R6, kMaxAttempts);
  a.Asr(R11, R7, 31);

  // diff = OR of word-wise XORs against the secret; every word is always
  // compared, so the access pattern is guess-independent.
  a.MovImm(R7, 0);
  for (int i = 0; i < 4; ++i) {
    a.Ldr(R8, R4, i * 4);  // secret word
    a.Ldr(R9, R5, i * 4);  // guess word
    a.Eor(R8, R8, R9);
    a.Orr(R7, R7, R8);
  }

  // wrong = ~0 iff diff != 0: (diff | -diff) has the sign bit set exactly
  // when diff is nonzero.
  a.Rsb(R8, R7, 0u);
  a.Orr(R8, R8, R7);
  a.Asr(R12, R8, 31);

  a.And(R8, R12, R11);  // eff_wrong = wrong  & not_locked
  a.Mvn(R9, R12);
  a.And(R9, R9, R11);   // eff_ok    = ~wrong & not_locked

  // result = locked ? 2 : eff_ok ? 1 : 0, selected by masks.
  a.Mvn(R10, R11);
  a.And(R10, R10, 2);
  a.And(R7, R9, 1);
  a.Orr(R10, R10, R7);

  // attempts' = locked ? attempts : eff_wrong ? attempts + 1 : 0.
  a.Mvn(R7, R11);
  a.And(R7, R6, R7);
  a.Add(R6, R6, 1u);
  a.And(R6, R6, R8);
  a.Orr(R6, R6, R7);
  a.Str(R6, R4, 16);

  // Release the payload under the ok mask (zeros otherwise).
  for (int i = 0; i < 4; ++i) {
    a.Ldr(R2, R4, 20 + i * 4);
    a.And(R2, R2, R9);
    a.Str(R2, R5, 20 + i * 4);
  }

  a.Str(R10, R5, 16);  // result word
  a.Mov(R1, R10);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

std::vector<ShippedProgram> ShippedPrograms() {
  return {
      {"add_two", AddTwoProgram()},
      {"echo_shared", EchoSharedProgram()},
      {"counter", CounterProgram()},
      {"counter_batch", CounterBatchProgram()},
      {"echo_batch", EchoBatchProgram()},
      {"spin", SpinProgram()},
      {"attest", AttestProgram()},
      {"verify", VerifyProgram()},
      {"dyn_mem", DynMemProgram()},
      {"random", RandomProgram()},
      {"square_secret", SquareSecretProgram()},
      {"leak_secret", LeakSecretProgram()},
      {"sha256", Sha256Program()},
      // The examples' own programs. The vault in particular must stay
      // constant-time: a secret-dependent branch there is a real timing leak
      // in a demo about not leaking.
      {"example_quickstart", QuickstartProgram()},
      {"example_heap", HeapProgram()},
      {"example_vault", VaultProgram()},
      {"read_outside", ReadOutsideProgram(), false},
      {"write_code", WriteCodeProgram(), false},
      {"undefined_insn", UndefinedInsnProgram(), false},
  };
}

}  // namespace komodo::enclave
