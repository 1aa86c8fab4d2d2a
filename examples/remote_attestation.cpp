// Remote attestation end-to-end (§4's deferred design, implemented):
//
//   attestor enclave ──Attest──► monitor MAC ──OS ferries──► signing enclave
//        │                                                        │ Verify (monitor)
//        │                                                        │ RSA sign
//        ▼                                                        ▼
//   its measurement                               signature a REMOTE party can check
//
// The remote verifier trusts only the signing enclave's endorsed public key —
// it never sees the machine, the monitor, or the MAC key.
//
//   $ ./examples/remote_attestation
#include <cstdio>
#include <memory>

#include "src/enclave/programs.h"
#include "src/enclave/signing_enclave.h"
#include "src/os/world.h"
#include "src/spec/extract.h"

using namespace komodo;
using enclave::SigningEnclave;

int main() {
  os::World world{128};
  enclave::NativeRuntime runtime(world.monitor);

  // --- Attestor: an ordinary enclave with something to prove -------------------
  auto built_attestor = world.os.NewEnclave().Code(enclave::AttestProgram()).SharedPage().Build();
  if (!built_attestor.ok()) {
    return 1;
  }
  const os::EnclaveHandle attestor = *std::move(built_attestor);

  // --- Signing enclave: generates its key at init ------------------------------
  auto built_signer = world.os.NewEnclave().Code({0xe3a00001, 0xef000000}).SharedPage().Build();
  if (!built_signer.ok()) {
    return 1;
  }
  const os::EnclaveHandle signer = *std::move(built_signer);
  auto signing = std::make_shared<SigningEnclave>(/*key_seed=*/20170101);
  runtime.Register(signer.l1pt, signing);
  if (world.os.Enter(signer.thread, enclave::kSignerCmdInit).payload != 1) {
    return 1;
  }
  // "Provisioning": the device manufacturer endorses the signing key. The
  // remote verifier receives exactly this value out of band.
  const crypto::RsaPublicKey endorsed_key = signing->public_key();
  std::printf("signing enclave key endorsed: n = %s...\n",
              endorsed_key.n.ToHex().substr(0, 24).c_str());

  // --- 1. The attestor produces a local attestation ----------------------------
  const word kDataSeed = 0x7700;
  if (!world.os.Enter(attestor.thread, kDataSeed).exited()) {
    return 1;
  }
  const auto db = spec::ExtractPageDb(world.machine);
  const auto measurement = db[attestor.addrspace].As<spec::AddrspacePage>().measurement;
  std::printf("attestor produced a local MAC over its measurement + data\n");

  // --- 2. The untrusted OS ferries it to the signing enclave -------------------
  enclave::StageAttestation(world.os, signer.shared_insecure_pgnr, kDataSeed, measurement,
                            attestor.shared_insecure_pgnr);
  if (world.os.Enter(signer.thread, enclave::kSignerCmdSign).payload != 1) {
    std::printf("signing enclave refused — forged attestation?\n");
    return 1;
  }
  std::printf("signing enclave verified the MAC via the monitor and signed\n");

  // --- 3. The remote verifier, with nothing but the endorsed key ---------------
  const std::vector<uint8_t> signature =
      world.os.ReadInsecureBytes(signer.shared_insecure_pgnr, enclave::kSignerSigOffset, 128);
  std::array<word, 8> data;
  for (word i = 0; i < 8; ++i) {
    data[i] = kDataSeed + i;
  }
  const std::vector<uint8_t> message = SigningEnclave::SignedMessage(measurement, data);
  const bool ok =
      crypto::RsaVerifySha256(endorsed_key, message.data(), message.size(), signature);
  std::printf("remote verifier: signature %s — enclave identity %s\n", ok ? "valid" : "INVALID",
              ok ? "proven to a party that never saw this machine" : "NOT proven");
  if (!ok) {
    return 1;
  }

  // --- 4. And a forgery does not get signed -------------------------------------
  world.os.WriteInsecure(signer.shared_insecure_pgnr, 16, 0xdeadbeef);  // corrupt the MAC
  const bool refused = world.os.Enter(signer.thread, enclave::kSignerCmdSign).payload == 0;
  std::printf("forged MAC: signing enclave %s\n", refused ? "refused to sign" : "SIGNED (BUG)");
  return refused ? 0 : 1;
}
