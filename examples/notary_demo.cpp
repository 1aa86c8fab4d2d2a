// The trusted notary of §8.2: an enclave that timestamps documents with a
// monotonic counter and an RSA signature. A relying party that knows the
// notary's public key (published at init) can order documents conclusively —
// without trusting the OS that hosts the enclave.
//
//   $ ./examples/notary_demo
#include <cstdio>
#include <string>
#include <vector>

#include "src/arm/cycle_model.h"
#include "src/enclave/notary.h"

using namespace komodo;

int main() {
  enclave::NotaryHost host(/*key_seed=*/20260707);
  if (host.Build() != KomErr::kSuccess) {
    std::printf("failed to build the notary enclave\n");
    return 1;
  }

  std::printf("initialising notary (RSA-1024 keygen inside the enclave)...\n");
  if (!host.world.os.Enter(host.thread, enclave::kNotaryCmdInit).exited()) {
    return 1;
  }
  const crypto::RsaPublicKey& pub = host.program->core().public_key();
  std::printf("notary public modulus: %s...\n", pub.n.ToHex().substr(0, 32).c_str());

  const std::vector<std::string> documents = {
      "contract: alice sells bob one raspberry pi 2",
      "amendment: price is 35 dollars",
      "contract: alice sells bob one raspberry pi 2",  // same text, later stamp
  };
  for (const std::string& text : documents) {
    const std::vector<uint8_t> doc(text.begin(), text.end());
    host.StageDocument(doc);
    const uint64_t before = host.world.machine.cycles.total();
    const os::EnterResult r =
        host.world.os.Enter(host.thread, enclave::kNotaryCmdNotarize, doc.size());
    const uint64_t cycles = host.world.machine.cycles.total() - before;
    if (!r.exited() || r.payload == 0) {
      std::printf("notarisation failed\n");
      return 1;
    }
    const uint32_t stamp = r.payload - 1;  // counter value bound into the signature
    const std::vector<uint8_t> sig = host.Signature();

    // Relying party: verify document || stamp against the public key.
    std::vector<uint8_t> message = doc;
    message.push_back(static_cast<uint8_t>(stamp));
    message.push_back(static_cast<uint8_t>(stamp >> 8));
    message.push_back(static_cast<uint8_t>(stamp >> 16));
    message.push_back(static_cast<uint8_t>(stamp >> 24));
    const bool ok = crypto::RsaVerifySha256(pub, message.data(), message.size(), sig);
    std::printf("stamp %u  verify=%s  %.1f ms  \"%s\"\n", stamp, ok ? "OK" : "FAIL",
                arm::CyclesToMs(cycles), text.c_str());
    if (!ok) {
      return 1;
    }
  }
  std::printf("the two copies of the contract carry distinct, ordered stamps.\n");
  return 0;
}
