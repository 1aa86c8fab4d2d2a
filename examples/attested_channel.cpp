// Local attestation between two enclaves (§4): an "attestor" enclave MACs its
// identity + a payload via the monitor's Attest call; a "verifier" enclave
// checks it with Verify. The OS ferries the bytes but cannot forge them — the
// MAC key never leaves the monitor.
//
//   $ ./examples/attested_channel
#include <cstdio>

#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/extract.h"

using namespace komodo;

namespace {

os::EnclaveHandle Build(os::World& world, const std::vector<word>& code) {
  auto built = world.os.NewEnclave().Code(code).SharedPage().Build();
  if (!built.ok()) {
    std::printf("build failed\n");
    std::exit(1);
  }
  return *std::move(built);
}

}  // namespace

int main() {
  os::World world{128};
  const os::EnclaveHandle attestor = Build(world, enclave::AttestProgram());
  const os::EnclaveHandle verifier = Build(world, enclave::VerifyProgram());

  // The attestor binds user data (derived from 0x1000) to its identity.
  if (!world.os.Enter(attestor.thread, 0x1000).exited()) {
    return 1;
  }
  std::printf("attestor produced a MAC over (measurement, data)\n");

  // The OS reads the attestor's measurement (public) and the MAC from the
  // shared page, and hands everything to the verifier.
  const auto db = spec::ExtractPageDb(world.machine);
  const auto measurement = db[attestor.addrspace].As<spec::AddrspacePage>().measurement;
  enclave::StageAttestation(world.os, verifier.shared_insecure_pgnr, 0x1000, measurement,
                            attestor.shared_insecure_pgnr);
  os::EnterResult r = world.os.Enter(verifier.thread);
  std::printf("verifier says: %s\n", r.payload == 1 ? "genuine" : "FORGED");
  if (r.payload != 1) {
    return 1;
  }

  // A man-in-the-middle OS flips one bit of the payload: verification fails.
  world.os.WriteInsecure(verifier.shared_insecure_pgnr, 0, 0x1001);
  r = world.os.Enter(verifier.thread);
  std::printf("after OS tampering: %s\n", r.payload == 1 ? "genuine (BUG!)" : "rejected");
  return r.payload == 0 ? 0 : 1;
}
