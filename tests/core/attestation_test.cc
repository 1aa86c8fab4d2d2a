// Local attestation (§4): enclaves attest their identity; any enclave can
// verify another's attestation through the monitor, and forgeries fail.
#include <gtest/gtest.h>

#include "src/arm/assembler.h"
#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/extract.h"

namespace komodo {
namespace {

using os::EnclaveHandle;
using os::World;

class AttestationTest : public ::testing::Test {
 protected:
  World w{128};

  EnclaveHandle BuildWithShared(const std::vector<word>& code) {
    EnclaveHandle e;
    auto built_e = w.os.NewEnclave().Code(code).SharedPage().Build();
    EXPECT_TRUE(built_e.ok());
    if (built_e.ok()) e = *std::move(built_e);
    return e;
  }

  crypto::DigestWords MeasurementOf(PageNr as) {
    return spec::ExtractPageDb(w.machine)[as].As<spec::AddrspacePage>().measurement;
  }
};

TEST_F(AttestationTest, AttestThenVerifySucceeds) {
  const EnclaveHandle attestor = BuildWithShared(enclave::AttestProgram());
  const EnclaveHandle verifier = BuildWithShared(enclave::VerifyProgram());

  // Attestor produces a MAC over (its measurement, user data derived from 7).
  ASSERT_TRUE(w.os.Enter(attestor.thread, 7).exited());

  // The OS ferries data + attestor measurement + MAC to the verifier.
  const crypto::DigestWords measurement = MeasurementOf(attestor.addrspace);
  enclave::StageAttestation(w.os, verifier.shared_insecure_pgnr, 7, measurement,
                            attestor.shared_insecure_pgnr);
  const os::EnterResult r = w.os.Enter(verifier.thread);
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 1u) << "verification must succeed";
}

TEST_F(AttestationTest, VerifyRejectsTamperedData) {
  const EnclaveHandle attestor = BuildWithShared(enclave::AttestProgram());
  const EnclaveHandle verifier = BuildWithShared(enclave::VerifyProgram());
  ASSERT_TRUE(w.os.Enter(attestor.thread, 7).exited());
  const crypto::DigestWords measurement = MeasurementOf(attestor.addrspace);
  enclave::StageAttestation(w.os, verifier.shared_insecure_pgnr, 7, measurement,
                            attestor.shared_insecure_pgnr);
  w.os.WriteInsecure(verifier.shared_insecure_pgnr, 0, 9999);  // tamper with the data
  EXPECT_EQ(w.os.Enter(verifier.thread).payload, 0u);
}

TEST_F(AttestationTest, VerifyRejectsWrongMeasurement) {
  const EnclaveHandle attestor = BuildWithShared(enclave::AttestProgram());
  const EnclaveHandle verifier = BuildWithShared(enclave::VerifyProgram());
  ASSERT_TRUE(w.os.Enter(attestor.thread, 7).exited());
  crypto::DigestWords measurement = MeasurementOf(attestor.addrspace);
  measurement[3] ^= 1;  // claim a different identity
  enclave::StageAttestation(w.os, verifier.shared_insecure_pgnr, 7, measurement,
                            attestor.shared_insecure_pgnr);
  EXPECT_EQ(w.os.Enter(verifier.thread).payload, 0u);
}

TEST_F(AttestationTest, VerifyRejectsForgedMac) {
  const EnclaveHandle verifier = BuildWithShared(enclave::VerifyProgram());
  for (word i = 0; i < 24; ++i) {
    w.os.WriteInsecure(verifier.shared_insecure_pgnr, i, 0x41414141 + i);  // pure fabrication
  }
  EXPECT_EQ(w.os.Enter(verifier.thread).payload, 0u);
}

TEST_F(AttestationTest, MacDiffersAcrossBootsWithDifferentEntropy) {
  // The attestation key derives from boot entropy; a different boot produces
  // different MACs for the same enclave and data.
  auto mac_words = [](uint64_t seed) {
    Monitor::Config cfg;
    cfg.entropy_seed = seed;
    World world(128, cfg);
    os::EnclaveHandle e;
    auto built_e = world.os.NewEnclave().Code(enclave::AttestProgram()).SharedPage().Build();
    EXPECT_TRUE(built_e.ok());
    if (built_e.ok()) e = *std::move(built_e);
    EXPECT_TRUE(world.os.Enter(e.thread, 7).exited());
    std::array<word, 8> mac;
    for (word i = 0; i < 8; ++i) {
      mac[i] = world.os.ReadInsecure(e.shared_insecure_pgnr, i);
    }
    return mac;
  };
  EXPECT_EQ(mac_words(111), mac_words(111));
  EXPECT_NE(mac_words(111), mac_words(222));
}

TEST_F(AttestationTest, AttestRejectsBadPointers) {
  // An enclave passing an unmapped or unwritable MAC buffer gets an error,
  // not monitor memory corruption. We drive the SVC path with a hand-rolled
  // program that passes a bogus output pointer.
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.MovImm(R0, kSvcAttest);
  a.MovImm(R1, os::kEnclaveDataVa);
  a.MovImm(R2, 0x3f00'0000);  // unmapped target
  a.Svc();
  a.Mov(R1, R0);  // propagate the SVC error as the exit value
  a.MovImm(R0, kSvcExit);
  a.Svc();
  EnclaveHandle e;
  auto built_e = w.os.NewEnclave().Code(a.Finish()).Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  const os::EnterResult r = w.os.Enter(e.thread);
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.payload, kErrInvalidArgument);
}

}  // namespace
}  // namespace komodo
