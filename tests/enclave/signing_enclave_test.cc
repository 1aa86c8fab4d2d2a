// Remote attestation via the trusted signing enclave (§4's deferred design):
// a genuine local attestation becomes a remotely-verifiable RSA signature;
// forgeries are refused because the signing enclave checks the MAC through
// the monitor before signing.
#include "src/enclave/signing_enclave.h"

#include <gtest/gtest.h>

#include "src/enclave/programs.h"
#include "src/os/world.h"
#include "src/spec/extract.h"

namespace komodo::enclave {
namespace {

using os::EnclaveHandle;
using os::World;

class SigningEnclaveTest : public ::testing::Test {
 protected:
  SigningEnclaveTest() : runtime(w.monitor) {
    // The attestor: an interpreted A32 enclave producing a local attestation.
    auto built_attestor = w.os.NewEnclave().Code(AttestProgram()).SharedPage().Build();
    EXPECT_TRUE(built_attestor.ok());
    if (built_attestor.ok()) attestor = *std::move(built_attestor);
    attestor_shared = attestor.shared_insecure_pgnr;

    // The signer: a native program in its own enclave.
    auto built_signer = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).SharedPage().Build();
    EXPECT_TRUE(built_signer.ok());
    if (built_signer.ok()) signer = *std::move(built_signer);
    signer_shared = signer.shared_insecure_pgnr;
    program = std::make_shared<SigningEnclave>(/*key_seed=*/99);
    runtime.Register(signer.l1pt, program);
    EXPECT_EQ(w.os.Enter(signer.thread, kSignerCmdInit).payload, 1u);
  }

  // Produces a local attestation from the attestor over data derived from
  // `seed`, then stages (data, measurement, mac) into the signer's shared
  // page. Returns the measurement.
  crypto::DigestWords Attest(word seed) {
    EXPECT_TRUE(w.os.Enter(attestor.thread, seed).exited());
    const auto db = spec::ExtractPageDb(w.machine);
    const auto measurement = db[attestor.addrspace].As<spec::AddrspacePage>().measurement;
    StageAttestation(w.os, signer_shared, seed, measurement, attestor_shared);
    return measurement;
  }

  std::vector<uint8_t> ReadSignature() {
    return w.os.ReadInsecureBytes(signer_shared, kSignerSigOffset, 128);
  }

  World w{128};
  NativeRuntime runtime;
  std::shared_ptr<SigningEnclave> program;
  EnclaveHandle attestor;
  EnclaveHandle signer;
  word attestor_shared = 0;
  word signer_shared = 0;
};

TEST_F(SigningEnclaveTest, PublishesEndorsableKey) {
  // The modulus in the shared page matches the in-enclave key.
  const std::vector<uint8_t> modulus =
      w.os.ReadInsecureBytes(signer_shared, kSignerPubkeyOffset, 128);
  EXPECT_EQ(crypto::BigNum::FromBytesBe(modulus), program->public_key().n);
}

TEST_F(SigningEnclaveTest, GenuineAttestationGetsSigned) {
  const crypto::DigestWords measurement = Attest(0x42);
  const os::EnterResult r = w.os.Enter(signer.thread, kSignerCmdSign);
  ASSERT_TRUE(r.exited());
  ASSERT_EQ(r.payload, 1u) << "signer refused a genuine attestation";

  // The remote verifier: checks against the endorsed public key only.
  std::array<word, 8> data;
  for (word i = 0; i < 8; ++i) {
    data[i] = 0x42 + i;
  }
  const std::vector<uint8_t> message = SigningEnclave::SignedMessage(measurement, data);
  EXPECT_TRUE(crypto::RsaVerifySha256(program->public_key(), message.data(), message.size(),
                                      ReadSignature()));
}

TEST_F(SigningEnclaveTest, RefusesTamperedData) {
  Attest(0x42);
  w.os.WriteInsecure(signer_shared, 0, 0xbad);  // OS tampers with the data
  EXPECT_EQ(w.os.Enter(signer.thread, kSignerCmdSign).payload, 0u);
}

TEST_F(SigningEnclaveTest, RefusesTamperedMeasurement) {
  Attest(0x42);
  const word original = w.os.ReadInsecure(signer_shared, 8);
  w.os.WriteInsecure(signer_shared, 8, original ^ 1);  // claim another identity
  EXPECT_EQ(w.os.Enter(signer.thread, kSignerCmdSign).payload, 0u);
}

TEST_F(SigningEnclaveTest, RefusesForgedMac) {
  Attest(0x42);
  for (word i = 16; i < 24; ++i) {
    w.os.WriteInsecure(signer_shared, i, 0x41414141);
  }
  EXPECT_EQ(w.os.Enter(signer.thread, kSignerCmdSign).payload, 0u);
}

TEST_F(SigningEnclaveTest, SignatureBindsToData) {
  // A signature over one payload must not verify for another.
  const crypto::DigestWords measurement = Attest(0x42);
  ASSERT_EQ(w.os.Enter(signer.thread, kSignerCmdSign).payload, 1u);
  std::array<word, 8> other_data;
  for (word i = 0; i < 8; ++i) {
    other_data[i] = 0x43 + i;
  }
  const std::vector<uint8_t> message = SigningEnclave::SignedMessage(measurement, other_data);
  EXPECT_FALSE(crypto::RsaVerifySha256(program->public_key(), message.data(), message.size(),
                                       ReadSignature()));
}

TEST_F(SigningEnclaveTest, SignBeforeInitRefused) {
  World fresh{128};
  NativeRuntime rt(fresh.monitor);
  EnclaveHandle e;
  auto built_e = fresh.os.NewEnclave().Code({0xe3a00001, 0xef000000}).SharedPage().Build();
  ASSERT_TRUE(built_e.ok());
  e = *std::move(built_e);
  auto p = std::make_shared<SigningEnclave>(1);
  rt.Register(e.l1pt, p);
  EXPECT_EQ(fresh.os.Enter(e.thread, kSignerCmdSign).payload, 0u);
}

}  // namespace
}  // namespace komodo::enclave
