// The notary (§8.2): functional correctness of both backends, signature
// verifiability, monotonic counters, and enclave/native equivalence.
#include "src/enclave/notary.h"

#include <gtest/gtest.h>

namespace komodo::enclave {
namespace {

TEST(NotaryCoreTest, SignaturesVerifyAndCounterAdvances) {
  NotaryCore core(1);
  core.Init();
  const std::vector<uint8_t> doc = {'d', 'o', 'c'};
  uint64_t cycles = 0;
  const std::vector<uint8_t> sig0 = core.Notarize(doc.data(), doc.size(), &cycles);
  EXPECT_EQ(core.counter(), 1u);
  // Verify against the exact message the notary signs: doc || counter(0).
  std::vector<uint8_t> message = doc;
  message.insert(message.end(), {0, 0, 0, 0});
  EXPECT_TRUE(
      crypto::RsaVerifySha256(core.public_key(), message.data(), message.size(), sig0));

  // Same document again gets a different signature (counter changed).
  const std::vector<uint8_t> sig1 = core.Notarize(doc.data(), doc.size(), &cycles);
  EXPECT_NE(sig0, sig1);
  EXPECT_FALSE(
      crypto::RsaVerifySha256(core.public_key(), message.data(), message.size(), sig1));
}

TEST(NotaryCoreTest, InitIdempotent) {
  NotaryCore core(1);
  EXPECT_GT(core.Init(), 0u);
  EXPECT_EQ(core.Init(), 0u);  // no second keygen
}

TEST(NotaryCoreTest, CostsScaleWithDocumentSize) {
  NotaryCore core(1);
  core.Init();
  std::vector<uint8_t> small(4096, 1);
  std::vector<uint8_t> large(65536, 1);
  uint64_t small_cycles = 0;
  uint64_t large_cycles = 0;
  core.Notarize(small.data(), small.size(), &small_cycles);
  core.Notarize(large.data(), large.size(), &large_cycles);
  EXPECT_GT(large_cycles, small_cycles);
  // Fixed RSA cost dominates at small sizes.
  EXPECT_GT(small_cycles, core.costs().rsa_sign_cycles);
}

TEST(NotaryEnclaveTest, InitPublishesModulus) {
  NotaryHost n(4242);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  const os::EnterResult r = n.world.os.Enter(n.thread, kNotaryCmdInit);
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 0u);
  // Modulus appears in the shared page following the document region.
  const std::vector<uint8_t> modulus =
      n.world.os.ReadInsecureBytes(n.doc_pg0, kNotaryPubkeyOffset, 128);
  EXPECT_EQ(crypto::BigNum::FromBytesBe(modulus), n.program->core().public_key().n);
}

TEST(NotaryEnclaveTest, NotarizeProducesVerifiableSignature) {
  NotaryHost n(4242);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  ASSERT_TRUE(n.world.os.Enter(n.thread, kNotaryCmdInit).exited());
  const std::vector<uint8_t> doc(1000, 0x5c);
  n.StageDocument(doc);
  const os::EnterResult r = n.world.os.Enter(n.thread, kNotaryCmdNotarize, 1000);
  ASSERT_TRUE(r.exited());
  EXPECT_EQ(r.payload, 1u);  // counter after first notarisation

  const std::vector<uint8_t> sig = n.Signature();
  std::vector<uint8_t> message = doc;
  message.insert(message.end(), {0, 0, 0, 0});
  EXPECT_TRUE(crypto::RsaVerifySha256(n.program->core().public_key(), message.data(),
                                      message.size(), sig));
}

TEST(NotaryEnclaveTest, CounterMonotonicAcrossEntries) {
  NotaryHost n(4242);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  ASSERT_TRUE(n.world.os.Enter(n.thread, kNotaryCmdInit).exited());
  const std::vector<uint8_t> doc(64, 1);
  n.StageDocument(doc);
  for (word expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(n.world.os.Enter(n.thread, kNotaryCmdNotarize, 64).payload, expected);
  }
}

TEST(NotaryEnclaveTest, RejectsOversizedDocument) {
  NotaryHost n(4242);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  ASSERT_TRUE(n.world.os.Enter(n.thread, kNotaryCmdInit).exited());
  EXPECT_EQ(n.world.os.Enter(n.thread, kNotaryCmdNotarize, kNotaryMaxDocBytes + 1).payload, 0u);
  EXPECT_EQ(n.world.os.Enter(n.thread, kNotaryCmdNotarize, 0).payload, 0u);
}

TEST(NotaryBackendsTest, EnclaveAndNativeProduceSameSignatures) {
  // Same key seed => both backends are the same notary; Figure 5 compares
  // their performance on identical work.
  NotaryHost n(777);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  ASSERT_TRUE(n.world.os.Enter(n.thread, kNotaryCmdInit).exited());
  NotaryNative native(777);
  native.Init();

  const std::vector<uint8_t> doc(4096, 0xd0);
  n.StageDocument(doc);
  ASSERT_EQ(n.world.os.Enter(n.thread, kNotaryCmdNotarize, 4096).payload, 1u);
  const std::vector<uint8_t> enclave_sig = n.Signature();
  const std::vector<uint8_t> native_sig = native.Notarize(doc);
  EXPECT_EQ(enclave_sig, native_sig);
}

TEST(NotaryBackendsTest, EnclaveCostExceedsNativeByCrossingOnly) {
  NotaryHost n(9);
  ASSERT_EQ(n.Build(), KomErr::kSuccess);
  NotaryNative native(9);
  ASSERT_TRUE(n.world.os.Enter(n.thread, kNotaryCmdInit).exited());
  native.Init();
  native.ResetCycles();

  const std::vector<uint8_t> doc(16384, 0x11);
  n.StageDocument(doc);
  const uint64_t before = n.world.machine.cycles.total();
  ASSERT_EQ(n.world.os.Enter(n.thread, kNotaryCmdNotarize, 16384).payload, 1u);
  const uint64_t enclave_cycles = n.world.machine.cycles.total() - before;
  native.Notarize(doc);
  const uint64_t native_cycles = native.cycles();

  EXPECT_GT(enclave_cycles, native_cycles);
  // The overhead is small relative to the work (Figure 5's whole point).
  const double overhead =
      static_cast<double>(enclave_cycles - native_cycles) / static_cast<double>(native_cycles);
  EXPECT_LT(overhead, 0.10) << "enclave overhead " << overhead * 100 << "%";
}

}  // namespace
}  // namespace komodo::enclave
