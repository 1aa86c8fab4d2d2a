// The trusted notary from §8.2 (ported from Ironclad): assigns logical
// timestamps to documents. On first entry it constructs an RSA key pair,
// initialises a monotonic counter, and publishes its public key; on
// subsequent calls it hashes the provided document together with the counter,
// signs the result, increments the counter, and returns the signature.
//
// Two backends share the workload code and cycle model so Figure 5 can
// compare them: NotaryProgram runs inside a Komodo enclave (via the native
// runtime, reading the document through the enclave's page table from shared
// insecure pages); NotaryNative models the same binary as a plain Linux
// process. NotaryHost is the untrusted OS side of the enclave backend.
#ifndef SRC_ENCLAVE_NOTARY_H_
#define SRC_ENCLAVE_NOTARY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/crypto/rsa.h"
#include "src/enclave/native_runtime.h"
#include "src/os/world.h"

namespace komodo::enclave {

// Cycle model for the notary's computation on a 900 MHz Cortex-A7, expressed
// per unit of real work the C implementation performs. See EXPERIMENTS.md.
struct NotaryCosts {
  // Unoptimised C SHA-256 including the copy-in of the document.
  uint64_t sha_cycles_per_byte = 90;
  // RSA-1024 private-key operation (schoolbook Montgomery, unoptimised C).
  uint64_t rsa_sign_cycles = 27'000'000;
  // RSA-1024 key-pair generation (dominated by primality testing).
  uint64_t rsa_keygen_cycles = 450'000'000;
};

// Command protocol (Enter arguments).
inline constexpr word kNotaryCmdInit = 0;      // -> Exit(0), pubkey in shared page
inline constexpr word kNotaryCmdNotarize = 1;  // arg2 = document bytes -> Exit(counter)

// Shared-region layout (byte offsets from kEnclaveSharedVa): the document
// starts the region; the public modulus and then the signature follow it.
inline constexpr word kNotaryMaxDocBytes = 512 * 1024;
inline constexpr word kNotaryPubkeyOffset = kNotaryMaxDocBytes;
inline constexpr word kNotarySigOffset = kNotaryMaxDocBytes + 1024;
inline constexpr word kNotarySharedPages = kNotaryMaxDocBytes / arm::kPageSize + 1;

// The core workload, shared by both backends: sha256(document || counter),
// then RSA sign. Performs the real crypto and returns the signature.
class NotaryCore {
 public:
  explicit NotaryCore(uint64_t key_seed, const NotaryCosts& costs = NotaryCosts{});

  // Generates the key pair (idempotent). Returns cycles charged.
  uint64_t Init();
  // Signs sha256(doc || counter), increments the counter. Returns cycles
  // charged via `cycles_out` and the signature.
  std::vector<uint8_t> Notarize(const uint8_t* doc, size_t len, uint64_t* cycles_out);

  const crypto::RsaPublicKey& public_key() const { return key_.pub; }
  uint32_t counter() const { return counter_; }
  const NotaryCosts& costs() const { return costs_; }

 private:
  crypto::HashDrbg drbg_;
  NotaryCosts costs_;
  crypto::RsaKeyPair key_;
  bool key_ready_ = false;
  uint32_t counter_ = 0;
};

// Enclave backend: a NativeProgram speaking the command protocol above.
class NotaryProgram : public NativeProgram {
 public:
  explicit NotaryProgram(uint64_t key_seed) : core_(key_seed) {}

  UserAction Run(UserContext& ctx) override;

  NotaryCore& core() { return core_; }

 private:
  NotaryCore core_;
};

// Native-process backend: same workload, no enclave. Returns the signature
// and accumulates simulated cycles in `cycles`.
class NotaryNative {
 public:
  explicit NotaryNative(uint64_t key_seed) : core_(key_seed) {}

  void Init() { cycles_ += core_.Init(); }
  std::vector<uint8_t> Notarize(const std::vector<uint8_t>& doc);

  uint64_t cycles() const { return cycles_; }
  void ResetCycles() { cycles_ = 0; }
  NotaryCore& core() { return core_; }

 private:
  NotaryCore core_;
  uint64_t cycles_ = 0;
};

// The untrusted host half of the enclave backend, in the role of the paper's
// Linux driver: builds the notary enclave in its own world with the whole
// shared region mapped, stages documents and reads signatures back. Build()
// is a separate call so a caller can enable the tracer before its SMCs.
struct NotaryHost {
  explicit NotaryHost(uint64_t key_seed);
  NotaryHost(const NotaryHost&) = delete;
  NotaryHost& operator=(const NotaryHost&) = delete;

  // Builds the address space with one L2 table, a stub code page, the
  // kNotarySharedPages + 1 contiguous insecure pages mapped RW at
  // kEnclaveSharedVa and one thread, finalises it and registers the program.
  // Returns the first monitor error.
  KomErr Build();
  // Writes `doc` at the start of the shared region.
  void StageDocument(const std::vector<uint8_t>& doc);
  // The 128-byte signature of the last notarisation.
  std::vector<uint8_t> Signature() const;

  os::World world{512};
  NativeRuntime runtime{world.monitor};
  std::shared_ptr<NotaryProgram> program;
  PageNr thread = 0;
  word doc_pg0 = 0;  // first insecure page of the shared region
};

}  // namespace komodo::enclave

#endif  // SRC_ENCLAVE_NOTARY_H_
