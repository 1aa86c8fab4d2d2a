// SHA-256 (FIPS 180-4). Stands in for the Vale-verified SHA the paper's
// monitor borrows (§7.2): used for enclave measurement, HMAC attestation and
// the notary example. Incremental API so the monitor can extend a measurement
// across MapSecure/InitThread calls exactly as the paper describes (§4).
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace komodo::crypto {

inline constexpr size_t kSha256DigestBytes = 32;
inline constexpr size_t kSha256DigestWords = 8;
inline constexpr size_t kSha256BlockBytes = 64;

using Digest = std::array<uint8_t, kSha256DigestBytes>;
// Word view of a digest (big-endian words, as the monitor stores them).
using DigestWords = std::array<uint32_t, kSha256DigestWords>;

class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t len);
  void Update(const std::vector<uint8_t>& data) { Update(data.data(), data.size()); }
  // Appends a 32-bit word in little-endian byte order (the machine's memory
  // serialisation; see PhysMemory::ReadPageBytes).
  void UpdateWordLe(uint32_t w);
  Digest Finalize();

  // Number of message bytes absorbed so far (used by the cycle model: the
  // monitor charges per compression-function invocation).
  uint64_t total_bytes() const { return total_len_; }

  // Full streaming-state serialisation (8 state words, 16 buffer words,
  // buffer length, 64-bit total length): lets the monitor persist an
  // in-progress measurement inside a simulated secure page across calls.
  static constexpr size_t kExportWords = 27;
  std::array<uint32_t, kExportWords> Export() const;
  void Import(const std::array<uint32_t, kExportWords>& words);

 private:
  void Compress(const uint8_t block[kSha256BlockBytes]);

  std::array<uint32_t, 8> state_;
  uint8_t buffer_[kSha256BlockBytes];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
};

Digest Sha256Hash(const uint8_t* data, size_t len);
Digest Sha256Hash(const std::vector<uint8_t>& data);

DigestWords DigestToWords(const Digest& d);
Digest WordsToDigest(const DigestWords& w);
std::string DigestToHex(const Digest& d);

// Constant-time comparison (the monitor's Verify call must not leak how many
// MAC bytes matched).
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len);

}  // namespace komodo::crypto

#endif  // SRC_CRYPTO_SHA256_H_
