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

// The initial hash value (FIPS 180-4 §5.3.3) and the 64 round constants
// (§4.2.2). Sha256 uses them, and so does the in-ISA SHA-256 enclave program,
// which carries them in its code page.
inline constexpr std::array<uint32_t, 8> kSha256InitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
inline constexpr std::array<uint32_t, 64> kSha256RoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

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
