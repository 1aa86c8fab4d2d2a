#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/sha256_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KOMODO_SHA_HAVE_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define KOMODO_SHA_HAVE_X86 0
#endif

namespace komodo::crypto {

namespace {

inline uint32_t Rotr(uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) { return (x & y) ^ (~x & z); }
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) { return (x & y) ^ (x & z) ^ (y & z); }
inline uint32_t BigSigma0(uint32_t x) { return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22); }
inline uint32_t BigSigma1(uint32_t x) { return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25); }
inline uint32_t SmallSigma0(uint32_t x) { return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3); }
inline uint32_t SmallSigma1(uint32_t x) { return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10); }

}  // namespace

void Sha256::Reset() {
  state_ = kSha256InitState;
  // Zeroed so Export() is a pure function of the absorbed input (the
  // refinement tests compare serialised streams bit-for-bit).
  std::memset(buffer_, 0, sizeof(buffer_));
  buffer_len_ = 0;
  total_len_ = 0;
}

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t block[kSha256BlockBytes]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) | block[i * 4 + 3];
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = SmallSigma1(w[i - 2]) + w[i - 7] + SmallSigma0(w[i - 15]) + w[i - 16];
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kSha256RoundConstants[i] + w[i];
    const uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

bool ShaNiAvailable() {
#if KOMODO_SHA_HAVE_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
#else
  return false;
#endif
}

#if KOMODO_SHA_HAVE_X86
// Intel's SHA extensions keep the eight state words as two vectors, ABEF and
// CDGH; each SHA256RNDS2 runs two rounds, and SHA256MSG1/MSG2 extend the
// message schedule four words at a time. Group g (rounds 4g..4g+3) consumes
// schedule vector w[g % 4]; for g = 3..14 it finishes the vector group g + 1
// needs, and for g = 1..12 it starts the one group g + 3 needs.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t block[kSha256BlockBytes]) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w[4] = {};
#pragma GCC unroll 16  // constant indices keep w[] in registers
  for (int g = 0; g < 16; ++g) {
    if (g < 4) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)), kByteSwap);
    }
    __m128i msg = _mm_add_epi32(
        w[g % 4],
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256RoundConstants.data() + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    if (g >= 3 && g <= 14) {
      __m128i& next = w[(g + 1) % 4];
      next = _mm_add_epi32(next, _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, w[g % 4]);
    }
    msg = _mm_shuffle_epi32(msg, 0x0e);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    if (g >= 1 && g <= 12) {
      w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#else
void CompressShaNi(uint32_t state[8], const uint8_t block[kSha256BlockBytes]) {
  CompressPortable(state, block);  // never selected: ShaNiAvailable() is false
}
#endif

}  // namespace internal

void Sha256::Compress(const uint8_t block[kSha256BlockBytes]) {
  // Chosen once per process; both kernels compute the same function.
  static const bool sha_ni = internal::ShaNiAvailable();
  if (sha_ni) {
    internal::CompressShaNi(state_.data(), block);
  } else {
    internal::CompressPortable(state_.data(), block);
  }
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    const size_t take = std::min(len, kSha256BlockBytes - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kSha256BlockBytes) {
      Compress(buffer_);
      buffer_len_ = 0;
    }
  }
}

void Sha256::UpdateWordLe(uint32_t w) {
  const uint8_t bytes[4] = {static_cast<uint8_t>(w), static_cast<uint8_t>(w >> 8),
                            static_cast<uint8_t>(w >> 16), static_cast<uint8_t>(w >> 24)};
  Update(bytes, 4);
}

Digest Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  const uint8_t pad = 0x80;
  Update(&pad, 1);
  const uint8_t zero = 0;
  while (buffer_len_ != 56) {
    Update(&zero, 1);
  }
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(len_bytes, 8);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

std::array<uint32_t, Sha256::kExportWords> Sha256::Export() const {
  std::array<uint32_t, kExportWords> out{};
  for (int i = 0; i < 8; ++i) {
    out[i] = state_[i];
  }
  for (int i = 0; i < 16; ++i) {
    out[8 + i] = (static_cast<uint32_t>(buffer_[i * 4])) |
                 (static_cast<uint32_t>(buffer_[i * 4 + 1]) << 8) |
                 (static_cast<uint32_t>(buffer_[i * 4 + 2]) << 16) |
                 (static_cast<uint32_t>(buffer_[i * 4 + 3]) << 24);
  }
  out[24] = static_cast<uint32_t>(buffer_len_);
  out[25] = static_cast<uint32_t>(total_len_);
  out[26] = static_cast<uint32_t>(total_len_ >> 32);
  return out;
}

void Sha256::Import(const std::array<uint32_t, kExportWords>& words) {
  for (int i = 0; i < 8; ++i) {
    state_[i] = words[i];
  }
  for (int i = 0; i < 16; ++i) {
    buffer_[i * 4] = static_cast<uint8_t>(words[8 + i]);
    buffer_[i * 4 + 1] = static_cast<uint8_t>(words[8 + i] >> 8);
    buffer_[i * 4 + 2] = static_cast<uint8_t>(words[8 + i] >> 16);
    buffer_[i * 4 + 3] = static_cast<uint8_t>(words[8 + i] >> 24);
  }
  buffer_len_ = words[24];
  total_len_ = static_cast<uint64_t>(words[25]) | (static_cast<uint64_t>(words[26]) << 32);
}

Digest Sha256Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

Digest Sha256Hash(const std::vector<uint8_t>& data) { return Sha256Hash(data.data(), data.size()); }

DigestWords DigestToWords(const Digest& d) {
  DigestWords w;
  for (int i = 0; i < 8; ++i) {
    w[i] = (static_cast<uint32_t>(d[i * 4]) << 24) | (static_cast<uint32_t>(d[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(d[i * 4 + 2]) << 8) | d[i * 4 + 3];
  }
  return w;
}

Digest WordsToDigest(const DigestWords& w) {
  Digest d;
  for (int i = 0; i < 8; ++i) {
    d[i * 4] = static_cast<uint8_t>(w[i] >> 24);
    d[i * 4 + 1] = static_cast<uint8_t>(w[i] >> 16);
    d[i * 4 + 2] = static_cast<uint8_t>(w[i] >> 8);
    d[i * 4 + 3] = static_cast<uint8_t>(w[i]);
  }
  return d;
}

std::string DigestToHex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(kSha256DigestBytes * 2);
  for (uint8_t b : d) {
    s += kHex[b >> 4];
    s += kHex[b & 0xf];
  }
  return s;
}

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t acc = 0;
  for (size_t i = 0; i < len; ++i) {
    acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

}  // namespace komodo::crypto
