// The two SHA-256 compression kernels behind Sha256 (DESIGN.md §1). Internal
// to src/crypto: Sha256 picks one per process, and tests/crypto compares them
// directly. Both compute the FIPS 180-4 compression function, so which one
// runs never shows in a digest, an Export() stream or a simulated cycle.
#ifndef SRC_CRYPTO_SHA256_INTERNAL_H_
#define SRC_CRYPTO_SHA256_INTERNAL_H_

#include <cstdint>

#include "src/crypto/sha256.h"

namespace komodo::crypto::internal {

// The FIPS 180-4 rounds in portable C++: the only kernel on hosts without
// SHA-NI, and the reference the SHA-NI kernel is tested against.
void CompressPortable(uint32_t state[8], const uint8_t block[kSha256BlockBytes]);

// True when cpuid reports the SHA extensions plus SSE4.1 and SSSE3, which the
// SHA-NI kernel also uses. Always false off x86.
bool ShaNiAvailable();

// The same function on the x86 SHA extensions. Call only when
// ShaNiAvailable().
void CompressShaNi(uint32_t state[8], const uint8_t block[kSha256BlockBytes]);

}  // namespace komodo::crypto::internal

#endif  // SRC_CRYPTO_SHA256_INTERNAL_H_
