#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/crypto/sha256_internal.h"

namespace komodo::crypto {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

using Kernel = void (*)(uint32_t*, const uint8_t*);

// One-shot SHA-256 over `kernel` alone (padding and length block included),
// so each compression kernel can be checked against the FIPS vectors on its
// own, whichever one Sha256 picked on this host.
std::string HashWith(Kernel kernel, const std::vector<uint8_t>& msg) {
  std::vector<uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % kSha256BlockBytes != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t off = 0; off < padded.size(); off += kSha256BlockBytes) {
    kernel(state, padded.data() + off);
  }
  DigestWords words;
  std::copy(state, state + 8, words.begin());
  return DigestToHex(WordsToDigest(words));
}

void ExpectFipsVectors(Kernel kernel) {
  EXPECT_EQ(HashWith(kernel, Bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashWith(kernel, Bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HashWith(kernel, Bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256Hash(Bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(DigestToHex(Sha256Hash(Bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlocks) {
  EXPECT_EQ(DigestToHex(Sha256Hash(
                Bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, Fips180MillionAs) {
  Sha256 h;
  const std::vector<uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = Bytes("the quick brown fox jumps over the lazy dog etc etc");
  for (size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.Finalize(), Sha256Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, UpdateWordLeMatchesBytes) {
  Sha256 a;
  a.UpdateWordLe(0x04030201);
  const uint8_t bytes[4] = {1, 2, 3, 4};
  Sha256 b;
  b.Update(bytes, 4);
  EXPECT_EQ(a.Finalize(), b.Finalize());
}

TEST(Sha256Test, ExportImportResumesStream) {
  const std::vector<uint8_t> part1 = Bytes("hello, this is part one of a message ");
  const std::vector<uint8_t> part2 = Bytes("and this is part two, crossing block bounds maybe");

  Sha256 original;
  original.Update(part1);

  Sha256 resumed;
  resumed.Import(original.Export());
  resumed.Update(part2);

  Sha256 reference;
  reference.Update(part1);
  reference.Update(part2);
  EXPECT_EQ(resumed.Finalize(), reference.Finalize());
}

TEST(Sha256Test, ExportImportAtEveryOffsetWithinBlock) {
  for (size_t len = 0; len < 130; ++len) {
    std::vector<uint8_t> data(len, static_cast<uint8_t>(len));
    Sha256 a;
    a.Update(data);
    Sha256 b;
    b.Import(a.Export());
    const std::vector<uint8_t> tail = Bytes("tail");
    a.Update(tail);
    b.Update(tail);
    ASSERT_EQ(a.Finalize(), b.Finalize()) << len;
  }
}

TEST(Sha256Test, TotalBytesTracksInput) {
  Sha256 h;
  h.Update(Bytes("12345"));
  EXPECT_EQ(h.total_bytes(), 5u);
  h.UpdateWordLe(0);
  EXPECT_EQ(h.total_bytes(), 9u);
}

TEST(Sha256Test, DigestWordConversionRoundTrip) {
  const Digest d = Sha256Hash(Bytes("roundtrip"));
  EXPECT_EQ(WordsToDigest(DigestToWords(d)), d);
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256Hash(Bytes("a")), Sha256Hash(Bytes("b")));
  EXPECT_NE(Sha256Hash(Bytes("")), Sha256Hash(std::vector<uint8_t>{0}));
}

TEST(Sha256KernelTest, PortableKernelMeetsFipsVectors) {
  ExpectFipsVectors(internal::CompressPortable);
}

TEST(Sha256KernelTest, ShaNiKernelMeetsFipsVectors) {
  if (!internal::ShaNiAvailable()) {
    GTEST_SKIP() << "cpuid reports no SHA-NI on this host";
  }
  ExpectFipsVectors(internal::CompressShaNi);
}

TEST(Sha256KernelTest, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  if (!internal::ShaNiAvailable()) {
    GTEST_SKIP() << "cpuid reports no SHA-NI on this host";
  }
  std::mt19937 rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t portable[8];
    for (uint32_t& w : portable) {
      w = rng();
    }
    uint8_t block[kSha256BlockBytes];
    for (uint8_t& b : block) {
      b = static_cast<uint8_t>(rng());
    }
    uint32_t sha_ni[8];
    std::memcpy(sha_ni, portable, sizeof(portable));
    internal::CompressPortable(portable, block);
    internal::CompressShaNi(sha_ni, block);
    ASSERT_TRUE(std::equal(portable, portable + 8, sha_ni)) << "trial " << trial;
  }
}

// Export() serialises all 64 buffer bytes, the stale tail of the last
// compressed block included, and the monitor stores that stream in the
// addrspace page. So every input byte must pass through the buffer: a
// shortcut that compresses whole blocks straight from the input leaves a
// different tail behind and changes the stored measurement.
TEST(Sha256Test, ExportKeepsTheBufferTailOfBulkUpdates) {
  std::mt19937 rng(4096);
  std::vector<uint8_t> page(4096);
  for (uint8_t& b : page) {
    b = static_cast<uint8_t>(rng());
  }
  Sha256 bulk;
  bulk.UpdateWordLe(0x01234567);
  bulk.UpdateWordLe(0x89abcdef);
  bulk.Update(page.data(), page.size());

  Sha256 by_word;
  by_word.UpdateWordLe(0x01234567);
  by_word.UpdateWordLe(0x89abcdef);
  for (size_t i = 0; i < page.size(); i += 4) {
    by_word.UpdateWordLe(static_cast<uint32_t>(page[i]) | (static_cast<uint32_t>(page[i + 1]) << 8) |
                         (static_cast<uint32_t>(page[i + 2]) << 16) |
                         (static_cast<uint32_t>(page[i + 3]) << 24));
  }
  EXPECT_EQ(bulk.Export(), by_word.Export());
}

TEST(ConstantTimeEqualTest, Basics) {
  const uint8_t a[4] = {1, 2, 3, 4};
  const uint8_t b[4] = {1, 2, 3, 4};
  const uint8_t c[4] = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEqual(a, b, 4));
  EXPECT_FALSE(ConstantTimeEqual(a, c, 4));
  EXPECT_TRUE(ConstantTimeEqual(a, c, 3));
  EXPECT_TRUE(ConstantTimeEqual(a, c, 0));
}

}  // namespace
}  // namespace komodo::crypto
