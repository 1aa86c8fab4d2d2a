#include "src/arm/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

namespace komodo::arm {
namespace {

TEST(MemoryTest, RegionBoundaries) {
  PhysMemory mem(256);
  EXPECT_EQ(mem.RegionOf(kInsecureBase), MemRegion::kInsecure);
  EXPECT_EQ(mem.RegionOf(kInsecureBase + kInsecureSize - 4), MemRegion::kInsecure);
  EXPECT_EQ(mem.RegionOf(kInsecureBase + kInsecureSize), MemRegion::kUnmapped);
  EXPECT_EQ(mem.RegionOf(kMonitorBase), MemRegion::kMonitor);
  EXPECT_EQ(mem.RegionOf(kMonitorBase + kMonitorSize - 4), MemRegion::kMonitor);
  EXPECT_EQ(mem.RegionOf(kSecurePagesBase), MemRegion::kSecurePages);
  EXPECT_EQ(mem.RegionOf(kSecurePagesBase + 256 * kPageSize - 4), MemRegion::kSecurePages);
  EXPECT_EQ(mem.RegionOf(kSecurePagesBase + 256 * kPageSize), MemRegion::kUnmapped);
}

TEST(MemoryTest, SecureRegionSizeTracksConfiguredPages) {
  PhysMemory small(8);
  EXPECT_EQ(small.RegionOf(kSecurePagesBase + 8 * kPageSize - 4), MemRegion::kSecurePages);
  EXPECT_EQ(small.RegionOf(kSecurePagesBase + 8 * kPageSize), MemRegion::kUnmapped);
}

TEST(MemoryTest, ReadWriteRoundTripAcrossRegions) {
  PhysMemory mem(16);
  mem.Write(kInsecureBase + 0x100, 0x11111111);
  mem.Write(kMonitorBase + 0x100, 0x22222222);
  mem.Write(kSecurePagesBase + 0x100, 0x33333333);
  EXPECT_EQ(mem.Read(kInsecureBase + 0x100), 0x11111111u);
  EXPECT_EQ(mem.Read(kMonitorBase + 0x100), 0x22222222u);
  EXPECT_EQ(mem.Read(kSecurePagesBase + 0x100), 0x33333333u);
}

TEST(MemoryTest, PageHelpers) {
  PhysMemory mem(16);
  word page[kWordsPerPage];
  for (word i = 0; i < kWordsPerPage; ++i) {
    page[i] = i * 3 + 1;
  }
  mem.WritePage(kSecurePagesBase, page);
  word readback[kWordsPerPage];
  mem.ReadPage(kSecurePagesBase, readback);
  for (word i = 0; i < kWordsPerPage; ++i) {
    ASSERT_EQ(readback[i], i * 3 + 1);
  }
  mem.ZeroPage(kSecurePagesBase);
  mem.ReadPage(kSecurePagesBase, readback);
  for (word i = 0; i < kWordsPerPage; ++i) {
    ASSERT_EQ(readback[i], 0u);
  }
}

TEST(MemoryTest, PageBytesLittleEndian) {
  PhysMemory mem(16);
  mem.Write(kSecurePagesBase, 0x04030201);
  uint8_t bytes[kPageSize];
  mem.ReadPageBytes(kSecurePagesBase, bytes);
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  EXPECT_EQ(bytes[2], 3);
  EXPECT_EQ(bytes[3], 4);
}

TEST(MemoryTest, InsecurePagePredicateRejectsMonitorAndSecure) {
  PhysMemory mem(16);
  EXPECT_TRUE(IsInsecurePage(mem, 0x10));
  EXPECT_TRUE(IsInsecurePage(mem, kInsecureSize / kPageSize - 1));
  EXPECT_FALSE(IsInsecurePage(mem, kInsecureSize / kPageSize));
  EXPECT_FALSE(IsInsecurePage(mem, kMonitorBase / kPageSize));
  EXPECT_FALSE(IsInsecurePage(mem, kSecurePagesBase / kPageSize));
  EXPECT_FALSE(IsInsecurePage(mem, kMonitorBase / kPageSize + 1));
  EXPECT_FALSE(IsInsecurePage(mem, 0xf000'0000 / kPageSize));  // unmapped
  // Numbers whose byte address does not fit in 32 bits: multiplied out, they
  // would wrap onto insecure page 0x10.
  EXPECT_FALSE(IsInsecurePage(mem, (1u << 20) + 0x10));
  EXPECT_FALSE(IsInsecurePage(mem, (0xfffu << 20) + 0x10));
}

TEST(MemoryTest, EqualityDetectsSingleWordChange) {
  PhysMemory a(8);
  PhysMemory b(8);
  EXPECT_EQ(a, b);
  b.Write(kSecurePagesBase + 8, 1);
  EXPECT_NE(a, b);
}

constexpr size_t kInsecurePages = kInsecureSize / kPageSize;
constexpr size_t kMonitorPages = kMonitorSize / kPageSize;

// Base address of the page with global index `page` (the PageIndexOf layout).
paddr PageAddr(size_t page) {
  if (page < kInsecurePages) {
    return kInsecureBase + static_cast<paddr>(page) * kPageSize;
  }
  if (page < kInsecurePages + kMonitorPages) {
    return kMonitorBase + static_cast<paddr>(page - kInsecurePages) * kPageSize;
  }
  return kSecurePagesBase + static_cast<paddr>(page - kInsecurePages - kMonitorPages) * kPageSize;
}

size_t PageCount(const PhysMemory& m) {
  return kInsecurePages + kMonitorPages + m.nsecure_pages();
}

// The reference: every word of both memories through the public accessors.
std::optional<size_t> ScanFirstDifference(const PhysMemory& a, const PhysMemory& b) {
  word pa[kWordsPerPage];
  word pb[kWordsPerPage];
  for (size_t page = 0; page < PageCount(a); ++page) {
    a.ReadPage(PageAddr(page), pa);
    b.ReadPage(PageAddr(page), pb);
    const word* first = std::mismatch(pa, pa + kWordsPerPage, pb).first;
    if (first != pa + kWordsPerPage) {
      return page * kWordsPerPage + static_cast<size_t>(first - pa);
    }
  }
  return std::nullopt;
}

// The insecure-scope answer is the all-pages answer when it lies in insecure
// RAM, which comes first in the layout.
std::optional<size_t> InsecurePart(std::optional<size_t> word_index) {
  if (word_index.has_value() && *word_index >= kInsecurePages * kWordsPerPage) {
    return std::nullopt;
  }
  return word_index;
}

TEST(MemoryTest, MappedBackingReadsZeroAndCopiesDeep) {
  PhysMemory fresh(8);
  word page[kWordsPerPage];
  for (size_t p = 0; p < PageCount(fresh); ++p) {
    fresh.ReadPage(PageAddr(p), page);
    ASSERT_TRUE(std::all_of(page, page + kWordsPerPage, [](word w) { return w == 0; }))
        << "page " << p;
  }

  PhysMemory a(8);
  a.Write(kInsecureBase + 0x2004, 7);
  a.Write(kMonitorBase + 0x10, 8);
  a.Write(kSecurePagesBase + 7 * kPageSize + 4, 9);
  PhysMemory copy(a);
  EXPECT_EQ(copy, a);
  EXPECT_EQ(copy.Read(kInsecureBase + 0x2004), 7u);
  EXPECT_EQ(copy.Read(kMonitorBase + 0x10), 8u);
  EXPECT_EQ(copy.Read(kSecurePagesBase + 7 * kPageSize + 4), 9u);
  EXPECT_EQ(ScanFirstDifference(copy, a), std::nullopt);

  // Deep: stores into either side stay on that side.
  a.Write(kInsecureBase + 0x2004, 70);
  copy.Write(kSecurePagesBase, 90);
  EXPECT_EQ(copy.Read(kInsecureBase + 0x2004), 7u);
  EXPECT_EQ(a.Read(kSecurePagesBase), 0u);
  EXPECT_NE(copy, a);

  // A page stored to and then zeroed, and a page changed only by a reset,
  // copy too, and so does a copy of a copy.
  PhysMemory snapshot(8);
  snapshot.Write(kMonitorBase + kPageSize + 8, 11);
  PhysMemory b(8);
  b.Write(kSecurePagesBase + 3 * kPageSize + 12, 12);
  b.ZeroPage(kSecurePagesBase + 3 * kPageSize);
  b.Write(kInsecureBase, 13);
  b.MarkPagesDirty({static_cast<uint32_t>(b.PageIndexOf(kMonitorBase + kPageSize))});
  b.ResetTo(snapshot);
  ASSERT_EQ(b.Read(kMonitorBase + kPageSize + 8), 11u);
  ASSERT_EQ(b.Read(kInsecureBase), 0u);
  b.Write(kSecurePagesBase + 5 * kPageSize, 14);
  const PhysMemory b_copy(b);
  const PhysMemory b_copy_copy(b_copy);
  for (const PhysMemory* m : {&b_copy, &b_copy_copy}) {
    EXPECT_EQ(ScanFirstDifference(*m, b), std::nullopt);
    EXPECT_EQ(m->Read(kMonitorBase + kPageSize + 8), 11u);
    EXPECT_EQ(m->Read(kSecurePagesBase + 3 * kPageSize + 12), 0u);
    EXPECT_EQ(m->Read(kSecurePagesBase + 5 * kPageSize), 14u);
  }
}

// Every memory lists the pages it writes from construction on, whichever
// call writes them, a copy starts with its source's list, and only ResetTo
// empties it: the JIT's inline stores and every reset rely on the list.
TEST(MemoryTest, EveryWriterListsItsPageUntilAReset) {
  std::vector<uint32_t> pages;
  PhysMemory snapshot(8);
  for (word page = 0; page < 3; ++page) {
    const paddr base = kSecurePagesBase + page * kPageSize;
    snapshot.Write(base + 4, 0x50 + page);
    pages.push_back(static_cast<uint32_t>(snapshot.PageIndexOf(base)));
  }
  EXPECT_EQ(snapshot.dirty_pages(), pages);
  PhysMemory m(snapshot);
  EXPECT_EQ(m.dirty_pages(), pages);
  ASSERT_EQ(m.ResetTo(snapshot), 3u);
  ASSERT_TRUE(m.dirty_pages().empty());

  // One page each through Write, WritePage and ZeroPage, then one again.
  const word in[kWordsPerPage] = {7};
  m.Write(kSecurePagesBase + 8, 1);
  m.WritePage(kSecurePagesBase + kPageSize, in);
  m.ZeroPage(kSecurePagesBase + 2 * kPageSize);
  m.Write(kSecurePagesBase + 12, 2);
  EXPECT_EQ(m.dirty_pages(), pages);
  EXPECT_EQ(m.ResetTo(snapshot), 3u);
  EXPECT_EQ(ScanFirstDifference(m, snapshot), std::nullopt);
}

TEST(MemoryTest, CompareReportsLowestWordAndGeometry) {
  PhysMemory a(8);
  PhysMemory b(8);
  b.Write(kSecurePagesBase + kPageSize + 12, 1);
  b.Write(kMonitorBase + 8, 1);
  const size_t monitor_word = kInsecurePages * kWordsPerPage + 2;
  EXPECT_EQ(MemoryCompare().FirstDifference(a, b), monitor_word);
  EXPECT_EQ(MemoryCompare(MemoryCompare::Scope::kInsecure).FirstDifference(a, b), std::nullopt);

  // A secure page present in one memory only differs at its first word.
  PhysMemory c(8);
  PhysMemory d(16);
  EXPECT_EQ(MemoryCompare().FirstDifference(c, d), PageCount(c) * kWordsPerPage);
  EXPECT_NE(c, d);
  EXPECT_EQ(MemoryCompare(MemoryCompare::Scope::kInsecure).FirstDifference(c, d), std::nullopt);
}

TEST(MemoryTest, CarriedCompareSeesAHealedDifferenceAndANewPair) {
  PhysMemory a(8);
  PhysMemory b(8);
  MemoryCompare carry;
  ASSERT_EQ(carry.FirstDifference(a, b), std::nullopt);

  const paddr addr = kInsecureBase + 5 * kPageSize + 40;
  a.Write(addr, 0x5a);
  EXPECT_EQ(carry.FirstDifference(a, b), 5 * kWordsPerPage + 10);
  b.Write(addr, 0x5a);  // the same store on the other side heals it
  EXPECT_EQ(carry.FirstDifference(a, b), std::nullopt);
  // A later store to the re-synced page is still seen.
  b.Write(addr + 4, 1);
  EXPECT_EQ(carry.FirstDifference(a, b), 5 * kWordsPerPage + 11);
  a.Write(addr + 4, 1);
  ASSERT_EQ(carry.FirstDifference(a, b), std::nullopt);

  // Handed another pair, the carry compares every page, even where the new
  // pair's generations match the carried ones.
  PhysMemory c(8);
  PhysMemory d(8);
  c.Write(addr, 0x5a);
  c.Write(addr + 4, 1);
  d.Write(addr, 0x5a);
  d.Write(addr + 4, 2);
  EXPECT_EQ(carry.FirstDifference(c, d), 5 * kWordsPerPage + 11);
}

// Two memories copied from one snapshot take random stores: one side or
// both, word stores, whole-page writes, page zeroing, pages marked dirty
// without a store, and resets of one side or both to one of two snapshots,
// up to three ops between compares. The carried compare must report exactly
// what a full scan reports after every step, over all pages and over
// insecure RAM, and so must a compare that last saw the pair several steps
// ago. A page changed only by a reset to the other snapshot is on neither
// dirty list, so a carry must not outlive a reset.
TEST(MemoryTest, CarriedCompareMatchesFullScanUnderRandomStores) {
  // A few pages in every region, so differences arise and heal often.
  const std::vector<size_t> pages = {0,
                                     3,
                                     kInsecurePages - 1,
                                     kInsecurePages,
                                     kInsecurePages + kMonitorPages - 1,
                                     kInsecurePages + kMonitorPages,
                                     kInsecurePages + kMonitorPages + 2,
                                     kInsecurePages + kMonitorPages + 7};
  PhysMemory snapshot(8);
  snapshot.Write(kInsecureBase + 3 * kPageSize, 0x33);
  snapshot.Write(kSecurePagesBase + 2 * kPageSize + 8, 0x44);
  PhysMemory other(snapshot);
  for (const size_t page : pages) {
    other.Write(PageAddr(page) + 4, static_cast<word>(page));
  }
  PhysMemory a(snapshot);
  PhysMemory b(snapshot);

  std::mt19937 rng(20261017);
  const auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  MemoryCompare all;
  MemoryCompare insecure(MemoryCompare::Scope::kInsecure);
  MemoryCompare now_and_then;
  size_t differed = 0;
  size_t healed = 0;
  bool was_different = false;
  for (int step = 0; step < 300; ++step) {
    for (size_t ops = 1 + below(3); ops > 0; --ops) {
      const size_t page_index = pages[below(pages.size())];
      const paddr page = PageAddr(page_index);
      const size_t sides = below(3);  // 0: a, 1: b, 2: both
      const auto apply = [&](PhysMemory& m) {
        switch (below(10)) {
          case 0: {
            word in[kWordsPerPage] = {};
            in[below(4)] = static_cast<word>(below(2));
            m.WritePage(page, in);
            break;
          }
          case 1:
            m.ZeroPage(page);
            break;
          case 2:
            m.ResetTo(below(2) == 0 ? snapshot : other);
            break;
          case 3:
            m.MarkPagesDirty({static_cast<uint32_t>(page_index)});
            break;
          default:
            m.Write(page + static_cast<paddr>(below(4)) * kWordSize, static_cast<word>(below(2)));
            break;
        }
      };
      std::mt19937 replay = rng;  // "both" applies the same op to each side
      if (sides != 1) {
        apply(a);
      }
      if (sides == 2) {
        rng = replay;
      }
      if (sides != 0) {
        apply(b);
      }
    }

    const std::optional<size_t> expected = ScanFirstDifference(a, b);
    ASSERT_EQ(all.FirstDifference(a, b), expected) << "step " << step;
    ASSERT_EQ(MemoryCompare().FirstDifference(a, b), expected) << "step " << step;
    ASSERT_EQ(insecure.FirstDifference(a, b), InsecurePart(expected)) << "step " << step;
    if (below(4) == 0) {
      ASSERT_EQ(now_and_then.FirstDifference(a, b), expected) << "step " << step;
    }
    differed += expected.has_value() ? 1 : 0;
    healed += was_different && !expected.has_value() ? 1 : 0;
    was_different = expected.has_value();
  }
  // The walk must exercise both outcomes, and heal differences along the way.
  EXPECT_GT(differed, 30u);
  EXPECT_GT(healed, 5u);

  // Generation 0 means never written, so the page reads zero, and a copy
  // holds every page of its source.
  word words[kWordsPerPage];
  for (const PhysMemory* m : {&a, &b}) {
    for (size_t page = 0; page < PageCount(*m); ++page) {
      if (m->PageGenAt(page) == 0) {
        m->ReadPage(PageAddr(page), words);
        ASSERT_TRUE(std::all_of(words, words + kWordsPerPage, [](word w) { return w == 0; }))
            << "page " << page;
      }
    }
    EXPECT_EQ(ScanFirstDifference(PhysMemory(*m), *m), std::nullopt);
  }
}

}  // namespace
}  // namespace komodo::arm
