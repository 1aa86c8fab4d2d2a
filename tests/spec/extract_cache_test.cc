// The extraction cache (DESIGN.md §12): ExtractCache::Extract must equal a
// fresh TryExtractPageDb after every kind of write a machine takes — word and
// page stores, page zeroing, snapshot resets, enclave code, and monitor calls
// that retype a page without writing it — a cache filled on one world must
// never answer for another, and an unchanged machine is read in place.
#include "src/spec/extract.h"

#include <gtest/gtest.h>

#include "src/core/pagedb.h"
#include "src/enclave/programs.h"
#include "src/os/world.h"

namespace komodo::spec {
namespace {

// Names the first page on which two PageDbs differ.
::testing::AssertionResult SameDb(const PageDb& a, const PageDb& b) {
  if (a.NPages() != b.NPages()) {
    return ::testing::AssertionFailure() << "page counts differ";
  }
  for (PageNr n = 0; n < a.NPages(); ++n) {
    if (!(a[n] == b[n])) {
      return ::testing::AssertionFailure() << "page " << n << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Builds one finalised counter enclave, whose private data page starts at 100.
os::EnclaveHandle BuildCounter(os::World& w) {
  auto built = w.os.NewEnclave().Code(enclave::CounterProgram()).Data({100}).Build();
  EXPECT_TRUE(built.ok());
  return built.ok() ? *std::move(built) : os::EnclaveHandle{};
}

class ExtractCacheTest : public ::testing::Test {
 protected:
  ExtractCacheTest() : w(16), e(BuildCounter(w)) { before = Cached(); }

  // Extracts through the cache and copies the result out; a fresh extraction
  // must agree.
  PageDb Cached() {
    const PageDb* cached = cache.Extract(w.machine);
    EXPECT_NE(cached, nullptr);
    if (cached == nullptr) {
      return PageDb();
    }
    EXPECT_TRUE(SameDb(*cached, ExtractPageDb(w.machine)));
    return *cached;
  }

  paddr DataPaddr() const { return PagePaddr(e.data_pages[1]); }

  os::World w;
  os::EnclaveHandle e;
  ExtractCache cache;
  PageDb before;  // the extraction that filled the cache
};

TEST_F(ExtractCacheTest, UnchangedMachineReusesEveryEntry) {
  EXPECT_TRUE(SameDb(Cached(), before));
}

TEST_F(ExtractCacheTest, UnchangedMachineIsReadInPlace) {
  // The cache hands out its own PageDb, and a second extraction of an
  // unchanged machine neither re-decodes a page nor copies the database: the
  // same object comes back, its data pages holding the same buffers.
  const PageDb* first = cache.Extract(w.machine);
  ASSERT_NE(first, nullptr);
  std::vector<const DataPage::Words*> buffers;
  for (const PageDbEntry& entry : first->pages) {
    if (entry.type() == PageType::kDataPage) {
      buffers.push_back(&entry.As<DataPage>().contents());
    }
  }
  ASSERT_FALSE(buffers.empty());
  const PageDb* second = cache.Extract(w.machine);
  ASSERT_EQ(second, first);
  size_t k = 0;
  for (const PageDbEntry& entry : second->pages) {
    if (entry.type() == PageType::kDataPage) {
      EXPECT_EQ(&entry.As<DataPage>().contents(), buffers[k++]);
    }
  }
}

TEST_F(ExtractCacheTest, WordStore) {
  w.machine.mem.Write(DataPaddr() + 4 * arm::kWordSize, 0x1234);
  const PageDb after = Cached();
  EXPECT_EQ(after[e.data_pages[1]].As<DataPage>().contents()[4], 0x1234u);
  EXPECT_FALSE(after == before);
}

TEST_F(ExtractCacheTest, PageStore) {
  DataPage::Words words;
  words.fill(0xa5a5a5a5);
  w.machine.mem.WritePage(DataPaddr(), words.data());
  const PageDb after = Cached();
  EXPECT_EQ(after[e.data_pages[1]].As<DataPage>().contents(), words);
}

TEST_F(ExtractCacheTest, ZeroPage) {
  // Zeroing the L2 table turns every descriptor into a fault: the table
  // still decodes, now empty.
  ASSERT_FALSE(before[e.l2pts[0]].As<L2PTablePage>().slots().empty());
  w.machine.mem.ZeroPage(PagePaddr(e.l2pts[0]));
  EXPECT_TRUE(Cached()[e.l2pts[0]].As<L2PTablePage>().slots().empty());
}

TEST_F(ExtractCacheTest, ResetToSnapshot) {
  w.machine.mem.EnableDirtyTracking();
  const arm::PhysMemory snapshot(w.machine.mem);
  w.machine.mem.Write(DataPaddr(), 7);
  EXPECT_FALSE(Cached() == before);
  w.machine.mem.ResetTo(snapshot);
  EXPECT_TRUE(SameDb(Cached(), before));
}

TEST_F(ExtractCacheTest, EnclaveStore) {
  ASSERT_EQ(w.os.Enter(e.thread, 5).payload, 105u);
  EXPECT_EQ(Cached()[e.data_pages[1]].As<DataPage>().contents()[0], 105u);
}

TEST_F(ExtractCacheTest, SmcRetypesAPageWithoutWritingIt) {
  // AllocSpare rewrites a free page's PageDB type and owner words but never
  // stores into the page itself, so its generation stays put.
  const PageNr spare = w.os.AllocSecurePage();
  ASSERT_TRUE(before[spare].IsFree());
  const uint32_t gen = w.machine.mem.PageGen(PagePaddr(spare));
  ASSERT_EQ(w.os.AllocSpare(e.addrspace, spare).err, kErrSuccess);
  ASSERT_EQ(w.machine.mem.PageGen(PagePaddr(spare)), gen);
  const PageDb after = Cached();
  EXPECT_EQ(after[spare].type(), PageType::kSparePage);
  EXPECT_EQ(after[spare].owner, e.addrspace);
}

TEST(ExtractCacheWorldsTest, CacheFilledOnOneWorldIsNotReusedOnAnother) {
  // Two worlds with the same history up to one stored value: every page
  // generation and PageDB record agrees, only the data page's contents differ.
  os::World a(16);
  os::World b(16);
  const os::EnclaveHandle ea = BuildCounter(a);
  const os::EnclaveHandle eb = BuildCounter(b);
  const paddr data = PagePaddr(ea.data_pages[1]);
  ASSERT_EQ(data, PagePaddr(eb.data_pages[1]));
  a.machine.mem.Write(data, 1);
  b.machine.mem.Write(data, 2);
  ASSERT_EQ(a.machine.mem.PageGen(data), b.machine.mem.PageGen(data));

  ExtractCache cache;
  const PageDb da = *cache.Extract(a.machine);
  const PageDb db = *cache.Extract(b.machine);
  EXPECT_TRUE(SameDb(db, ExtractPageDb(b.machine)));
  EXPECT_FALSE(da == db);
  EXPECT_TRUE(SameDb(*cache.Extract(a.machine), da));
}

TEST(ExtractCacheWorldsTest, FailedExtractionMatchesUncachedError) {
  os::World w(16);
  ExtractCache cache;
  const PageDb good = *cache.Extract(w.machine);
  // Type page 3 with a word that names no page type.
  const paddr record = arm::kMonitorBase + kPageDbOffset + 3 * kPageDbEntryWords * arm::kWordSize;
  w.machine.mem.Write(record, 0x7777);
  ExtractError fresh_err;
  EXPECT_FALSE(TryExtractPageDb(w.machine, &fresh_err).has_value());
  // The failure must not be remembered as a decoded page: a second cached
  // extraction of the same memory fails the same way.
  for (int i = 0; i < 2; ++i) {
    ExtractError cached_err;
    EXPECT_EQ(cache.Extract(w.machine, &cached_err), nullptr);
    EXPECT_EQ(cached_err.page, fresh_err.page);
    EXPECT_EQ(cached_err.detail, fresh_err.detail);
  }
  // Restoring the record restores the extraction, through the same cache.
  w.machine.mem.Write(record, static_cast<word>(PageType::kFree));
  const PageDb* restored = cache.Extract(w.machine);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(SameDb(*restored, good));
}

}  // namespace
}  // namespace komodo::spec
