// The compact abstract-state layout: page tables hold only their occupied
// slots, in ascending order, and data pages share one immutable buffer
// between copies. Neither may change what a PageDb means.
#include "src/spec/abstract_state.h"

#include <gtest/gtest.h>

namespace komodo::spec {
namespace {

TEST(SlotTableTest, OutOfOrderSetsStaySorted) {
  L2PTablePage l2;
  l2.Set(900, InsecureMapping{2, false});
  l2.Set(8, SecureMapping{3, true, false});
  l2.Set(1023, SecureMapping{4, false, true});
  l2.Set(0, SecureMapping{5, false, false});
  std::vector<word> order;
  for (const auto& [slot, entry] : l2.slots()) {
    order.push_back(slot);
  }
  EXPECT_EQ(order, (std::vector<word>{0, 8, 900, 1023}));
  EXPECT_TRUE(std::holds_alternative<InsecureMapping>(l2.Get(900)));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(l2.Get(9)));
}

TEST(SlotTableTest, SetOverwritesAndEmptyErases) {
  L2PTablePage l2;
  l2.Set(8, SecureMapping{3, true, false});
  l2.Set(8, SecureMapping{3, false, false});
  ASSERT_EQ(l2.slots().size(), 1u);
  EXPECT_FALSE(std::get<SecureMapping>(l2.Get(8)).writable);

  l2.Set(8, std::monostate{});
  EXPECT_TRUE(l2.slots().empty());
  EXPECT_TRUE(l2 == L2PTablePage{});
  l2.Set(8, std::monostate{});  // erasing an empty slot is a no-op
  EXPECT_TRUE(l2.slots().empty());

  L1PTablePage l1;
  l1.Set(255, 2);
  l1.Set(0, 7);
  EXPECT_EQ(l1.Get(0), std::optional<PageNr>(7));
  EXPECT_EQ(l1.Get(1), std::nullopt);
  l1.Set(255, std::nullopt);
  ASSERT_EQ(l1.slots().size(), 1u);
  EXPECT_EQ(l1.slots()[0].first, 0u);
}

TEST(SlotTableTest, EqualityIgnoresInsertionOrder) {
  L1PTablePage a;
  a.Set(1, 4);
  a.Set(3, 5);
  L1PTablePage b;
  b.Set(3, 5);
  b.Set(1, 4);
  EXPECT_TRUE(a == b);
  b.Set(3, 6);
  EXPECT_FALSE(a == b);
}

TEST(DataPageTest, CopiesShareTheBufferAndCompareByContents) {
  DataPage::Words words{};
  EXPECT_TRUE(DataPage(words) == DataPage());  // default is zero-filled
  words[7] = 0xdead;
  const DataPage a(words);
  const DataPage copy = a;
  EXPECT_EQ(&copy.contents(), &a.contents());
  EXPECT_TRUE(copy == a);
  EXPECT_TRUE(DataPage(words) == a);  // another buffer, same contents
  words[7] = 0xbeef;
  EXPECT_FALSE(DataPage(words) == a);
  EXPECT_EQ(a.contents()[7], 0xdeadu);  // the buffer is never written through
}

}  // namespace
}  // namespace komodo::spec
