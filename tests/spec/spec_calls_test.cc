// Direct unit tests of the pure specification functions: every precondition
// of every call produces the documented error, and effects are exactly the
// documented state change. (The refinement suite checks impl-vs-spec; this
// suite pins down the spec itself.)
#include "src/spec/spec_calls.h"

#include <gtest/gtest.h>

#include "src/spec/invariants.h"

namespace komodo::spec {
namespace {

std::array<word, arm::kWordsPerPage> Fill(word v) {
  std::array<word, arm::kWordsPerPage> a;
  a.fill(v);
  return a;
}

class SpecCallsTest : public ::testing::Test {
 protected:
  SpecCallsTest() : d(16) {}

  void Apply(Result r) {
    ASSERT_EQ(r.err, kErrSuccess);
    ASSERT_TRUE(r.db.has_value());
    d = std::move(*r.db);
  }

  // A ready-to-run enclave: as=0, l1pt=1, l2=2, data=3, disp=4.
  void BuildFinalised() {
    Apply(SpecInitAddrspace(d, 0, 1));
    Apply(SpecInitL2Table(d, 0, 2, 0));
    Apply(SpecMapSecure(d, 0, 3, MakeMapping(0x8000, kMapR | kMapX), Fill(7)));
    Apply(SpecInitThread(d, 0, 4, 0x8000));
    Apply(SpecFinalise(d, 0));
  }

  PageDb d;
};

TEST_F(SpecCallsTest, InitAddrspaceEffects) {
  Apply(SpecInitAddrspace(d, 5, 9));
  EXPECT_EQ(d[5].type(), PageType::kAddrspace);
  EXPECT_EQ(d[5].owner, 5u);
  EXPECT_EQ(d[9].type(), PageType::kL1PTable);
  EXPECT_EQ(d[9].owner, 5u);
  const AddrspacePage& as = d[5].As<AddrspacePage>();
  EXPECT_EQ(as.l1pt_page, 9u);
  EXPECT_EQ(as.refcount, 1u);
  EXPECT_EQ(as.state, AddrspaceState::kInit);
}

TEST_F(SpecCallsTest, InitAddrspaceErrors) {
  EXPECT_EQ(SpecInitAddrspace(d, 16, 0).err, kErrInvalidPageNo);
  EXPECT_EQ(SpecInitAddrspace(d, 0, 16).err, kErrInvalidPageNo);
  EXPECT_EQ(SpecInitAddrspace(d, 3, 3).err, kErrInvalidPageNo);
  Apply(SpecInitAddrspace(d, 0, 1));
  EXPECT_EQ(SpecInitAddrspace(d, 0, 2).err, kErrPageInUse);
  EXPECT_EQ(SpecInitAddrspace(d, 2, 1).err, kErrPageInUse);
}

TEST_F(SpecCallsTest, MapSecureErrorsInDocumentedOrder) {
  // Addrspace validity outranks page validity outranks mapping validity
  // outranks source validity outranks table presence outranks slot vacancy.
  EXPECT_EQ(SpecMapSecure(d, 0, 3, 0, {}).err, kErrInvalidAddrspace);
  Apply(SpecInitAddrspace(d, 0, 1));
  EXPECT_EQ(SpecMapSecure(d, 0, 16, MakeMapping(0x8000, kMapR), Fill(0)).err,
            kErrInvalidPageNo);
  EXPECT_EQ(SpecMapSecure(d, 0, 3, 0, Fill(0)).err, kErrInvalidMapping);
  EXPECT_EQ(SpecMapSecure(d, 0, 3, MakeMapping(0x8000, kMapR), {}).err,
            kErrInvalidArgument);
  EXPECT_EQ(SpecMapSecure(d, 0, 3, MakeMapping(0x8000, kMapR), Fill(0)).err,
            kErrPageTableMissing);
  Apply(SpecInitL2Table(d, 0, 2, 0));
  Apply(SpecMapSecure(d, 0, 3, MakeMapping(0x8000, kMapR), Fill(0)));
  EXPECT_EQ(SpecMapSecure(d, 0, 5, MakeMapping(0x8000, kMapR), Fill(0)).err,
            kErrAddrInUse);
  Apply(SpecFinalise(d, 0));
  EXPECT_EQ(SpecMapSecure(d, 0, 5, MakeMapping(0x9000, kMapR), Fill(0)).err,
            kErrAlreadyFinal);
}

TEST_F(SpecCallsTest, MeasurementStreamAdvancesDeterministically) {
  PageDb d2(16);
  Result r1 = SpecInitAddrspace(d, 0, 1);
  Result r2 = SpecInitAddrspace(d2, 0, 1);
  EXPECT_TRUE(r1.db == r2.db);
  r1 = SpecInitThread(*r1.db, 0, 4, 0x8000);
  r2 = SpecInitThread(*r2.db, 0, 4, 0x8004);  // different entry
  EXPECT_FALSE((*r1.db)[0].As<AddrspacePage>().measurement_stream ==
               (*r2.db)[0].As<AddrspacePage>().measurement_stream);
}

TEST_F(SpecCallsTest, FinaliseComputesDigestOfStream) {
  Apply(SpecInitAddrspace(d, 0, 1));
  Apply(SpecInitThread(d, 0, 4, 0x8000));
  const crypto::DigestWords expected =
      SpecMeasurementAfterFinalise(d[0].As<AddrspacePage>());
  Apply(SpecFinalise(d, 0));
  EXPECT_EQ(d[0].As<AddrspacePage>().measurement, expected);
  EXPECT_EQ(d[0].As<AddrspacePage>().state, AddrspaceState::kFinal);
}

TEST_F(SpecCallsTest, RemoveRefcountAccounting) {
  BuildFinalised();
  EXPECT_EQ(d[0].As<AddrspacePage>().refcount, 4u);
  Apply(SpecStop(d, 0));
  Apply(SpecRemove(d, 4));
  EXPECT_EQ(d[0].As<AddrspacePage>().refcount, 3u);
  Apply(SpecRemove(d, 3));
  Apply(SpecRemove(d, 2));
  Apply(SpecRemove(d, 1));
  EXPECT_EQ(d[0].As<AddrspacePage>().refcount, 0u);
  Apply(SpecRemove(d, 0));
  EXPECT_TRUE(d[0].IsFree());
}

TEST_F(SpecCallsTest, SvcMapDataZeroFills) {
  BuildFinalised();
  Apply(SpecAllocSpare(d, 0, 5));
  Apply(SpecSvcMapData(d, 0, 5, MakeMapping(0x30000, kMapR | kMapW)));
  EXPECT_EQ(d[5].type(), PageType::kDataPage);
  EXPECT_EQ(d[5].As<DataPage>().contents(), Fill(0));
  // And it is reachable from the table.
  const auto slot = SpecL2Slot(d, 0, MakeMapping(0x30000, kMapR | kMapW));
  ASSERT_TRUE(slot.has_value());
  const L2Entry entry = d[slot->first].As<L2PTablePage>().Get(slot->second);
  const auto* sm = std::get_if<SecureMapping>(&entry);
  ASSERT_NE(sm, nullptr);
  EXPECT_EQ(sm->data_page, 5u);
  EXPECT_TRUE(sm->writable);
  EXPECT_FALSE(sm->executable);
}

TEST_F(SpecCallsTest, SvcUnmapRequiresExactMapping) {
  BuildFinalised();
  Apply(SpecAllocSpare(d, 0, 5));
  Apply(SpecSvcMapData(d, 0, 5, MakeMapping(0x30000, kMapR | kMapW)));
  EXPECT_EQ(SpecSvcUnmapData(d, 0, 5, MakeMapping(0x31000, kMapR | kMapW)).err,
            kErrInvalidMapping);
  EXPECT_EQ(SpecSvcUnmapData(d, 0, 3, MakeMapping(0x30000, kMapR | kMapW)).err,
            kErrInvalidMapping);  // data page 3 is mapped at 0x8000, not here
  Apply(SpecSvcUnmapData(d, 0, 5, MakeMapping(0x30000, kMapR | kMapW)));
  EXPECT_EQ(d[5].type(), PageType::kSparePage);
}

TEST_F(SpecCallsTest, SvcInitL2TableCollisions) {
  BuildFinalised();
  Apply(SpecAllocSpare(d, 0, 5));
  EXPECT_EQ(SpecSvcInitL2Table(d, 0, 5, 0).err, kErrAddrInUse);  // slot 0 taken at build
  EXPECT_EQ(SpecSvcInitL2Table(d, 0, 5, 256).err, kErrInvalidMapping);
  EXPECT_EQ(SpecSvcInitL2Table(d, 0, 3, 1).err, kErrNotSpare);  // data page, not spare
  Apply(SpecSvcInitL2Table(d, 0, 5, 1));
  EXPECT_EQ(d[5].type(), PageType::kL2PTable);
}

TEST_F(SpecCallsTest, EveryHappyPathKeepsInvariants) {
  BuildFinalised();
  Apply(SpecAllocSpare(d, 0, 5));
  Apply(SpecSvcMapData(d, 0, 5, MakeMapping(0x30000, kMapR | kMapW)));
  const auto violations = PageDbViolations(d);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

}  // namespace
}  // namespace komodo::spec
