// PageDB validity invariants: hand-built abstract states, both valid and
// deliberately corrupted, plus the extracted state of real monitor runs.
#include "src/spec/invariants.h"

#include <gtest/gtest.h>

#include "src/spec/spec_calls.h"

namespace komodo::spec {
namespace {

PageDb EmptyDb() { return PageDb(16); }

// A minimal consistent enclave: as=0, l1pt=1, l2pt=2, data=3, disp=4.
PageDb SmallEnclaveDb() {
  PageDb d = EmptyDb();
  AddrspacePage as;
  as.l1pt_page = 1;
  as.refcount = 4;
  as.state = AddrspaceState::kFinal;
  d[0] = PageDbEntry{0, as};
  L1PTablePage l1;
  l1.Set(0, 2);
  d[1] = PageDbEntry{0, l1};
  L2PTablePage l2;
  l2.Set(8, SecureMapping{3, true, false});
  d[2] = PageDbEntry{0, l2};
  d[3] = PageDbEntry{0, DataPage{}};
  d[4] = PageDbEntry{0, DispatcherPage{}};
  return d;
}

TEST(InvariantsTest, EmptyDbValid) { EXPECT_TRUE(ValidPageDb(EmptyDb())); }

TEST(InvariantsTest, SmallEnclaveValid) {
  const auto violations = PageDbViolations(SmallEnclaveDb());
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(InvariantsTest, DetectsWrongRefcount) {
  PageDb d = SmallEnclaveDb();
  d[0].As<AddrspacePage>().refcount = 2;
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsFreePageWithOwner) {
  PageDb d = SmallEnclaveDb();
  d[9] = PageDbEntry{0, FreePage{}};
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsOrphanPage) {
  PageDb d = SmallEnclaveDb();
  d[9] = PageDbEntry{12, SparePage{}};  // owner 12 is free, not an addrspace
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsAddrspaceNotOwningItself) {
  PageDb d = SmallEnclaveDb();
  d[0].owner = 3;
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsBadL1Reference) {
  PageDb d = SmallEnclaveDb();
  d[0].As<AddrspacePage>().l1pt_page = 3;  // a data page
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsL1SlotToForeignTable) {
  PageDb d = SmallEnclaveDb();
  // Second enclave (as=8, l1pt=9) referencing enclave 0's L2 table.
  AddrspacePage as;
  as.l1pt_page = 9;
  as.refcount = 1;
  d[8] = PageDbEntry{8, as};
  L1PTablePage l1;
  l1.Set(0, 2);  // foreign!
  d[9] = PageDbEntry{8, l1};
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsL2MappingForeignData) {
  PageDb d = SmallEnclaveDb();
  AddrspacePage as;
  as.l1pt_page = 9;
  as.refcount = 3;
  d[8] = PageDbEntry{8, as};
  L1PTablePage l1;
  l1.Set(0, 10);
  d[9] = PageDbEntry{8, l1};
  L2PTablePage l2;
  l2.Set(5, SecureMapping{3, false, false});  // page 3 belongs to enclave 0
  d[10] = PageDbEntry{8, l2};
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsDoubleMappedDataPage) {
  PageDb d = SmallEnclaveDb();
  d[2].As<L2PTablePage>().Set(9, SecureMapping{3, false, false});
  d[0].As<AddrspacePage>().refcount = 4;
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, DetectsUnmappedDataPage) {
  PageDb d = SmallEnclaveDb();
  d[2].As<L2PTablePage>().Set(8, std::monostate{});
  EXPECT_FALSE(ValidPageDb(d));
}

TEST(InvariantsTest, StoppedAddrspaceExemptFromTableChecks) {
  PageDb d = SmallEnclaveDb();
  d[0].As<AddrspacePage>().state = AddrspaceState::kStopped;
  // Remove the data page out from under the table — legal when stopped.
  d[3] = PageDbEntry{kInvalidPage, FreePage{}};
  d[0].As<AddrspacePage>().refcount = 3;
  const auto violations = PageDbViolations(d);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(InvariantsTest, SpecCallsPreserveValidity) {
  // Drive the spec functions directly through a lifecycle and check validity
  // after every step.
  PageDb d = EmptyDb();
  auto step = [&d](Result r) {
    EXPECT_EQ(r.err, kErrSuccess);
    ASSERT_TRUE(r.db.has_value());
    d = std::move(*r.db);
    const auto violations = PageDbViolations(d);
    ASSERT_TRUE(violations.empty()) << violations.front();
  };
  step(SpecInitAddrspace(d, 0, 1));
  step(SpecInitL2Table(d, 0, 2, 0));
  std::array<word, arm::kWordsPerPage> contents{};
  step(SpecMapSecure(d, 0, 3, MakeMapping(0x8000, kMapR | kMapX), contents));
  step(SpecInitThread(d, 0, 4, 0x8000));
  step(SpecAllocSpare(d, 0, 5));
  step(SpecMapInsecure(d, 0, MakeMapping(0x9000, kMapR | kMapW), true, 40));
  step(SpecFinalise(d, 0));
  step(SpecSvcInitL2Table(d, 0, 5, 1));
  step(SpecAllocSpare(d, 0, 6));
  step(SpecSvcMapData(d, 0, 6, MakeMapping(0x0040'0000, kMapR | kMapW)));
  step(SpecSvcUnmapData(d, 0, 6, MakeMapping(0x0040'0000, kMapR | kMapW)));
  step(SpecStop(d, 0));
  for (PageNr n : {6u, 5u, 4u, 3u, 2u, 1u}) {
    step(SpecRemove(d, n));
  }
  step(SpecRemove(d, 0));
  EXPECT_TRUE(d == EmptyDb());
}

TEST(InvariantsTest, SpecFailuresLeaveStateUnchanged) {
  PageDb d = EmptyDb();
  d = *SpecInitAddrspace(d, 0, 1).db;
  // Failed calls return no successor: the state stays the input.
  auto check = [](const Result& r) {
    EXPECT_NE(r.err, kErrSuccess);
    EXPECT_FALSE(r.db.has_value());
  };
  check(SpecInitAddrspace(d, 0, 2));
  check(SpecInitL2Table(d, 0, 1, 0));
  check(SpecInitThread(d, 2, 3, 0));
  check(SpecRemove(d, 1));
  check(SpecSvcMapData(d, 0, 9, MakeMapping(0x8000, kMapR)));
}

}  // namespace
}  // namespace komodo::spec
