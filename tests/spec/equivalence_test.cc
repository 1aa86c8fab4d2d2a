// Unit tests for the observational-equivalence relations of §6.1
// (Definitions 1 and 2, and the ≈adv machine-state extension), and for the
// refinement relation the fuzzer and komodo-verify share.
#include "src/spec/equivalence.h"

#include <gtest/gtest.h>

namespace komodo::spec {
namespace {

PageDbEntry Data(PageNr owner, word fill) {
  DataPage::Words words;
  words.fill(fill);
  return PageDbEntry{owner, DataPage(words)};
}

PageDbEntry Disp(PageNr owner, bool entered, word pc) {
  DispatcherPage disp;
  disp.entered = entered;
  disp.pc = pc;
  return PageDbEntry{owner, disp};
}

TEST(WeakEquivTest, DataPagesEqualRegardlessOfContents) {
  EXPECT_TRUE(WeakEquivPage(Data(0, 1), Data(0, 2)));
}

TEST(WeakEquivTest, TypeMismatchDetected) {
  EXPECT_FALSE(WeakEquivPage(Data(0, 1), PageDbEntry{0, SparePage{}}));
  EXPECT_FALSE(WeakEquivPage(PageDbEntry{kInvalidPage, FreePage{}}, Data(0, 1)));
}

TEST(WeakEquivTest, DispatcherEnteredFlagObservableContextNot) {
  EXPECT_TRUE(WeakEquivPage(Disp(0, false, 0x100), Disp(0, false, 0x999)));
  EXPECT_TRUE(WeakEquivPage(Disp(0, true, 0x100), Disp(0, true, 0x999)));
  EXPECT_FALSE(WeakEquivPage(Disp(0, true, 0x100), Disp(0, false, 0x100)));
}

TEST(WeakEquivTest, AddrspaceRequiresFullEquality) {
  AddrspacePage as1;
  as1.l1pt_page = 1;
  as1.refcount = 2;
  AddrspacePage as2 = as1;
  EXPECT_TRUE(WeakEquivPage(PageDbEntry{0, as1}, PageDbEntry{0, as2}));
  as2.measurement[0] = 1;
  EXPECT_FALSE(WeakEquivPage(PageDbEntry{0, as1}, PageDbEntry{0, as2}));
}

TEST(WeakEquivTest, PageTablesRequireFullEquality) {
  L2PTablePage l2a;
  L2PTablePage l2b;
  EXPECT_TRUE(WeakEquivPage(PageDbEntry{0, l2a}, PageDbEntry{0, l2b}));
  l2b.Set(3, SecureMapping{4, true, false});
  EXPECT_FALSE(WeakEquivPage(PageDbEntry{0, l2a}, PageDbEntry{0, l2b}));
}

class EncEquivTest : public ::testing::Test {
 protected:
  EncEquivTest() : d1(8), d2(8) {
    // Two enclaves: observer (as=0) with data page 1; other (as=2) with data
    // page 3.
    AddrspacePage as;
    as.l1pt_page = 4;
    as.refcount = 2;
    d1[0] = d2[0] = PageDbEntry{0, as};
    d1[1] = Data(0, 7);
    d2[1] = Data(0, 7);
    d1[2] = d2[2] = PageDbEntry{2, as};
    d1[3] = Data(2, 1);
    d2[3] = Data(2, 99);  // other enclave's secret differs
    d1[4] = d2[4] = PageDbEntry{0, L1PTablePage{}};
  }
  PageDb d1;
  PageDb d2;
};

TEST_F(EncEquivTest, RelatedWhenOnlyForeignSecretsDiffer) {
  const auto violations = EncEquivViolations(d1, d2, 0);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_F(EncEquivTest, OwnPagesMustBeFullyEqual) {
  d2[1] = Data(0, 8);  // observer's own data page differs
  EXPECT_FALSE(ObsEquivEnc(d1, d2, 0));
  // From the other enclave's perspective, page 1 is foreign — after aligning
  // its *own* page (3, which the fixture left different), the states relate.
  d2[3] = Data(2, 1);
  EXPECT_TRUE(ObsEquivEnc(d1, d2, 2));
}

TEST_F(EncEquivTest, FreeSetMustAgree) {
  d2[5] = Data(2, 0);
  EXPECT_FALSE(ObsEquivEnc(d1, d2, 0));
}

TEST_F(EncEquivTest, OwnershipSetMustAgree) {
  d1[5] = Data(0, 0);
  d2[5] = Data(2, 0);
  EXPECT_FALSE(ObsEquivEnc(d1, d2, 0));
}

TEST(AdvEquivTest, RegistersAndInsecureMemoryObservable) {
  arm::MachineState m1(8);
  arm::MachineState m2(8);
  PageDb d1(8);
  PageDb d2(8);
  EXPECT_TRUE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));

  m2.r[3] = 5;
  EXPECT_FALSE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));
  m2.r[3] = 0;

  m2.mem.Write(arm::kInsecureBase + 0x2000, 1);
  EXPECT_FALSE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));
  m2.mem.Write(arm::kInsecureBase + 0x2000, 0);

  m2.sp_banked[static_cast<size_t>(arm::Mode::kIrq)] = 9;
  EXPECT_FALSE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));
  m2.sp_banked[static_cast<size_t>(arm::Mode::kIrq)] = 0;
  EXPECT_TRUE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));
}

TEST(AdvEquivTest, MonitorBankAndSecureMemoryInvisible) {
  arm::MachineState m1(8);
  arm::MachineState m2(8);
  PageDb d1(8);
  PageDb d2(8);
  // Monitor-mode banked state and secure RAM are not adversary-observable.
  m2.sp_banked[static_cast<size_t>(arm::Mode::kMonitor)] = 0x1234;
  m2.lr_banked[static_cast<size_t>(arm::Mode::kMonitor)] = 0x5678;
  m2.mem.Write(arm::kMonitorBase + 0x40, 0xdead);
  m2.mem.Write(arm::kSecurePagesBase + 0x40, 0xbeef);
  EXPECT_TRUE(ObsEquivAdv(m1, d1, m2, d2, kInvalidPage));
}

TEST(RefinementRelationTest, ErrorWordOutranksAnUndecodablePostState) {
  const PageDb pre(4);
  const std::string undecodable = "undecodable";
  EXPECT_EQ(CheckRefinement(pre, /*is_svc=*/false, kSmcRemove, {kErrInvalidPageNo}, kErrSuccess,
                            nullptr, undecodable)
                .failure,
            "smc 20 impl=success spec=invalid_pageno");
  // With the error words agreeing, the undecodable post-state is the failure.
  EXPECT_EQ(CheckRefinement(pre, false, kSmcRemove, {kErrInvalidPageNo}, kErrInvalidPageNo,
                            nullptr, undecodable)
                .failure,
            "undecodable");
}

TEST(RefinementRelationTest, ModelledCallsMustLandOnTheSpecPageDb) {
  const PageDb pre(4);
  PageDb spec_db = pre;
  spec_db[1] = Data(0, 0);
  const PageDb post = spec_db;
  RefinementStep step =
      CheckRefinement(pre, false, kSmcMapSecure, {kErrSuccess, spec_db}, kErrSuccess, &post, {});
  EXPECT_TRUE(step.failure.empty());
  EXPECT_TRUE(step.successor == spec_db);
  // Wrote nothing, but the spec says the PageDb changed.
  step =
      CheckRefinement(pre, false, kSmcMapSecure, {kErrSuccess, spec_db}, kErrSuccess, nullptr, {});
  EXPECT_EQ(step.failure, "smc 13 pagedb diverges from spec");
  // A failed call must leave the PageDb as it was.
  step = CheckRefinement(pre, true, kSvcMapData, {kErrNotSpare}, kErrNotSpare, &post, {});
  EXPECT_EQ(step.failure, "svc 11 failed with not_spare but mutated the pagedb");
  step = CheckRefinement(pre, true, kSvcMapData, {kErrNotSpare}, kErrNotSpare, nullptr, {});
  EXPECT_TRUE(step.failure.empty());
  EXPECT_FALSE(step.successor.has_value());
  // A success the spec did not write: neither side wrote, so no successor.
  step = CheckRefinement(pre, false, kSmcQuery, {kErrSuccess}, kErrSuccess, nullptr, {});
  EXPECT_TRUE(step.failure.empty());
  EXPECT_FALSE(step.successor.has_value());
  // The implementation wrote a PageDb the spec did not.
  step = CheckRefinement(pre, false, kSmcQuery, {kErrSuccess}, kErrSuccess, &post, {});
  EXPECT_EQ(step.failure, "smc 1 pagedb diverges from spec");
}

TEST(RefinementRelationTest, HavocCallsResynchronizeFromTheImplementation) {
  const PageDb pre(4);
  PageDb impl_db = pre;
  impl_db[2] = Disp(0, true, 0x8000);
  const PageDb* post = &impl_db;
  // Enter whose guard passed: any legitimate outcome, successor from the impl.
  for (const word err : {kErrSuccess, kErrInterrupted, kErrFault}) {
    const RefinementStep step =
        CheckRefinement(pre, false, kSmcEnter, {kErrSuccess}, err, post, {});
    EXPECT_TRUE(step.failure.empty());
    EXPECT_TRUE(step.successor == impl_db);
  }
  EXPECT_EQ(CheckRefinement(pre, false, kSmcResume, {kErrSuccess}, kErrNotEntered, post, {})
                .failure,
            "enter/resume guard passed in spec but impl says not_entered");
  // Enter whose guard failed is modelled: the error word must match.
  EXPECT_EQ(CheckRefinement(pre, false, kSmcEnter, {kErrNotFinal}, kErrSuccess, post, {}).failure,
            "smc 22 impl=success spec=not_final");
  // Exit/Attest/Verify are havoc whatever they return; GetRandom is not.
  for (const word svc : {kSvcExit, kSvcAttest, kSvcVerify}) {
    EXPECT_TRUE(CheckRefinement(pre, true, svc, {kErrSuccess}, kErrFault, post, {}).failure.empty());
  }
  EXPECT_FALSE(CheckRefinement(pre, true, kSvcGetRandom, {kErrSuccess}, kErrSuccess, post, {})
                   .failure.empty());
}

}  // namespace
}  // namespace komodo::spec
