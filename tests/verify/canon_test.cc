// Symmetry canonicalization for the model checker: the canonical key must be
// a true orbit invariant (same key for every page-number relabeling of a
// state, different keys for genuinely different states) and the quotient must
// respect the PageDb validity invariants it is used to cache.
#include "src/verify/canon.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/spec/invariants.h"
#include "src/verify/explore.h"

namespace komodo::verify {
namespace {

using spec::AddrspacePage;
using spec::DataPage;
using spec::DispatcherPage;
using spec::L1PTablePage;
using spec::L2PTablePage;
using spec::PageDb;
using spec::PageDbEntry;
using spec::SecureMapping;

// A 6-page world with one full enclave (as=0, l1pt=1, l2pt=2, data=3,
// disp=4) and one free page — every reference-carrying page type at once.
PageDb EnclaveDb() {
  PageDb d(6);
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
  DataPage::Words data{};
  data[0] = 0x1234;
  d[3] = PageDbEntry{0, DataPage(data)};
  d[4] = PageDbEntry{0, DispatcherPage{}};
  return d;
}

// All permutations of 0..n-1.
std::vector<Perm> AllPerms(PageNr n) {
  Perm p(n);
  std::iota(p.begin(), p.end(), 0);
  std::vector<Perm> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

// The key format itself, pinned directly rather than only through the closure
// hash: page records in page order, mapped table slots in ascending slot
// order, data pages by the SHA-256 of their contents, measurements left out.
TEST(CanonTest, SerializeFormatIsPinned) {
  EXPECT_EQ(Serialize(EnclaveDb()),
            "1:0|as,1,4:1;3:0|l1,0:2;4:0|l2,8sw-:3;"
            "5:0|data,7ad36782cf38c73d4f6ffe4e22283f40057e52aff911347da0b629c2ab464f5f;"
            "2:0|d,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0;0:ffffffff;");
}

TEST(CanonTest, KeyIsInvariantUnderEveryPermutation) {
  const PageDb d = EnclaveDb();
  const std::string key = CanonicalKey(d);
  for (const Perm& p : AllPerms(d.NPages())) {
    EXPECT_EQ(CanonicalKey(ApplyPermutation(d, p)), key);
  }
}

TEST(CanonTest, DistinctStatesGetDistinctKeys) {
  const PageDb d = EnclaveDb();
  PageDb stopped = d;
  stopped[0].As<AddrspacePage>().state = AddrspaceState::kStopped;
  EXPECT_NE(CanonicalKey(d), CanonicalKey(stopped));

  PageDb wrote = d;
  DataPage::Words words = wrote[3].As<DataPage>().contents();
  words[7] = 0xdead;
  wrote[3].As<DataPage>() = DataPage(words);
  EXPECT_NE(CanonicalKey(d), CanonicalKey(wrote));
}

TEST(CanonTest, PermutationPreservesInvariantVerdict) {
  const PageDb d = EnclaveDb();
  ASSERT_TRUE(spec::PageDbViolations(d).empty());
  for (const Perm& p : AllPerms(d.NPages())) {
    const PageDb permuted = ApplyPermutation(d, p);
    EXPECT_TRUE(spec::PageDbViolations(permuted).empty())
        << spec::PageDbViolations(permuted).front();
  }

  PageDb bad = d;
  bad[0].As<AddrspacePage>().refcount = 1;  // wrong: owns 4 pages
  for (const Perm& p : AllPerms(d.NPages())) {
    EXPECT_FALSE(spec::PageDbViolations(ApplyPermutation(bad, p)).empty());
  }
}

TEST(CanonTest, MeasurementIsQuotientedOut) {
  // The serialization deliberately excludes the addrspace measurement (no
  // guard or invariant reads it), so two states differing only there — e.g.
  // Stopped-from-Init vs Stopped-from-Final — collapse into one.
  const PageDb d = EnclaveDb();
  PageDb measured = d;
  measured[0].As<AddrspacePage>().measurement[0] = 0xfeed;
  EXPECT_FALSE(measured == d);  // full comparison still distinguishes them
  EXPECT_EQ(CanonicalKey(measured), CanonicalKey(d));
}

// The mini world's closure was derived by hand: boot [Free, Free], then
// InitAddrspace is the only call that can make progress, giving
//   S1 as(Init, rc=1) + l1pt    S2 as(Final) + l1pt   (Finalise)
//   S3 as(Stopped) + l1pt       (Stop)
//   S4 as(Stopped, rc=0) + Free (Remove l1pt)
// and Remove(as) from S4 closes the cycle back to boot. Five states; a sixth
// would mean either canonicalization or a spec guard regressed.
TEST(CanonTest, MiniWorldClosesAtFiveStates) {
  WorldSpec spec;
  spec.pages = 2;
  spec.max_addrspaces = 1;
  const ExploreResult r = Explore(spec);
  ASSERT_TRUE(r.harness_error.empty()) << r.harness_error;
  ASSERT_TRUE(r.ok) << (r.failure.has_value() ? r.failure->detail : "");
  EXPECT_EQ(r.states, 5u);
  EXPECT_EQ(r.clipped, 0u);
}

TEST(CanonTest, ExplorationIsDeterministic) {
  WorldSpec spec;
  spec.pages = 2;
  spec.max_addrspaces = 1;
  const ExploreResult a = Explore(spec);
  const ExploreResult b = Explore(spec);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.closure_hash, b.closure_hash);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_FALSE(a.closure_hash.empty());
}

}  // namespace
}  // namespace komodo::verify
