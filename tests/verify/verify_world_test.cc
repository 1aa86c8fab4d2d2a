// End-to-end properties of the small-world exploration: the default world
// closes with every obligation holding, the registry's declared error sets
// are exactly the observable ones (both directions), an injected monitor
// bug is found with a counterexample the fuzzer replays, and the result is
// the same at any worker count, each injection's outcome pinned.
#include <gtest/gtest.h>

#include <string>

#include "src/core/call_table.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/oracles.h"
#include "src/verify/explore.h"

namespace komodo::verify {
namespace {

WorldSpec WithJobs(WorldSpec spec, unsigned jobs) {
  spec.jobs = jobs;
  return spec;
}

// The small-world closure takes a few seconds, so every test that only reads
// the clean run shares one exploration.
const ExploreResult& SmallWorld() {
  static const ExploreResult r = Explore(WithJobs(WorldSpec{}, 4));
  return r;
}

TEST(VerifyWorldTest, SmallWorldClosesWithAllObligations) {
  const ExploreResult& r = SmallWorld();
  ASSERT_TRUE(r.harness_error.empty()) << r.harness_error;
  ASSERT_TRUE(r.ok) << (r.failure.has_value() ? r.failure->detail : "");
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_GT(r.states, 100u);  // a collapsed closure means canon over-merges
  EXPECT_FALSE(r.closure_hash.empty());
}

// The registry cross-check, both directions. The explorer already fails the
// run when an observed error is undeclared; this test demands the converse
// too — every declared error is actually reachable in the small world, so a
// stale `errors` column in call_list.inc cannot survive.
TEST(VerifyWorldTest, DeclaredErrorSetsAreExactlyTheObservableOnes) {
  const ExploreResult& r = SmallWorld();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.calls.size(), static_cast<size_t>(kNumSmcCalls + kNumSvcCalls));
  for (const CallStats& c : r.calls) {
    SCOPED_TRACE(std::string(c.is_svc ? "svc " : "smc ") + c.name);
    EXPECT_GT(c.transitions, 0u);
    EXPECT_EQ(c.errors, c.declared);
  }
}

TEST(VerifyWorldTest, InjectedBugIsFoundAndWitnessReplays) {
  WorldSpec spec;
  spec.inject = "initaddrspace-alias";
  const ExploreResult r = Explore(spec);
  ASSERT_TRUE(r.harness_error.empty()) << r.harness_error;
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  // The alias bug fires on the very first InitAddrspace from boot.
  EXPECT_EQ(r.failure->depth, 1u);
  EXPECT_TRUE(r.failure->exact_replay);

  // The counterexample is a komodo-fuzz trace: it must fail under its
  // injection and pass against the clean monitor (same contract as the
  // committed corpus).
  const fuzz::Verdict with = fuzz::RunTrace(r.failure->trace, /*apply_inject=*/true);
  EXPECT_TRUE(with.failed) << "witness does not reproduce under the injection";
  const fuzz::Verdict without = fuzz::RunTrace(r.failure->trace, /*apply_inject=*/false);
  EXPECT_FALSE(without.failed) << "clean monitor fails the witness: " << without.detail;
}

void ExpectSameResult(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.harness_error, b.harness_error);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.clipped, b.clipped);
  EXPECT_EQ(a.closure_hash, b.closure_hash);
  EXPECT_EQ(a.queue_hash, b.queue_hash);
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (size_t i = 0; i < a.calls.size(); ++i) {
    SCOPED_TRACE(a.calls[i].name);
    EXPECT_EQ(a.calls[i].transitions, b.calls[i].transitions);
    EXPECT_EQ(a.calls[i].errors, b.calls[i].errors);
  }
  ASSERT_EQ(a.failure.has_value(), b.failure.has_value());
  if (a.failure.has_value()) {
    EXPECT_EQ(a.failure->detail, b.failure->detail);
    EXPECT_EQ(a.failure->depth, b.failure->depth);
    EXPECT_EQ(a.failure->exact_replay, b.failure->exact_replay);
    EXPECT_EQ(a.failure->trace.Format(), b.failure->trace.Format());
  }
}

// The small world under each injection, as `komodo-verify --world small
// --inject X` reports it: the first failure's depth, text and witness trace,
// or a pass at the clean closure. The checker misses skip-scratch-clear (a
// register leak, which only noninterference sees) and stale-decode (an
// interpreter-cache bug): it checks no noninterference and runs no enclave
// code.
struct InjectOutcome {
  const char* inject;
  uint64_t states;
  uint64_t transitions;
  size_t fail_depth;    // 0: the run passes
  const char* detail;   // failure text; for a pass, the closure hash
  const char* witness;  // counterexample trace of a failure
};

constexpr const char* kCleanClosure =
    "99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31";

constexpr InjectOutcome kInjectOutcomes[] = {
    {"initaddrspace-alias", 0, 3, 1,
     "extraction failed after impl call: page 0: L1 slot 4: descriptor 0x6a09e667 is neither "
     "fault nor page-table",
     "komodo-fuzz-trace v1\noracle refinement\nseed 0\npages 5\ninject initaddrspace-alias\n"
     "smc 10 0x0 0x0 0x0 0x0\nend\n"},
    {"remove-skip-refcount", 0, 984, 2, "smc 20 impl=success spec=page_in_use",
     "komodo-fuzz-trace v1\noracle refinement\nseed 0\npages 5\ninject remove-skip-refcount\n"
     "smc 10 0x1 0x0 0x0 0x0\nsmc 20 0x1 0x0 0x0 0x0\nend\n"},
    {"skip-scratch-clear", 2874, 1551702, 0, kCleanClosure, ""},
    {"stale-decode", 2874, 1551702, 0, kCleanClosure, ""},
};

void ExpectOutcome(const ExploreResult& r, const InjectOutcome& pin) {
  EXPECT_TRUE(r.harness_error.empty()) << r.harness_error;
  EXPECT_EQ(r.states, pin.states);
  EXPECT_EQ(r.transitions, pin.transitions);
  if (pin.fail_depth == 0) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.closure_hash, pin.detail);
    return;
  }
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  EXPECT_EQ(r.failure->depth, pin.fail_depth);
  EXPECT_EQ(r.failure->detail, pin.detail);
  EXPECT_EQ(r.failure->trace.Format(), pin.witness);
}

// Workers expand states concurrently but commit them in queue order, so one
// worker and four reach the same result: the same closure, and under an
// injection the same first failure with the counts stopped at it. The
// remove-skip-refcount case fails in BFS level 1, after 984 transitions,
// while other workers still hold later states of that level. Commits in
// completion order would reach the same closure; the queue hash tells them
// apart.
TEST(VerifyWorldTest, ResultIsTheSameAtAnyJobCount) {
  {
    SCOPED_TRACE("small");
    ExpectSameResult(Explore(WithJobs(WorldSpec{}, 1)), SmallWorld());
  }
  {
    SCOPED_TRACE("mini");
    WorldSpec mini;
    mini.pages = 2;
    mini.max_addrspaces = 1;
    ExpectSameResult(Explore(WithJobs(mini, 1)), Explore(WithJobs(mini, 4)));
  }
  ASSERT_EQ(std::size(kInjectOutcomes), std::size(fuzz::kInjectNames));
  for (size_t i = 0; i < std::size(kInjectOutcomes); ++i) {
    const InjectOutcome& pin = kInjectOutcomes[i];
    SCOPED_TRACE(pin.inject);
    ASSERT_STREQ(pin.inject, fuzz::kInjectNames[i]);
    WorldSpec injected;
    injected.inject = pin.inject;
    const ExploreResult one = Explore(WithJobs(injected, 1));
    ExpectOutcome(one, pin);
    ExpectSameResult(one, Explore(WithJobs(injected, 4)));
  }
}

TEST(VerifyWorldTest, UnknownInjectIsAHarnessError) {
  WorldSpec spec;
  spec.inject = "no-such-fault";
  const ExploreResult r = Explore(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.harness_error.empty());
}

}  // namespace
}  // namespace komodo::verify
