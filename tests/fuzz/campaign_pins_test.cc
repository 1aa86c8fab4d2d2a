// Pins the campaign hashes scripts/check.sh pins, so tier-1 ctest catches a
// drifted oracle verdict or a change to RunCampaign's round loop on its own,
// and pins the loop's failure rules (DESIGN.md §11, §15): the reported
// failure is the first in (round, task) order, whichever worker finished
// first, and a failing trace never enters the corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"

namespace komodo::fuzz {
namespace {

// check.sh's FUZZ_SMOKE_HASH and EVOLVE_HASH.
constexpr char kBlindSmokeHash[] =
    "c757d8cefebc445d72864a83b3210a3291a43c449c5f0c637e6b7aef2e809ca1";
constexpr char kEvolveSmokeHash[] =
    "6b26c4ccebdfa30ef68914062b305ea3f4e6896d427d3b5792126ac574e4ba9e";

// `komodo-fuzz --seed 20260807 --calls 400 --trace-len 60`.
CampaignOptions BlindSmoke() {
  CampaignOptions opts;
  opts.seed = 20260807;
  opts.calls = 400;
  opts.trace_len = 60;
  opts.jobs = 2;
  return opts;
}

// `komodo-fuzz --mode evolve --seed 20260807 --calls 400 --trace-len 30
// --shards 4 --rounds 3 --max-corpus 32`.
CampaignOptions EvolveSmoke() {
  CampaignOptions opts;
  opts.mode = CampaignMode::kEvolve;
  opts.seed = 20260807;
  opts.calls = 400;
  opts.trace_len = 30;
  opts.shards = 4;
  opts.rounds = 3;
  opts.max_corpus = 32;
  opts.jobs = 2;
  return opts;
}

// Replays a campaign's first round outside RunCampaign: for each (oracle,
// shard) task in canonical order, the seed of the shard's first failing
// trace, or 0 if it ran clean. The first round draws only fresh traces from
// the shard streams of `master` (the corpus is still empty) and spends
// 1/rounds of each shard's share of the budget.
std::vector<uint64_t> FirstRoundFailures(const CampaignOptions& opts, uint64_t master,
                                         uint32_t rounds) {
  std::vector<uint64_t> failing;
  for (const std::string& oracle : opts.oracles) {
    for (uint32_t s = 0; s < opts.shards; ++s) {
      const uint64_t budget =
          (opts.calls / opts.shards + (s < opts.calls % opts.shards ? 1 : 0)) / rounds;
      uint64_t seed = 0;
      for (uint64_t k = 0, calls = 0; calls < budget && seed == 0; ++k) {
        Trace t = GenerateTrace(oracle, ShardTraceSeed(master, s, k), opts.trace_len);
        t.inject = opts.inject;
        calls += t.CallCount();
        if (RunTrace(t).failed) {
          seed = t.seed;
        }
      }
      failing.push_back(seed);
    }
  }
  return failing;
}

TEST(CampaignPins, BlindSmokeHash) {
  const CampaignResult r = RunCampaign(BlindSmoke());
  EXPECT_FALSE(r.failed) << r.verdict.detail;
  EXPECT_EQ(r.hash, kBlindSmokeHash);
  EXPECT_EQ(r.coverage_keys, 0u);
  EXPECT_TRUE(r.coverage_curve.empty());
  EXPECT_TRUE(r.corpora.empty());
}

// Blind coverage is counted through the same discovery merge evolve uses,
// but never hashed: the v2 hash stays put and the key counts are pinned.
TEST(CampaignPins, BlindCoverageLeavesTheHashAlone) {
  CampaignOptions opts = BlindSmoke();
  opts.measure_coverage = true;
  const CampaignResult r = RunCampaign(opts);
  EXPECT_FALSE(r.failed) << r.verdict.detail;
  EXPECT_EQ(r.hash, kBlindSmokeHash);
  EXPECT_EQ(r.coverage_keys, 262u);
  const std::vector<uint64_t> per_oracle = {67, 74, 72, 49};
  ASSERT_EQ(r.stats.size(), per_oracle.size());
  for (size_t i = 0; i < per_oracle.size(); ++i) {
    EXPECT_EQ(r.stats[i].coverage_keys, per_oracle[i]) << r.stats[i].oracle;
    EXPECT_EQ(r.stats[i].corpus_entries, 0u) << r.stats[i].oracle;
  }
}

TEST(CampaignPins, EvolveSmokeHash) {
  const CampaignResult r = RunCampaign(EvolveSmoke());
  EXPECT_FALSE(r.failed) << r.verdict.detail;
  EXPECT_EQ(r.hash, kEvolveSmokeHash);
  EXPECT_EQ(r.coverage_curve, (std::vector<uint64_t>{202, 202, 212}));
  const std::vector<uint64_t> corpus = {8, 7, 9, 5};
  ASSERT_EQ(r.stats.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(r.stats[i].corpus_entries, corpus[i]) << r.stats[i].oracle;
  }
}

// Six of sixteen shards fail, none of them shard 0 or 1; four workers race
// for the shards, and the report is still shard 2's failure and witness.
TEST(CampaignPins, BlindFailureIsTheFirstInTaskOrder) {
  CampaignOptions opts;
  opts.seed = 7;
  opts.calls = 200;
  opts.trace_len = 40;
  opts.oracles = {"refinement"};
  opts.inject = "initaddrspace-alias";
  opts.jobs = 4;

  const std::vector<uint64_t> failing = FirstRoundFailures(opts, opts.seed, 1);
  ASSERT_EQ(failing.size(), 16u);
  EXPECT_EQ(failing[0], 0u);
  EXPECT_EQ(failing[1], 0u);
  ASSERT_NE(failing[2], 0u);
  EXPECT_NE(failing[3], 0u);

  const CampaignResult r = RunCampaign(opts);
  ASSERT_TRUE(r.failed);
  EXPECT_EQ(r.original.seed, failing[2]);
  EXPECT_EQ(r.hash, "7f1dd411ef4d5cde41f73eccacff268f00b20f550b6ec1d2379b2ffb18acc736");
  EXPECT_EQ(r.witness.Format(),
            "komodo-fuzz-trace v1\n"
            "oracle refinement\n"
            "seed 18100164038347421182\n"
            "pages 24\n"
            "inject initaddrspace-alias\n"
            "smc 10 0x6 0x6 0x0 0x0\n"
            "end\n");
}

// In round 0 shards 1, 3 and 7 fail; shard 0 runs clean there and fails in
// round 1, so a (task, round) order would report shard 0. The (round, task)
// order reports shard 1's round-0 failure. Three of this campaign's failing
// traces reached coverage new to their shard, and all stay out of the
// corpus: each entry replays clean under its injection.
TEST(CampaignPins, EvolveFailureIsTheFirstInRoundTaskOrder) {
  CampaignOptions opts;
  opts.mode = CampaignMode::kEvolve;
  opts.seed = 84;
  opts.calls = 400;
  opts.trace_len = 30;
  opts.shards = 8;
  opts.rounds = 3;
  opts.max_corpus = 32;
  opts.oracles = {"refinement"};
  opts.inject = "remove-skip-refcount";
  opts.jobs = 4;

  const std::vector<uint64_t> failing =
      FirstRoundFailures(opts, EvolveRoundSeed(opts.seed, 0), opts.rounds);
  ASSERT_EQ(failing.size(), 8u);
  EXPECT_EQ(failing[0], 0u);
  ASSERT_NE(failing[1], 0u);
  EXPECT_NE(failing[3], 0u);
  EXPECT_NE(failing[7], 0u);

  const CampaignResult r = RunCampaign(opts);
  ASSERT_TRUE(r.failed);
  EXPECT_EQ(r.original.seed, failing[1]);
  EXPECT_EQ(r.hash, "6d1e9b477224281a4f5d992494347eb846cb606ad01879b2871989fee1b5ab0c");
  EXPECT_EQ(r.witness.Format(),
            "komodo-fuzz-trace v1\n"
            "oracle refinement\n"
            "seed 11764243052421778378\n"
            "pages 24\n"
            "inject remove-skip-refcount\n"
            "smc 20 0x0 0x0 0x0 0x0\n"
            "svc 0 0x0 0x0 0x0\n"
            "end\n");

  ASSERT_EQ(r.corpora.size(), 1u);
  EXPECT_EQ(r.corpora[0].size(), 6u);
  for (const CorpusEntry& e : r.corpora[0].entries()) {
    EXPECT_NE(e.hash, r.original.Hash());
    EXPECT_FALSE(RunTrace(e.trace).failed) << e.trace.Format();
  }
}

}  // namespace
}  // namespace komodo::fuzz
