// Pins the parallel-campaign determinism contract (DESIGN.md §11): the
// campaign hash, stats and failure report are a pure function of the options
// for any --jobs count, and snapshot-reset world reuse is state-equal to
// fresh construction and reaches the same verdict on every trace.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "src/fuzz/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/pool.h"
#include "src/os/world.h"

namespace komodo::fuzz {
namespace {

CampaignOptions SmokeOptions() {
  CampaignOptions opts;
  opts.seed = 20260807;
  opts.calls = 150;
  opts.trace_len = 40;
  return opts;
}

// (a) The whole-campaign result — hash, per-oracle trace/call counts,
// pass/fail — is byte-identical whether one thread runs all shards or eight
// threads race for them.
TEST(ParallelCampaign, JobsInvariantHashAndStats) {
  CampaignOptions serial = SmokeOptions();
  serial.jobs = 1;
  CampaignOptions parallel = SmokeOptions();
  parallel.jobs = 8;

  const CampaignResult a = RunCampaign(serial);
  const CampaignResult b = RunCampaign(parallel);

  EXPECT_FALSE(a.failed) << a.verdict.detail << "\n" << a.original.Format();
  EXPECT_FALSE(b.failed) << b.verdict.detail << "\n" << b.original.Format();
  EXPECT_EQ(a.hash, b.hash);
  // The serial run's one pool serves nearly every trace from a reset world:
  // pooling must beat one construction per acquire by a wide margin.
  EXPECT_GT(a.worlds_reused, 0u);
  EXPECT_GT(a.pages_restored, 0u);
  EXPECT_LT(a.worlds_built, (a.worlds_built + a.worlds_reused) / 4);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].oracle, b.stats[i].oracle);
    EXPECT_EQ(a.stats[i].traces, b.stats[i].traces);
    EXPECT_EQ(a.stats[i].calls, b.stats[i].calls);
    // The call budget is honoured per oracle regardless of the shard split.
    EXPECT_GE(a.stats[i].calls, serial.calls);
  }
}

// World pooling changes no verdict: every trace of a fixed set, for all
// four oracles, reaches the same verdict replayed through one pool shared
// by all of them as through a pool of its own, which builds every world
// fresh. The second trace of each shard carries an injection, so failing
// verdicts, with their details, are compared too.
TEST(ParallelCampaign, PooledAndFreshWorldsReachTheSameVerdicts) {
  WorldPool shared;
  int failures = 0;
  for (const std::string& oracle : OracleNames()) {
    for (uint32_t shard = 0; shard < 16; ++shard) {
      for (uint64_t k = 0; k < 2; ++k) {
        Trace t = GenerateTrace(oracle, ShardTraceSeed(20260807, shard, k), 40);
        t.inject = k == 0 ? "" : kInjectNames[shard % std::size(kInjectNames)];
        WorldPool own;
        const Verdict pooled = RunTrace(t, /*apply_inject=*/true, &shared);
        const Verdict fresh = RunTrace(t, /*apply_inject=*/true, &own);
        EXPECT_EQ(pooled.failed, fresh.failed) << oracle << " seed " << t.seed;
        EXPECT_EQ(pooled.failing_op, fresh.failing_op) << oracle << " seed " << t.seed;
        EXPECT_EQ(pooled.detail, fresh.detail) << oracle << " seed " << t.seed;
        EXPECT_EQ(own.stats().resets, 0u);
        failures += pooled.failed ? 1 : 0;
      }
    }
  }
  EXPECT_GT(shared.stats().resets, 0u);
  EXPECT_GT(failures, 0);
}

// (b) An injected fault is caught, attributed and shrunk to the same witness
// under any jobs count: the canonically-first-failure rule makes the report
// independent of which worker stumbled on a failure first.
TEST(ParallelCampaign, InjectedFaultCaughtAndShrunkIdenticallyInParallel) {
  CampaignOptions base;
  base.seed = 7;
  base.calls = 200;
  base.trace_len = 40;
  base.oracles = {"refinement"};
  base.inject = "initaddrspace-alias";

  CampaignOptions serial = base;
  serial.jobs = 1;
  CampaignOptions parallel = base;
  parallel.jobs = 4;

  const CampaignResult a = RunCampaign(serial);
  const CampaignResult b = RunCampaign(parallel);

  ASSERT_TRUE(a.failed);
  ASSERT_TRUE(b.failed);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.original.Format(), b.original.Format());
  EXPECT_EQ(a.verdict.detail, b.verdict.detail);
  EXPECT_EQ(a.verdict.failing_op, b.verdict.failing_op);
  EXPECT_EQ(a.witness.Format(), b.witness.Format());
  EXPECT_EQ(a.shrink.ops_after, b.shrink.ops_after);
  // The witness still fails on its own and is injection-caused.
  EXPECT_TRUE(RunTrace(a.witness).failed);
  Trace clean = a.witness;
  clean.inject.clear();
  EXPECT_FALSE(RunTrace(clean).failed);
}

// Timing is reported (wall and summed per-shard CPU) but never hashed: two
// runs of the same options at different jobs counts have different timings
// yet identical hashes (pinned above); here we pin that the fields are
// actually populated.
TEST(ParallelCampaign, TimingReportedOutOfHash) {
  CampaignOptions opts = SmokeOptions();
  opts.oracles = {"invariants"};
  const CampaignResult r = RunCampaign(opts);
  ASSERT_EQ(r.stats.size(), 1u);
  EXPECT_GT(r.stats[0].seconds, 0.0);
  EXPECT_GT(r.stats[0].cpu_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GE(r.wall_seconds, r.stats[0].seconds);
}

// Shard seed streams are decorrelated: no collisions across shards, along a
// stream, or between adjacent master seeds (for a sample far larger than any
// real campaign's shard count).
TEST(ParallelCampaign, ShardSeedStreamsAreDisjoint) {
  std::set<uint64_t> seen;
  for (uint32_t shard = 0; shard < 64; ++shard) {
    for (uint64_t k = 0; k < 64; ++k) {
      EXPECT_TRUE(seen.insert(ShardTraceSeed(1, shard, k)).second)
          << "collision at shard=" << shard << " k=" << k;
      EXPECT_TRUE(seen.insert(ShardTraceSeed(2, shard, k)).second)
          << "master-seed collision at shard=" << shard << " k=" << k;
    }
  }
}

// (c) The snapshot-reset core: dirty a world with real monitor calls, reset
// it, and demand architectural equality with a freshly constructed world —
// memory via PhysMemory::operator== (contents only; generations are cache
// bookkeeping) and everything else via MachineDiff.
TEST(SnapshotReset, ResetToEqualsFreshConstruction) {
  const word pages = 24;
  os::World w(pages, FuzzMonitorConfig());
  const arm::MachineState snapshot = w.machine;

  // Dirty all three memory regions: insecure scratch, monitor globals and
  // secure pages (via real SMCs that allocate and retype pages).
  const word pg = w.os.AllocInsecurePage();
  w.os.WriteInsecure(pg, 0, 0xdeadbeef);
  EXPECT_EQ(w.os.InitAddrspace(0, 1).err, 0u);
  EXPECT_EQ(w.os.InitThread(0, 2, 0x8000).err, 0u);
  ASSERT_FALSE(w.machine.mem.dirty_pages().empty());
  ASSERT_FALSE(w.machine.mem == snapshot.mem);

  EXPECT_GT(w.ResetTo(snapshot), 0u);

  os::World fresh(pages, FuzzMonitorConfig());
  EXPECT_TRUE(w.machine.mem == fresh.machine.mem);
  const auto diff = MachineDiff(w.machine, fresh.machine);
  EXPECT_TRUE(diff.empty()) << diff.front();
  // And the reset world behaves like a fresh one: the same SMC sequence
  // succeeds again from page 0.
  EXPECT_EQ(w.os.InitAddrspace(0, 1).err, 0u);
  EXPECT_EQ(fresh.os.InitAddrspace(0, 1).err, 0u);
  EXPECT_TRUE(w.machine.mem == fresh.machine.mem);
}

// The pool's Acquire/Release cycle delivers pristine worlds: a lease dirtied
// by SMCs comes back reset on the next Acquire.
TEST(SnapshotReset, PoolDeliversPristineWorldsAcrossLeases) {
  WorldPool pool;
  const word pages = 24;
  {
    WorldPool::Lease lease = pool.Acquire(pages);
    EXPECT_EQ(lease.world().os.InitAddrspace(0, 1).err, 0u);
    EXPECT_EQ(lease.world().os.InitThread(0, 2, 0x8000).err, 0u);
  }
  WorldPool::Lease again = pool.Acquire(pages);
  os::World fresh(pages, FuzzMonitorConfig());
  EXPECT_TRUE(again.world().machine.mem == fresh.machine.mem);
  const auto diff = MachineDiff(again.world().machine, fresh.machine);
  EXPECT_TRUE(diff.empty()) << diff.front();
  EXPECT_EQ(pool.stats().constructions, 1u);
  EXPECT_EQ(pool.stats().resets, 1u);
  EXPECT_GT(pool.stats().pages_restored, 0u);
}

}  // namespace
}  // namespace komodo::fuzz
