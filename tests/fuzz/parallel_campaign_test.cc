// Pins the parallel-campaign determinism contract (DESIGN.md §11): the
// campaign hash, stats and failure report are a pure function of the options
// for any --jobs count, and snapshot-reset world reuse is state-equal to
// fresh construction.
#include <gtest/gtest.h>

#include <set>

#include "src/fuzz/campaign.h"
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
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].oracle, b.stats[i].oracle);
    EXPECT_EQ(a.stats[i].traces, b.stats[i].traces);
    EXPECT_EQ(a.stats[i].calls, b.stats[i].calls);
    // The call budget is honoured per oracle regardless of the shard split.
    EXPECT_GE(a.stats[i].calls, serial.calls);
  }
}

// World pooling changes no result: disabling reuse reruns every trace on a
// freshly constructed world and must reproduce the pooled hash exactly. The
// fresh run is also one of the few randomized runs whose interp oracle sees
// the JIT's inline stores: a pooled world tracks dirty pages, which sends
// every translated store to the runtime helper (DESIGN.md §11, §13).
TEST(ParallelCampaign, PoolReuseDoesNotChangeTheHash) {
  CampaignOptions pooled = SmokeOptions();
  CampaignOptions fresh = SmokeOptions();
  fresh.reuse_worlds = false;

  const CampaignResult a = RunCampaign(pooled);
  const CampaignResult b = RunCampaign(fresh);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_GT(a.worlds_reused, 0u);
  EXPECT_EQ(b.worlds_reused, 0u);
  EXPECT_GT(a.pages_restored, 0u);
  // Pooling must beat one-construction-per-acquire by a wide margin.
  EXPECT_LT(a.worlds_built, b.worlds_built / 4);
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
  w.machine.mem.EnableDirtyTracking();
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
