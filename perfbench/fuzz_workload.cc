// fuzz-blind: one blind komodo-fuzz campaign per rep through
// fuzz::RunCampaign — all four oracles, 3,000 monitor calls per oracle,
// the default trace length, 16 shards on 2 worker threads.
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/pool.h"

namespace komodo::perfbench {
namespace {

constexpr uint64_t kCallsPerOracle = 3'000;
constexpr uint32_t kShards = 16;
constexpr int kJobs = 2;
constexpr int kSetupsPerRep = 5;

// Campaign hashes `komodo-fuzz --seed S --calls 3000 --jobs 2` prints for
// the benchmark's default and held-out seeds.
const std::map<uint64_t, std::string>& PinnedHashes() {
  static const std::map<uint64_t, std::string> pins = {
      {1, "f9452d68029e66a079c407a318396b494123ff93d3632cd92f08704677c90f31"},
      {20261016, "8e8b2950fcfb2a9c770bef5950c76c7c8b87b4e5b845f0432b4f65e323f07f28"},
  };
  return pins;
}

fuzz::CampaignOptions Campaign(uint64_t seed) {
  fuzz::CampaignOptions o;
  o.seed = seed;
  o.calls = kCallsPerOracle;
  o.shards = kShards;
  o.jobs = kJobs;
  o.mode = fuzz::CampaignMode::kBlind;
  return o;
}

// The set-up each campaign worker performs before its first traces: booting
// the worlds of its pool (one 24-page world for the single-world oracles,
// three 64-page worlds held at once by the interp oracle). RunCampaign
// builds its own pools, so the harness times the same construction on a
// pool of its own. Returns host seconds; pool destruction is not timed.
double BootWorkerPool(Report& report) {
  fuzz::WorldPool pool;
  std::vector<fuzz::WorldPool::Lease> leases;
  leases.reserve(4);
  const Stopwatch setup;
  for (const word pages : {24u, 64u, 64u, 64u}) {
    leases.push_back(pool.Acquire(pages));
  }
  const double seconds = setup.Seconds();
  if (pool.stats().constructions != 4) {
    report.Fail("world pool did not boot four worlds");
  }
  return seconds;
}

}  // namespace

void RunFuzzBlind(const Options& opts, Report& report) {
  std::vector<Metrics> layers;
  std::string hash;
  const auto run_rep = [&](uint64_t, bool traced) {
    RepTiming timing;
    for (int i = 0; i < kSetupsPerRep; ++i) {
      timing.setup_s.push_back(BootWorkerPool(report));
    }

    // The campaign runs on worker threads while this thread waits, so the
    // reference samples taken on this thread run beside it on another core:
    // they measure the host's speed during the campaign without taking
    // time from it, and the window is plain host time, samples included.
    const Clock::time_point t0 = Clock::now();
    const fuzz::CampaignResult r = fuzz::RunCampaign(Campaign(opts.seed));
    timing.wall_s = SecondsSince(t0);

    double cpu = 0.0;
    Metrics l;
    for (const fuzz::OracleStats& st : r.stats) {
      timing.ops += static_cast<double>(st.calls);
      cpu += st.cpu_seconds;
      report.attempted += st.traces;
      l["fuzz." + st.oracle + ".cpu_s"] = st.cpu_seconds;
      l["fuzz." + st.oracle + ".calls"] = static_cast<double>(st.calls);
    }
    l["fuzz.pool.pages_per_reset"] =
        r.worlds_reused > 0
            ? static_cast<double>(r.pages_restored) / static_cast<double>(r.worlds_reused)
            : 0.0;
    l["fuzz.pool.worlds_built"] = static_cast<double>(r.worlds_built);
    l["fuzz.parallel_efficiency"] = cpu / (timing.wall_s * kJobs);
    // Fuzz has no tracer of its own: a traced rep only reports the layers.
    if (traced) {
      layers.push_back(l);
    }

    if (r.failed) {
      ++report.failed;
      report.Fail("oracle " + r.original.oracle + " failed: " + r.verdict.detail);
    }
    if (r.stats.size() != 4) {
      report.Fail("campaign did not run all four oracles");
    }
    if (!hash.empty() && r.hash != hash) {
      report.Fail("campaign hash changed between reps of one seed");
    }
    hash = r.hash;
    return timing;
  };
  const RepSeries series = RunReps(opts, opts.trace ? 2 : 1, run_rep);

  const auto pin = PinnedHashes().find(opts.seed);
  if (pin != PinnedHashes().end() && pin->second != hash) {
    report.Fail("campaign hash differs from komodo-fuzz for seed " + std::to_string(opts.seed));
  }
  Info("fuzz_calls_per_s", series.OpsPerSecond(), "1/s");
  InfoText("campaign-hash", hash);

  if (!opts.trace) {
    ReportEndToEnd(report, series);
    return;
  }
  for (const auto& [name, value] : MedianOf(layers)) {
    report.Metric(name, value);
  }
  report.Metric("tracing_overhead", series.TracingOverhead());
}

}  // namespace komodo::perfbench
