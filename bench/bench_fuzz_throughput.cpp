// Fuzz-campaign throughput benchmark (DESIGN.md §11, §15): monitor calls/sec
// for the differential fuzzer on snapshot-reset world pools, serial and over
// a worker sweep over --jobs. Every sweep configuration must produce the
// same campaign hash; the bench aborts if any run disagrees, so the numbers
// can never come from different work.
//
// The jobs sweep clamps every requested worker count to the host's hardware
// concurrency: running 8 threads on 1 core measures scheduler thrash, not
// scaling (the pre-clamp committed numbers showed jobs-4/8 at 0.62-0.69x of
// serial on a 1-core host). Requested counts that clamp to an
// already-measured effective count are reported as skipped; a run whose
// effective jobs exceeded host cores aborts the bench.
//
// The evolve section runs coverage-guided corpus evolution (--mode evolve)
// against a blind campaign with coverage measurement at the same call
// budget, records the per-round coverage-growth curve, and enforces the
// acceptance gate: evolve must reach strictly more distinct coverage keys
// than blind. Executed calls are reported for both modes — the evolve
// ledger and its depth clamp keep them within ~2% of blind's, so the
// comparison really is at equal budget.
//
// The serial-pooled run also reports each oracle's calls and calls per
// CPU-second, the figure a change to one oracle's cost is judged by.
//
// Each sweep configuration runs several times (bench::Repeat): one campaign
// of a few tens of milliseconds reads bimodally on a shared host, so the
// wall-clock columns are the median with min and max siblings, the speedups
// are ratios of medians, and the per-oracle rates come from the median run.
//
// Emits BENCH_fuzz.json in the working directory so the perf trajectory is
// tracked PR over PR. `--smoke` runs a tiny call budget and fewer
// repetitions for CI.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/fuzz/campaign.h"

namespace komodo {
namespace {

struct Run {
  std::string name;
  int requested_jobs = 1;
  unsigned effective_jobs = 1;
  fuzz::CampaignResult result;  // the run with the median wall time
  bench::Spread wall_seconds;
};

uint64_t TotalCalls(const fuzz::CampaignResult& r) {
  uint64_t calls = 0;
  for (const fuzz::OracleStats& st : r.stats) {
    calls += st.calls;
  }
  return calls;
}

Run RunConfig(const std::string& name, const fuzz::CampaignOptions& opts, int requested_jobs,
              unsigned effective_jobs, int reps) {
  fuzz::CampaignOptions run_opts = opts;
  run_opts.jobs = static_cast<int>(effective_jobs);
  bench::Repeated<fuzz::CampaignResult> rep = bench::Repeat(
      name, reps,
      [&] {
        fuzz::CampaignResult r = fuzz::RunCampaign(run_opts);
        if (r.failed) {
          std::fprintf(stderr, "bench_fuzz_throughput: oracle failure in %s:\n%s\n",
                       name.c_str(), r.original.Format().c_str());
          std::abort();
        }
        return r;
      },
      &fuzz::CampaignResult::wall_seconds,
      [](const fuzz::CampaignResult& r, const fuzz::CampaignResult& first) {
        return r.hash == first.hash;
      });
  return {name, requested_jobs, effective_jobs, std::move(rep.run), rep.seconds};
}

// Calls per second: the median run's, and the slowest and fastest runs'.
bench::Spread CallsPerSec(const Run& run) {
  const double calls = static_cast<double>(TotalCalls(run.result));
  return {calls / run.wall_seconds.median, calls / run.wall_seconds.max,
          calls / run.wall_seconds.min};
}

}  // namespace
}  // namespace komodo

int main(int argc, char** argv) {
  using komodo::CallsPerSec;
  using komodo::Run;
  using komodo::RunConfig;
  using komodo::TotalCalls;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint64_t calls = smoke ? 100 : 1500;
  const int reps = komodo::bench::Reps(smoke);
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());

  komodo::fuzz::CampaignOptions sweep;
  sweep.seed = 20260807;
  sweep.calls = calls;
  sweep.trace_len = 60;

  std::vector<Run> runs;
  runs.push_back(RunConfig("serial-pooled", sweep, 1, 1, reps));  // runs[0]: per-oracle rows
  unsigned max_effective = 1;  // job counts already measured (1 = the serial run)
  for (const int jobs : {2, 4, 8}) {
    const unsigned effective = std::min<unsigned>(static_cast<unsigned>(jobs), host_cores);
    if (effective <= max_effective) {
      std::printf("jobs-%d: skipped (clamped to %u on a %u-core host, already measured)\n",
                  jobs, effective, host_cores);
      continue;
    }
    max_effective = effective;
    runs.push_back(RunConfig("jobs-" + std::to_string(jobs), sweep, jobs, effective, reps));
  }

  // Oversubscription gate: the whole point of the clamp is that no measured
  // configuration ran more workers than cores.
  for (const Run& run : runs) {
    if (run.effective_jobs > host_cores) {
      std::fprintf(stderr, "bench_fuzz_throughput: %s ran %u workers on %u cores\n",
                   run.name.c_str(), run.effective_jobs, host_cores);
      return 1;
    }
  }

  // Determinism gate: one campaign hash across every sweep configuration.
  for (const Run& run : runs) {
    if (run.result.hash != runs.front().result.hash) {
      std::fprintf(stderr, "bench_fuzz_throughput: hash mismatch in %s\n  %s\n  %s\n",
                   run.name.c_str(), runs.front().result.hash.c_str(),
                   run.result.hash.c_str());
      return 1;
    }
  }

  // Evolve-vs-blind coverage comparison at one call budget. Fewer shards and
  // shorter traces than the sweep keep the floor-overshoot of per-shard
  // budgets small relative to the budget itself.
  komodo::fuzz::CampaignOptions cover_opts;
  cover_opts.seed = 20260807;
  // The comparison needs enough budget for guided depth to pull ahead of the
  // blind stream: blind's marginal key rate collapses past ~1000 calls per
  // oracle while deep extensions keep producing, so the crossover sits well
  // above the sweep's smoke budget and the margin only becomes robust around
  // 3000 calls/oracle. The comparison therefore runs the same pinned config
  // in smoke and full mode (~40s of single-core wall time): a thin margin at
  // a smaller budget would make the acceptance gate flake under unrelated
  // coverage-key churn.
  cover_opts.calls = 3000;
  cover_opts.trace_len = 30;
  cover_opts.shards = 4;
  cover_opts.jobs = static_cast<int>(std::min(8u, host_cores));
  cover_opts.measure_coverage = true;
  // One run each: the coverage keys these rows exist for are deterministic.
  const Run blind_cover = RunConfig("blind-coverage", cover_opts, cover_opts.jobs,
                                    static_cast<unsigned>(cover_opts.jobs), 1);
  cover_opts.measure_coverage = false;
  cover_opts.mode = komodo::fuzz::CampaignMode::kEvolve;
  cover_opts.rounds = 4;
  cover_opts.max_corpus = 64;
  const Run evolve = RunConfig("evolve", cover_opts, cover_opts.jobs,
                               static_cast<unsigned>(cover_opts.jobs), 1);

  // Acceptance gate: at the same budget, coverage guidance must beat the
  // blind stream on distinct coverage keys — strictly.
  if (evolve.result.coverage_keys <= blind_cover.result.coverage_keys) {
    std::fprintf(stderr,
                 "bench_fuzz_throughput: evolve coverage (%llu keys) failed to beat blind "
                 "(%llu keys)\n",
                 static_cast<unsigned long long>(evolve.result.coverage_keys),
                 static_cast<unsigned long long>(blind_cover.result.coverage_keys));
    return 1;
  }

  komodo::bench::BenchJson json("bench_fuzz_throughput");
  json.Config("smoke", smoke);
  json.Config("seed", 20260807);
  json.Config("calls_per_oracle", calls);
  json.Config("trace_len", 60);
  json.Config("shards", 16);
  json.Config("host_cores", host_cores);
  json.Config("reps", static_cast<uint64_t>(reps));
  json.Config("campaign_hash", runs.front().result.hash);
  json.Config("evolve_calls_per_oracle", cover_opts.calls);
  json.Config("evolve_trace_len", cover_opts.trace_len);
  json.Config("evolve_shards", cover_opts.shards);
  json.Config("evolve_rounds", cover_opts.rounds);
  json.Config("evolve_max_corpus", static_cast<uint64_t>(cover_opts.max_corpus));
  json.Config("evolve_campaign_hash", evolve.result.hash);

  std::printf("\n=== fuzz campaign throughput (host_cores=%u, median of %d) ===\n", host_cores,
              reps);
  std::printf("%-16s %5s %5s %12s %12s %12s %14s\n", "config", "req", "eff", "wall (s)",
              "calls/s", "worlds", "pages/reset");
  const double base = runs.front().wall_seconds.median;
  for (const Run& run : runs) {
    const komodo::fuzz::CampaignResult& r = run.result;
    const double speedup = base / run.wall_seconds.median;
    std::printf("%-16s %5d %5u %12.3f %12.1f", run.name.c_str(), run.requested_jobs,
                run.effective_jobs, run.wall_seconds.median, CallsPerSec(run).median);
    json.Result(run.name, "jobs_requested", static_cast<double>(run.requested_jobs), "jobs");
    json.Result(run.name, "jobs_effective", static_cast<double>(run.effective_jobs), "jobs");
    json.Result(run.name, "wall_seconds", run.wall_seconds, "s");
    json.Result(run.name, "calls_per_sec", CallsPerSec(run), "calls/s");
    json.Result(run.name, "speedup_vs_serial_pooled", speedup, "x");
    // Pool counts are a function of the options only on one worker. With
    // several, each worker keeps its own pool and claims shards as it frees
    // up, so which worlds get built and reused depends on the scheduling.
    if (run.effective_jobs > 1) {
      std::printf(" %12s %14s  (%.2fx)\n", "sched-dependent", "sched-dependent", speedup);
      continue;
    }
    const double pages_per_reset =
        r.worlds_reused > 0 ? static_cast<double>(r.pages_restored) / r.worlds_reused : 0.0;
    std::printf(" %12llu %14.1f  (%.2fx)\n", static_cast<unsigned long long>(r.worlds_built),
                pages_per_reset, speedup);
    json.Result(run.name, "worlds_built", static_cast<double>(r.worlds_built), "worlds");
    json.Result(run.name, "worlds_reused", static_cast<double>(r.worlds_reused), "worlds");
    json.Result(run.name, "pages_per_reset", pages_per_reset, "pages");
  }

  // Per-oracle cost in the serial-pooled run: thread-CPU seconds are summed
  // per oracle, so calls per CPU-second rates each oracle on its own work.
  const Run& pooled = runs.front();
  std::printf("\n=== per-oracle cost (%s) ===\n", pooled.name.c_str());
  for (const komodo::fuzz::OracleStats& st : pooled.result.stats) {
    const double rate = st.cpu_seconds > 0 ? static_cast<double>(st.calls) / st.cpu_seconds : 0.0;
    std::printf("%-16s %8llu calls %10.3f cpu-s %12.1f calls/cpu-s\n", st.oracle.c_str(),
                static_cast<unsigned long long>(st.calls), st.cpu_seconds, rate);
    json.Result(pooled.name, "calls_" + st.oracle, static_cast<double>(st.calls), "calls");
    json.Result(pooled.name, "calls_per_cpu_sec_" + st.oracle, rate, "calls/s");
  }

  std::printf("\n=== evolve vs blind coverage (calls_per_oracle=%llu) ===\n",
              static_cast<unsigned long long>(cover_opts.calls));
  for (const Run* run : {&blind_cover, &evolve}) {
    const komodo::fuzz::CampaignResult& r = run->result;
    std::printf("%-16s %12.3fs %8llu calls %8llu coverage keys\n", run->name.c_str(),
                r.wall_seconds, static_cast<unsigned long long>(TotalCalls(r)),
                static_cast<unsigned long long>(r.coverage_keys));
    json.Result(run->name, "wall_seconds", r.wall_seconds, "s");
    json.Result(run->name, "calls_executed", static_cast<double>(TotalCalls(r)), "calls");
    json.Result(run->name, "coverage_keys", static_cast<double>(r.coverage_keys), "keys");
    for (const komodo::fuzz::OracleStats& st : r.stats) {
      std::printf("    %-18s %6llu calls %6llu keys\n", st.oracle.c_str(),
                  static_cast<unsigned long long>(st.calls),
                  static_cast<unsigned long long>(st.coverage_keys));
      json.Result(run->name, "coverage_keys_" + st.oracle,
                  static_cast<double>(st.coverage_keys), "keys");
    }
  }
  std::printf("coverage curve:");
  for (size_t i = 0; i < evolve.result.coverage_curve.size(); ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(evolve.result.coverage_curve[i]));
    json.Result("evolve", "coverage_round_" + std::to_string(i),
                static_cast<double>(evolve.result.coverage_curve[i]), "keys");
  }
  std::printf("\nevolve/blind coverage ratio: %.2fx\n",
              blind_cover.result.coverage_keys > 0
                  ? static_cast<double>(evolve.result.coverage_keys) /
                        static_cast<double>(blind_cover.result.coverage_keys)
                  : 0.0);
  uint64_t corpus_total = 0;
  for (const komodo::fuzz::OracleStats& st : evolve.result.stats) {
    corpus_total += st.corpus_entries;
  }
  json.Result("evolve", "corpus_entries", static_cast<double>(corpus_total), "traces");

  const char* path = "BENCH_fuzz.json";
  if (!json.Write(path)) {
    std::fprintf(stderr, "bench_fuzz_throughput: cannot write %s\n", path);
    return 1;
  }
  return 0;
}
