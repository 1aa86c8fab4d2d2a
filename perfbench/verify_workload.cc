// verify-small: komodo-verify's small world (5 secure pages, 2 address
// spaces) explored to closure through verify::Explore. It has no seed: the
// closure is a pure function of the world bounds.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/verify/explore.h"
#include "src/verify/obligations.h"

namespace komodo::perfbench {
namespace {

// What `komodo-verify --world small` prints (the closure hash is pinned in
// scripts/check.sh).
constexpr uint64_t kStates = 2'874;
constexpr uint64_t kTransitions = 1'551'702;
constexpr uint64_t kClipped = 141;
constexpr const char* kClosureHash =
    "99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31";

constexpr int kSetupsPerRep = 15;

verify::WorldSpec Bounds(word pages, word max_addrspaces) {
  verify::WorldSpec spec;
  spec.pages = pages;
  spec.max_addrspaces = max_addrspaces;
  return spec;
}

}  // namespace

void RunVerifySmall(const Options& opts, Report& report) {
  std::vector<Metrics> layers;
  std::string hash;
  const auto run_rep = [&](uint64_t, bool traced) {
    RepTiming timing;
    // Set-up: the concrete world Explore boots before its first transition
    // (machine, monitor, the boot and mid snapshots, the boot PageDb).
    // Explore builds its own, so the harness times the same construction.
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const Stopwatch setup;
      const auto world = std::make_unique<verify::ConcreteWorld>(Bounds(5, 2));
      timing.setup_s.push_back(setup.Seconds());
    }

    const Stopwatch window;
    const verify::ExploreResult r = verify::Explore(Bounds(5, 2));
    timing.wall_s = window.Seconds();
    timing.ops = static_cast<double>(r.states);
    report.attempted += r.transitions;
    if (!r.ok) {
      ++report.failed;
      report.Fail(!r.harness_error.empty() ? r.harness_error
                  : r.failure                ? r.failure->detail
                                             : "exploration failed");
    }
    if (r.states != kStates || r.transitions != kTransitions || r.clipped != kClipped ||
        r.closure_hash != kClosureHash) {
      report.Fail("closure differs from komodo-verify --world small");
    }
    hash = r.closure_hash;
    // The checker has no tracer of its own: a traced rep only reports the
    // counts its result already returns.
    if (traced) {
      layers.push_back({{"verify.states", static_cast<double>(r.states)},
                        {"verify.transitions", static_cast<double>(r.transitions)},
                        {"verify.clipped", static_cast<double>(r.clipped)},
                        {"verify.us_per_transition",
                         timing.wall_s * 1e6 / static_cast<double>(r.transitions)}});
    }
    return timing;
  };
  const RepSeries series = RunReps(opts, opts.trace ? 2 : 1, run_rep);

  Info("verify_states_per_s", series.OpsPerSecond(), "1/s");
  InfoText("closure-hash", hash);

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
