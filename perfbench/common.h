// Shared plumbing for the benchmark harness: options, the per-run report,
// statistics helpers and counter snapshots read from the program's public
// state.
//
// The harness measures the program only from outside: it times calls into
// public functions, reads public counters before and after a timed window,
// and, in traced runs, reads the monitor's own per-call statistics. Nothing
// here adds instrumentation to the program.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/obs/trace.h"

namespace komodo::perfbench {

// Simulated core clock used to express simulated cycles as time (the
// Cortex-A7 of the paper's Raspberry Pi 2 runs at 900 MHz).
inline constexpr double kSimCyclesPerUs = 900.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where traced runs write their span file
};

// Named metric values of one run or one rep. Units live in BENCHMARK.json;
// the runner attaches them.
using Metrics = std::map<std::string, double>;

class Report {
 public:
  void Metric(const std::string& name, double value) { metrics_[name] = value; }
  // Records a failed output check; the run is then reported as incorrect.
  void Fail(const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name: value}}
  std::string Json() const;

 private:
  bool correct_ = true;
  Metrics metrics_;
};

// A human-readable line on stdout ahead of the result; never part of it.
void Info(const std::string& name, double value, const std::string& unit);
void InfoText(const std::string& name, const std::string& text);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> values);
// Per-name median across reps (every rep reports the same names).
Metrics MedianOf(const std::vector<Metrics>& reps);
// Nearest-rank percentile (p in (0, 1]) of a non-empty unsorted sample.
uint64_t Percentile(std::vector<uint64_t> values, double p);
double PeakRssMb();

// Host speed on a shared machine drifts by tens of percent within seconds
// and between minutes, so end-to-end host times can be scaled: while a rep
// runs, a timer interrupts the harness thread every kSampleIntervalNs and
// its signal handler times a fixed reference loop of SHA-256-style integer
// rounds (benchmark code, never program code). Where the timed work runs
// on the harness thread, the samples interrupt it and timed intervals
// leave them out (see Stopwatch); where it runs on worker threads while the
// harness thread waits, the samples run beside it. End-to-end host times
// are reported in reference-host seconds: host seconds *
// mean(kRefNominalSeconds / sample time) over the rep's samples, which
// weights each stretch of the rep by how fast the host ran during it.
// kRefNominalSeconds only fixes the unit; it is about what the loop takes
// on a quiet x86-64 core, so quiet runs read close to raw host seconds. A
// program change moves the scaled numbers exactly as it moves the raw
// ones; a slower host moves the rep and the samples together.
inline constexpr uint32_t kRefRounds = 1'000'000;
inline constexpr double kRefNominalSeconds = 0.003;
inline constexpr long kSampleIntervalNs = 50'000'000;

// Host seconds the reference samples have taken so far in this process.
double SampledSeconds();

// Host seconds of a timed interval on the harness thread, leaving out the
// reference samples taken during it.
class Stopwatch {
 public:
  Stopwatch() : sampled0_(SampledSeconds()), t0_(Clock::now()) {}
  double Seconds() const { return SecondsSince(t0_) - (SampledSeconds() - sampled0_); }

 private:
  double sampled0_;
  Clock::time_point t0_;
};

// What one rep measured, in host seconds.
struct RepTiming {
  std::vector<double> setup_s;  // one entry per set-up the rep performed
  double wall_s = 0.0;          // the timed window
  double ops = 0.0;             // operations completed in the window
};

// The per-rep results of a run; in an untraced run ops_per_s and setup_s
// are in reference-host seconds (see kRefNominalSeconds), the wall times
// never.
struct RepSeries {
  std::vector<double> ops_per_s;  // one per rep
  std::vector<double> setup_s;    // one per set-up
  std::vector<double> host_ops_per_s;  // unscaled, one per rep
  std::vector<double> host_scale;      // one per rep
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_wall_s;

  double OpsPerSecond() const { return Median(ops_per_s); }
  // Traced wall over untraced wall (medians).
  double TracingOverhead() const { return Median(traced_wall_s) / Median(untraced_wall_s); }
};

// Runs `rep(i, traced)` for i = 0, 1, ... at least `min_reps` times and then
// until opts.seconds have passed. In a traced run, odd reps are traced and
// even ones are not, so the tracing overhead is measured under the same
// conditions. An untraced run samples the reference during every rep (see
// kRefNominalSeconds); a traced run takes no samples and reports raw host
// seconds.
RepSeries RunReps(const Options& opts, uint64_t min_reps,
                  const std::function<RepTiming(uint64_t, bool)>& rep);

// Reports the end-to-end metrics every workload shares.
void ReportEndToEnd(Report& report, const RepSeries& series);

// splitmix64: the harness's only source of randomness, seeded per workload.
class Rng {
 public:
  explicit Rng(uint64_t seed) : x_(seed) {}
  uint64_t Next();
  // Uniform in (0, 1].
  double Unit();

 private:
  uint64_t x_;
};

// Machine-side counters read before and after a timed window.
struct MachineCounters {
  uint64_t cycles = 0;
  uint64_t steps = 0;
  uint64_t decode_misses = 0;
  uint64_t tlb_misses = 0;
  uint64_t jit_translated = 0;
  uint64_t jit_fallback_steps = 0;
  uint64_t jit_steps = 0;
  uint64_t jit_flushes = 0;

  static MachineCounters Read(const arm::MachineState& m);
  MachineCounters operator-(const MachineCounters& o) const;
};

// Per-SMC calls and host time of one timed window, read from the monitor's
// own CallStats (SMC rows only: SVCs nest inside Enter). Tracing must have
// been enabled at the start of the window.
struct SmcTimes {
  std::map<std::string, uint64_t> calls;
  std::map<std::string, double> seconds;
  double total_seconds = 0.0;

  static SmcTimes Read(const obs::Observability& obs);
};

// Adds the machine-level per-layer metrics of one traced window: the core,
// crypto, jit and arm rows.
void AddMachineLayers(Metrics& out, const MachineCounters& delta, const SmcTimes& smc);

// Writes `content` to `path`, creating parent directories. False on error.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace komodo::perfbench

#endif  // PERFBENCH_COMMON_H_
