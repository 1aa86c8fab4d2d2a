#include "perfbench/common.h"

#include <signal.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

namespace komodo::perfbench {

namespace {

// Full round-trip precision, so no digit of a measurement is lost.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": " + Num(value);
  }
  out += "}}";
  return out;
}

void Info(const std::string& name, double value, const std::string& unit) {
  std::printf("info %-34s %s %s\n", name.c_str(), Num(value).c_str(), unit.c_str());
}

void InfoText(const std::string& name, const std::string& text) {
  std::printf("info %-34s %s\n", name.c_str(), text.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Metrics MedianOf(const std::vector<Metrics>& reps) {
  Metrics out;
  if (reps.empty()) {
    return out;
  }
  for (const auto& [name, unused] : reps.front()) {
    std::vector<double> values;
    values.reserve(reps.size());
    for (const Metrics& m : reps) {
      const auto it = m.find(name);
      values.push_back(it == m.end() ? 0.0 : it->second);
    }
    out[name] = Median(std::move(values));
  }
  return out;
}

uint64_t Percentile(std::vector<uint64_t> values, double p) {
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

volatile uint64_t g_reference_sink = 0;

// SHA-256-style rounds: dependent integer ALU work, as in the monitor's
// measurement and the JIT-compiled enclave code.
uint32_t IntegerRounds(uint32_t n) {
  uint32_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const uint32_t t1 = h + s1 + ((e & f) ^ (~e & g)) + i;
    const uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + s0 + ((a & b) ^ (a & c) ^ (b & c));
  }
  return a ^ e;
}

// Reference samples, written only by the signal handler on the harness
// thread (lock-free atomics are safe to touch there).
std::atomic<uint64_t> g_sampled_ns{0};  // host time the samples took
std::atomic<uint64_t> g_samples{0};
std::atomic<double> g_speed_sum{0.0};  // sum of kRefNominalSeconds / sample time

uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // async-signal-safe, unlike std::chrono
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u + static_cast<uint64_t>(ts.tv_nsec);
}

void TakeSample(int /*signo*/) {
  const int saved_errno = errno;
  const uint64_t t0 = MonotonicNs();
  g_reference_sink = IntegerRounds(kRefRounds);
  const uint64_t ns = MonotonicNs() - t0;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  g_sampled_ns.store(g_sampled_ns.load(kRelaxed) + ns, kRelaxed);
  g_samples.store(g_samples.load(kRelaxed) + 1, kRelaxed);
  g_speed_sum.store(
      g_speed_sum.load(kRelaxed) + kRefNominalSeconds / (1e-9 * static_cast<double>(ns)),
      kRelaxed);
  errno = saved_errno;
}

[[noreturn]] void SamplerFailed(const char* what) {
  std::fprintf(stderr, "komodo_perfbench: cannot sample the host: %s: %s\n", what,
               std::strerror(errno));
  std::exit(2);
}

// While alive, a timer interrupts the calling thread every
// kSampleIntervalNs of host time and the handler takes one sample. The
// handler runs on a stack of its own, so it touches no frame of the
// interrupted code (JIT-compiled code included); it stays installed after
// the timer is gone, so a signal still pending then is harmless.
class ReferenceSampler {
 public:
  ReferenceSampler() {
    static const bool installed = [] {
      static char stack[1 << 16];
      stack_t ss{};
      ss.ss_sp = stack;
      ss.ss_size = sizeof(stack);
      struct sigaction sa {};
      sa.sa_handler = TakeSample;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_ONSTACK | SA_RESTART;
      return sigaltstack(&ss, nullptr) == 0 && sigaction(SIGRTMIN, &sa, nullptr) == 0;
    }();
    if (!installed) {
      SamplerFailed("signal handler");
    }
    sigevent ev{};
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGRTMIN;
    ev._sigev_un._tid = gettid();  // glibc before 2.37 has no sigev_notify_thread_id
    itimerspec every{};
    every.it_interval.tv_nsec = kSampleIntervalNs;
    every.it_value.tv_nsec = kSampleIntervalNs;
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer_) != 0 ||
        timer_settime(timer_, 0, &every, nullptr) != 0) {
      SamplerFailed("timer");
    }
  }
  ~ReferenceSampler() { timer_delete(timer_); }
  ReferenceSampler(const ReferenceSampler&) = delete;
  ReferenceSampler& operator=(const ReferenceSampler&) = delete;

 private:
  timer_t timer_{};
};

}  // namespace

double SampledSeconds() {
  return 1e-9 * static_cast<double>(g_sampled_ns.load(std::memory_order_relaxed));
}

RepSeries RunReps(const Options& opts, uint64_t min_reps,
                  const std::function<RepTiming(uint64_t, bool)>& rep) {
  RepSeries out;
  const bool sample = !opts.trace;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < min_reps || SecondsSince(t0) < opts.seconds; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    const uint64_t n0 = g_samples.load();
    const double sum0 = g_speed_sum.load();
    std::optional<ReferenceSampler> sampler;
    if (sample) {
      TakeSample(0);  // so that even a short rep has a sample
      sampler.emplace();
    }
    const RepTiming t = rep(i, traced);
    sampler.reset();
    const uint64_t n = g_samples.load() - n0;
    // Host seconds times `scale` are reference-host seconds.
    const double scale = n == 0 ? 1.0 : (g_speed_sum.load() - sum0) / static_cast<double>(n);

    out.ops_per_s.push_back(t.ops / (t.wall_s * scale));
    out.host_ops_per_s.push_back(t.ops / t.wall_s);
    for (const double s : t.setup_s) {
      out.setup_s.push_back(s * scale);
    }
    out.host_scale.push_back(scale);
    (traced ? out.traced_wall_s : out.untraced_wall_s).push_back(t.wall_s);
  }
  return out;
}

void ReportEndToEnd(Report& report, const RepSeries& series) {
  Info("reps", static_cast<double>(series.ops_per_s.size()), "count");
  Info("host_scale", Median(series.host_scale), "ratio");
  Info("unscaled_ops_per_s", Median(series.host_ops_per_s), "1/s");
  report.Metric("ops_per_s", series.OpsPerSecond());
  report.Metric("setup_s", Median(series.setup_s));
  report.Metric("peak_rss_mb", PeakRssMb());
}

uint64_t Rng::Next() {
  uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Unit() {
  return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53;
}

MachineCounters MachineCounters::Read(const arm::MachineState& m) {
  MachineCounters c;
  c.cycles = m.cycles.total();
  c.steps = m.steps_retired;
  c.decode_misses = m.interp.stats().decode_misses;
  c.tlb_misses = m.interp.stats().tlb_misses;
  const jit::JitStats& js = m.jit.stats();
  c.jit_translated = js.blocks_translated;
  c.jit_fallback_steps = js.fallback_steps;
  c.jit_steps = js.jit_steps;
  c.jit_flushes = js.code_cache_flushes;
  return c;
}

MachineCounters MachineCounters::operator-(const MachineCounters& o) const {
  MachineCounters d;
  d.cycles = cycles - o.cycles;
  d.steps = steps - o.steps;
  d.decode_misses = decode_misses - o.decode_misses;
  d.tlb_misses = tlb_misses - o.tlb_misses;
  d.jit_translated = jit_translated - o.jit_translated;
  d.jit_fallback_steps = jit_fallback_steps - o.jit_fallback_steps;
  d.jit_steps = jit_steps - o.jit_steps;
  d.jit_flushes = jit_flushes - o.jit_flushes;
  return d;
}

SmcTimes SmcTimes::Read(const obs::Observability& obs) {
  SmcTimes t;
  for (const auto& [nr, st] : obs.smc_stats()) {
    t.calls[st.name] += st.calls;
    const double s = static_cast<double>(st.wall_ns) * 1e-9;
    t.seconds[st.name] += s;
    t.total_seconds += s;
  }
  return t;
}

void AddMachineLayers(Metrics& out, const MachineCounters& delta, const SmcTimes& smc) {
  const auto calls = [&smc](const char* name) -> double {
    const auto it = smc.calls.find(name);
    return it == smc.calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto seconds = [&smc](const char* name) -> double {
    const auto it = smc.seconds.find(name);
    return it == smc.seconds.end() ? 0.0 : it->second;
  };
  for (const char* name : {"InitAddrspace", "InitThread", "InitL2Table", "MapSecure",
                           "MapInsecure", "Finalise", "Remove", "Stop", "Enter"}) {
    out[std::string("core.smc.") + name + ".calls"] = calls(name);
    out[std::string("core.smc.") + name + ".host_s"] = seconds(name);
  }
  out["core.smc.Resume.calls"] = calls("Resume");
  out["core.sim_cycles"] = static_cast<double>(delta.cycles);
  out["crypto.measured_pages"] = calls("MapSecure");
  const double enters = calls("Enter");
  out["jit.translations_per_enter"] =
      enters > 0 ? static_cast<double>(delta.jit_translated) / enters : 0.0;
  out["jit.code_cache_flushes"] = static_cast<double>(delta.jit_flushes);
  out["jit.coverage"] = delta.steps > 0 ? static_cast<double>(delta.jit_steps) /
                                              static_cast<double>(delta.steps)
                                        : 0.0;
  out["jit.fallback_steps"] = static_cast<double>(delta.jit_fallback_steps);
  out["arm.steps"] = static_cast<double>(delta.steps);
  out["arm.decode_misses"] = static_cast<double>(delta.decode_misses);
  out["arm.tlb_misses"] = static_cast<double>(delta.tlb_misses);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  f.close();
  return static_cast<bool>(f);
}

}  // namespace komodo::perfbench
