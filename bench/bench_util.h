// Shared helpers for the benchmark binaries: paper-vs-measured table
// printing and the one JSON artifact schema every bench emits
// ("komodo-bench-v1", validated by tools/komodo-benchjson in check.sh).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace komodo::bench {

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-28s %14s %14s %8s\n", "operation", "paper (cyc)", "measured (cyc)", "ratio");
}

inline void PrintRow(const std::string& name, double paper, double measured) {
  std::printf("%-28s %14.0f %14.0f %7.2fx\n", name.c_str(), paper, measured,
              measured / paper);
}

inline void PrintPlainRow(const std::string& name, const std::string& value) {
  std::printf("%-28s %s\n", name.c_str(), value.c_str());
}

// A wall-clock figure over repeated runs of one configuration: its median,
// with the fastest and slowest run as the spread. One run of a few
// milliseconds swings about 2x on a shared host; the median of several does
// not.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

// Repetitions per timed configuration: at least 5, fewer in a CI smoke run,
// which gates only the deterministic columns.
inline int Reps(bool smoke) { return smoke ? 3 : 5; }

// One configuration's repeated runs: the run with the median wall time, and
// the spread of every run's wall time.
template <typename R>
struct Repeated {
  R run;
  Spread seconds;
};

// Runs the configuration `name` `reps` times (at least once). `seconds`
// reads a run's wall time; every run must `agree` with the first, or the
// bench aborts: a median over runs that did different work means nothing.
// Both are invoked with std::invoke, so a member pointer will do.
template <typename Fn, typename Seconds, typename Agree>
auto Repeat(const std::string& name, int reps, Fn&& run, Seconds seconds, Agree agree)
    -> Repeated<std::invoke_result_t<Fn&>> {
  std::vector<std::invoke_result_t<Fn&>> runs;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    runs.push_back(run());
    if (!std::invoke(agree, runs.back(), runs.front())) {
      std::fprintf(stderr, "FATAL: %s: repeated runs disagree\n", name.c_str());
      std::abort();
    }
  }
  const auto secs = [&](const auto& r) { return static_cast<double>(std::invoke(seconds, r)); };
  std::sort(runs.begin(), runs.end(),
            [&](const auto& a, const auto& b) { return secs(a) < secs(b); });
  auto& median = runs[runs.size() / 2];
  const Spread s{secs(median), secs(runs.front()), secs(runs.back())};
  return {std::move(median), s};
}

// Accumulates results for one bench binary and writes the komodo-bench-v1
// artifact:
//   {"schema": "komodo-bench-v1", "bench": "<binary>",
//    "config": {...run parameters...},
//    "results": [{"name", "metric", "value", "unit"}, ...]}
// One schema across every bench_* binary so downstream tooling (and the
// check.sh validation leg) never special-cases an emitter.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void Config(const std::string& key, const std::string& value) {
    config_.push_back({key, value, 0, false});
  }
  void Config(const std::string& key, uint64_t value) { config_.push_back({key, "", value, true}); }

  void Result(const std::string& name, const std::string& metric, double value,
              const std::string& unit) {
    results_.push_back({name, metric, value, unit});
  }
  // The median as `metric`, the spread as its `metric`_min and `metric`_max
  // siblings (komodo-benchjson checks that they bracket it).
  void Result(const std::string& name, const std::string& metric, const Spread& s,
              const std::string& unit) {
    Result(name, metric, s.median, unit);
    Result(name, metric + "_min", s.min, unit);
    Result(name, metric + "_max", s.max, unit);
  }

  bool Write(const std::string& path) const {
    std::string out;
    obs::JsonWriter w(&out);
    w.BeginObject();
    w.KV("schema", "komodo-bench-v1");
    w.KV("bench", bench_);
    w.Key("config");
    w.BeginObject();
    for (const ConfigEntry& c : config_) {
      if (c.is_num) {
        w.KV(c.key, c.num);
      } else {
        w.KV(c.key, c.str);
      }
    }
    w.EndObject();
    w.Key("results");
    w.BeginArray();
    for (const ResultEntry& r : results_) {
      w.BeginObject();
      w.KV("name", r.name);
      w.KV("metric", r.metric);
      w.KV("value", r.value);
      w.KV("unit", r.unit);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out += "\n";
    if (!obs::WriteFile(path, out)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  struct ConfigEntry {
    std::string key;
    std::string str;
    uint64_t num;
    bool is_num;
  };
  struct ResultEntry {
    std::string name;
    std::string metric;
    double value;
    std::string unit;
  };

  std::string bench_;
  std::vector<ConfigEntry> config_;
  std::vector<ResultEntry> results_;
};

}  // namespace komodo::bench

#endif  // BENCH_BENCH_UTIL_H_
