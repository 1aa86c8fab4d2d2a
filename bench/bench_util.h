// Shared helpers for the benchmark binaries: paper-vs-measured table
// printing and the one JSON artifact schema every bench emits
// ("komodo-bench-v1", validated by tools/komodo-benchjson in check.sh).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
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
