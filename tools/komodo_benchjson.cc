// komodo-benchjson: schema validator for the JSON artifacts the bench
// harness and the tracer emit. check.sh runs it over every bench-smoke
// output so a drifting emitter fails CI rather than silently producing
// unparseable artifacts.
//
//   komodo-benchjson FILE...                    auto-detect schema per file
//   komodo-benchjson --schema bench FILE...     force komodo-bench-v1
//   komodo-benchjson --schema metrics FILE...   force komodo-metrics-v1
//   komodo-benchjson --schema chrome FILE...    force chrome-trace format
//
// Exit status: 0 all files valid, 1 any violation, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/json.h"

namespace {

using komodo::obs::JsonValue;
using komodo::obs::ParseJson;

std::vector<std::string> g_errors;

void Fail(const std::string& where, const std::string& what) {
  g_errors.push_back(where + ": " + what);
}

bool RequireMember(const JsonValue& v, const std::string& where, const char* key,
                   JsonValue::Kind kind, const JsonValue** out = nullptr) {
  const JsonValue* m = v.Find(key);
  if (m == nullptr) {
    Fail(where, std::string("missing key \"") + key + "\"");
    return false;
  }
  if (m->kind != kind) {
    Fail(where, std::string("key \"") + key + "\" has wrong type");
    return false;
  }
  if (out != nullptr) {
    *out = m;
  }
  return true;
}

// Requires a number under each of `keys`: a counter list's expansion
// (src/obs/counters.h), so the validator follows the emitters.
void RequireNumbers(const JsonValue& v, const std::string& where,
                    std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    RequireMember(v, where, key, JsonValue::Kind::kNumber);
  }
}

// True when both are numbers and the first is the larger.
bool Exceeds(const JsonValue* a, const JsonValue* b) {
  return a != nullptr && b != nullptr && a->IsNumber() && b->IsNumber() && a->number > b->number;
}

// komodo-bench-v1: {"schema","bench","config":{},"results":[{name,metric,value,unit}]}
void ValidateBench(const JsonValue& root, const std::string& file) {
  RequireMember(root, file, "bench", JsonValue::Kind::kString);
  RequireMember(root, file, "config", JsonValue::Kind::kObject);
  const JsonValue* results = nullptr;
  if (!RequireMember(root, file, "results", JsonValue::Kind::kArray, &results)) {
    return;
  }
  if (results->items.empty()) {
    Fail(file, "results array is empty");
  }
  for (size_t i = 0; i < results->items.size(); ++i) {
    const JsonValue& r = results->items[i];
    const std::string where = file + " results[" + std::to_string(i) + "]";
    if (!r.IsObject()) {
      Fail(where, "not an object");
      continue;
    }
    RequireMember(r, where, "name", JsonValue::Kind::kString);
    RequireMember(r, where, "metric", JsonValue::Kind::kString);
    RequireMember(r, where, "value", JsonValue::Kind::kNumber);
    RequireMember(r, where, "unit", JsonValue::Kind::kString);
  }
  // Per row (result name), each metric's value.
  std::map<std::string, std::map<std::string, double>> rows;
  for (const JsonValue& r : results->items) {
    const JsonValue* name = r.IsObject() ? r.Find("name") : nullptr;
    const JsonValue* metric = r.IsObject() ? r.Find("metric") : nullptr;
    const JsonValue* value = r.IsObject() ? r.Find("value") : nullptr;
    if (name == nullptr || !name->IsString() || metric == nullptr || !metric->IsString() ||
        value == nullptr || !value->IsNumber()) {
      continue;
    }
    rows[name->str][metric->str] = value->number;
  }
  for (const auto& [name, metrics] : rows) {
    const std::string where = file + " " + name;
    // bench_interp rows: helper accesses and dispatches happen inside
    // translated code, so neither can outnumber the JIT-retired steps, short
    // of LDM/STMs whose every transfer misses (up to 16 per step); the rows
    // sit far below.
    const auto jit_steps = metrics.find("jit_steps");
    for (const char* count : {"jit_helper_accesses", "jit_dispatches"}) {
      const auto it = metrics.find(count);
      if (it == metrics.end()) {
        continue;
      }
      if (jit_steps == metrics.end()) {
        Fail(where, std::string(count) + " without jit_steps");
      } else if (it->second > jit_steps->second) {
        Fail(where, std::string(count) + " exceeds jit_steps");
      }
    }
    // A repeated measurement (bench::Spread): the median must lie within its
    // _min and _max siblings, and neither comes alone.
    for (const auto& [metric, value] : metrics) {
      const auto min = metrics.find(metric + "_min");
      const auto max = metrics.find(metric + "_max");
      if (min == metrics.end() && max == metrics.end()) {
        continue;
      }
      if (min == metrics.end() || max == metrics.end()) {
        Fail(where, metric + " has only one of _min and _max");
      } else if (!(min->second <= value && value <= max->second)) {
        Fail(where, metric + " lies outside its _min and _max");
      }
    }
  }
}

void ValidateHistogram(const JsonValue& h, const std::string& where) {
  RequireMember(h, where, "count", JsonValue::Kind::kNumber);
  RequireMember(h, where, "sum", JsonValue::Kind::kNumber);
  RequireMember(h, where, "min", JsonValue::Kind::kNumber);
  RequireMember(h, where, "max", JsonValue::Kind::kNumber);
  RequireMember(h, where, "mean", JsonValue::Kind::kNumber);
  const JsonValue* buckets = nullptr;
  if (!RequireMember(h, where, "log2_buckets", JsonValue::Kind::kArray, &buckets)) {
    return;
  }
  uint64_t total = 0;
  for (const JsonValue& b : buckets->items) {
    if (!b.IsArray() || b.items.size() != 2 || !b.items[0].IsNumber() || !b.items[1].IsNumber()) {
      Fail(where, "log2_buckets entries must be [lower_bound, count] pairs");
      return;
    }
    total += static_cast<uint64_t>(b.items[1].number);
  }
  const JsonValue* count = h.Find("count");
  if (count != nullptr && count->IsNumber() &&
      total != static_cast<uint64_t>(count->number)) {
    Fail(where, "log2_buckets counts do not sum to count");
  }
}

void ValidateCallStatsArray(const JsonValue& arr, const std::string& where) {
  for (size_t i = 0; i < arr.items.size(); ++i) {
    const JsonValue& s = arr.items[i];
    const std::string w = where + "[" + std::to_string(i) + "]";
    if (!s.IsObject()) {
      Fail(w, "not an object");
      continue;
    }
    RequireMember(s, w, "call", JsonValue::Kind::kNumber);
    RequireMember(s, w, "name", JsonValue::Kind::kString);
    RequireMember(s, w, "calls", JsonValue::Kind::kNumber);
    RequireMember(s, w, "errors", JsonValue::Kind::kNumber);
    const JsonValue* cycles = nullptr;
    if (RequireMember(s, w, "cycles", JsonValue::Kind::kObject, &cycles)) {
      ValidateHistogram(*cycles, w + ".cycles");
    }
    RequireMember(s, w, "steps", JsonValue::Kind::kNumber);
    RequireMember(s, w, "wall_ns", JsonValue::Kind::kNumber);
    const JsonValue* interp_cache = nullptr;
    if (RequireMember(s, w, "interp_cache", JsonValue::Kind::kObject, &interp_cache)) {
      RequireNumbers(*interp_cache, w + ".interp_cache",
                     {KOMODO_INTERP_CACHE_COUNTERS(KOMODO_COUNTER_NAME)});
    }
    const JsonValue* jit = nullptr;
    if (RequireMember(s, w, "jit", JsonValue::Kind::kObject, &jit)) {
      RequireNumbers(*jit, w + ".jit", {KOMODO_JIT_COUNTERS(KOMODO_COUNTER_NAME)});
      // A chained entry is a block hit, and a JIT-retired step is a step.
      if (Exceeds(jit->Find("chained"), jit->Find("block_hits"))) {
        Fail(w, "jit.chained exceeds jit.block_hits");
      }
      if (Exceeds(jit->Find("jit_steps"), s.Find("steps"))) {
        Fail(w, "jit.jit_steps exceeds steps");
      }
    }
    RequireMember(s, w, "tlb_flushes", JsonValue::Kind::kNumber);
  }
}

// Optional "serve" section a komodo-serve daemon embeds in its metrics
// document: the queue/eviction/batching counters plus two histograms.
void ValidateServeSection(const JsonValue& serve, const std::string& where) {
  RequireNumbers(serve, where, {KOMODO_SERVE_COUNTERS(KOMODO_COUNTER_NAME) "resident_pages"});
  const JsonValue* latency = nullptr;
  if (RequireMember(serve, where, "request_latency_cycles", JsonValue::Kind::kObject, &latency)) {
    ValidateHistogram(*latency, where + ".request_latency_cycles");
  }
  const JsonValue* batch = nullptr;
  if (RequireMember(serve, where, "batch_size", JsonValue::Kind::kObject, &batch)) {
    ValidateHistogram(*batch, where + ".batch_size");
  }
  // Internal consistency: enters + resumes must equal world_switches.
  const JsonValue* enters = serve.Find("enters");
  const JsonValue* resumes = serve.Find("resumes");
  const JsonValue* switches = serve.Find("world_switches");
  if (enters != nullptr && resumes != nullptr && switches != nullptr && enters->IsNumber() &&
      resumes->IsNumber() && switches->IsNumber() &&
      enters->number + resumes->number != switches->number) {
    Fail(where, "enters + resumes != world_switches");
  }
}

// komodo-metrics-v1: {"schema","counters":{...},"smc":[...],"svc":[...]}
// plus an optional "serve" section (komodo-serve daemons).
void ValidateMetrics(const JsonValue& root, const std::string& file) {
  const JsonValue* counters = nullptr;
  if (RequireMember(root, file, "counters", JsonValue::Kind::kObject, &counters)) {
    RequireNumbers(*counters, file + " counters", {KOMODO_TRACE_COUNTERS(KOMODO_COUNTER_NAME)});
  }
  const JsonValue* smc = nullptr;
  if (RequireMember(root, file, "smc", JsonValue::Kind::kArray, &smc)) {
    ValidateCallStatsArray(*smc, file + " smc");
  }
  const JsonValue* svc = nullptr;
  if (RequireMember(root, file, "svc", JsonValue::Kind::kArray, &svc)) {
    ValidateCallStatsArray(*svc, file + " svc");
  }
  if (const JsonValue* serve = root.Find("serve")) {
    if (!serve->IsObject()) {
      Fail(file, "key \"serve\" has wrong type");
    } else {
      ValidateServeSection(*serve, file + " serve");
    }
  }
}

// Chrome "Trace Event Format" as emitted by ExportChromeTrace: an object
// with a traceEvents array of M/X/i events carrying ts(+dur) and pid/tid.
void ValidateChrome(const JsonValue& root, const std::string& file) {
  const JsonValue* events = nullptr;
  if (!RequireMember(root, file, "traceEvents", JsonValue::Kind::kArray, &events)) {
    return;
  }
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    const std::string where = file + " traceEvents[" + std::to_string(i) + "]";
    if (!e.IsObject()) {
      Fail(where, "not an object");
      continue;
    }
    const JsonValue* ph = nullptr;
    if (!RequireMember(e, where, "ph", JsonValue::Kind::kString, &ph)) {
      continue;
    }
    RequireMember(e, where, "name", JsonValue::Kind::kString);
    RequireMember(e, where, "pid", JsonValue::Kind::kNumber);
    RequireMember(e, where, "tid", JsonValue::Kind::kNumber);
    if (ph->str == "X") {
      RequireMember(e, where, "ts", JsonValue::Kind::kNumber);
      RequireMember(e, where, "dur", JsonValue::Kind::kNumber);
    } else if (ph->str == "i") {
      RequireMember(e, where, "ts", JsonValue::Kind::kNumber);
    } else if (ph->str != "M") {
      Fail(where, "unexpected event phase \"" + ph->str + "\"");
    }
  }
}

int ValidateFile(const std::string& path, const std::string& forced_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "komodo-benchjson: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  const auto parsed = ParseJson(ss.str(), &error);
  if (!parsed.has_value()) {
    Fail(path, "invalid JSON: " + error);
    return 1;
  }
  const JsonValue& root = *parsed;
  if (!root.IsObject()) {
    Fail(path, "top-level value is not an object");
    return 1;
  }

  std::string schema = forced_schema;
  if (schema.empty()) {
    if (const JsonValue* s = root.Find("schema"); s != nullptr && s->IsString()) {
      if (s->str == "komodo-bench-v1") {
        schema = "bench";
      } else if (s->str == "komodo-metrics-v1") {
        schema = "metrics";
      }
    }
    if (schema.empty() && root.Find("traceEvents") != nullptr) {
      schema = "chrome";
    }
    if (schema.empty()) {
      Fail(path, "unrecognized schema (no komodo-* \"schema\" key or \"traceEvents\")");
      return 1;
    }
  }

  const size_t before = g_errors.size();
  if (schema == "bench") {
    const JsonValue* s = root.Find("schema");
    if (s == nullptr || !s->IsString() || s->str != "komodo-bench-v1") {
      Fail(path, "schema key is not \"komodo-bench-v1\"");
    }
    ValidateBench(root, path);
  } else if (schema == "metrics") {
    const JsonValue* s = root.Find("schema");
    if (s == nullptr || !s->IsString() || s->str != "komodo-metrics-v1") {
      Fail(path, "schema key is not \"komodo-metrics-v1\"");
    }
    ValidateMetrics(root, path);
  } else if (schema == "chrome") {
    ValidateChrome(root, path);
  } else {
    std::fprintf(stderr, "komodo-benchjson: unknown schema \"%s\"\n", schema.c_str());
    return 2;
  }
  return g_errors.size() == before ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string forced;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schema") == 0 && i + 1 < argc) {
      forced = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      forced = "chrome";
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: komodo-benchjson [--schema bench|metrics|chrome] file.json...\n");
    return 2;
  }
  int rc = 0;
  for (const std::string& f : files) {
    const int r = ValidateFile(f, forced);
    if (r > rc) {
      rc = r;
    }
  }
  for (const std::string& e : g_errors) {
    std::fprintf(stderr, "komodo-benchjson: %s\n", e.c_str());
  }
  if (rc == 0) {
    std::printf("komodo-benchjson: %zu file(s) valid\n", files.size());
  }
  return rc;
}
