#include "src/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/obs/json.h"

namespace komodo::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSmcBegin:
      return "smc_begin";
    case EventKind::kSmcEnd:
      return "smc_end";
    case EventKind::kSvcBegin:
      return "svc_begin";
    case EventKind::kSvcEnd:
      return "svc_end";
    case EventKind::kEnclaveEnter:
      return "enclave_enter";
    case EventKind::kEnclaveResume:
      return "enclave_resume";
    case EventKind::kEnclaveExit:
      return "enclave_exit";
    case EventKind::kException:
      return "exception";
    case EventKind::kTlbFlush:
      return "tlb_flush";
  }
  return "unknown";
}

void Histogram::Add(uint64_t v) {
  ++count_;
  sum_ += v;
  if (v < min_) {
    min_ = v;
  }
  if (v > max_) {
    max_ = v;
  }
  int b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  ++buckets_[b < kBuckets ? b : kBuckets - 1];
}

Observability::Observability() {
  const char* env = std::getenv("KOMODO_TRACE");
  if (env != nullptr && (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0 ||
                         std::strcmp(env, "true") == 0)) {
    Enable();
  }
}

void Observability::Enable(size_t ring_capacity) {
  enabled_ = true;
  capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  ring_.clear();
  ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);  // grows to capacity on demand
  Reset();
}

void Observability::Disable() {
  enabled_ = false;
  ring_.clear();
  ring_.shrink_to_fit();
}

void Observability::Reset() {
  ring_.clear();
  depth_ = 0;
  next_seq_ = 0;
  coverage_.clear();
  counters_ = Counters{};
  smc_stats_.clear();
  svc_stats_.clear();
}

uint64_t Observability::WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Observability::Record(const TraceEvent& e) {
  if (!enabled_) {
    return;
  }
  ++counters_.events_recorded;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_seq_ % capacity_] = e;
    ++counters_.events_dropped;
  }
  ++next_seq_;
}

Observability::Pending Observability::BeginCall(EventKind kind, uint32_t call, const char* name,
                                                const uint32_t* args, int nargs,
                                                const MachineSnap& snap) {
  Pending p;
  if (!enabled_) {
    return p;
  }
  p.begin = snap;
  p.wall_begin_ns = WallNs();

  TraceEvent e;
  e.seq = next_seq_;
  e.kind = kind;
  e.depth = depth_;
  e.code = call;
  e.name = name;
  e.nargs = static_cast<uint8_t>(nargs < 0 ? 0 : (nargs > 4 ? 4 : nargs));
  for (int i = 0; i < e.nargs; ++i) {
    e.args[static_cast<size_t>(i)] = args[i];
  }
  e.cycles = snap.cycles;
  e.steps = snap.steps;
  e.wall_ns = p.wall_begin_ns;
  Record(e);

  ++depth_;
  if (kind == EventKind::kSmcBegin) {
    ++counters_.smc_calls;
  } else if (kind == EventKind::kSvcBegin) {
    ++counters_.svc_calls;
  }
  return p;
}

void Observability::EndCall(EventKind kind, uint32_t call, const char* name, uint32_t err,
                            uint32_t val, const Pending& pending, const MachineSnap& snap) {
  if (!enabled_) {
    return;
  }
  if (depth_ > 0) {
    --depth_;
  }
  TraceEvent e;
  e.seq = next_seq_;
  e.kind = kind;
  e.depth = depth_;
  e.code = call;
  e.name = name;
  e.err = err;
  e.val = val;
  e.cycles = snap.cycles;
  e.steps = snap.steps;
  e.wall_ns = WallNs();
  Record(e);
  if (coverage_armed_) {
    coverage_.insert(CoverageKey(kind, call, err));
  }

  CallStats& s = (kind == EventKind::kSmcEnd ? smc_stats_ : svc_stats_)[call];
  if (s.name.empty()) {
    s.name = name;
  }
  ++s.calls;
  if (err != 0) {
    ++s.errors;
  }
  s.wall_ns += e.wall_ns - pending.wall_begin_ns;
  s.cycle_hist.Add(snap.cycles - pending.begin.cycles);
  const MachineSnap& b = pending.begin;
  MachineSnap& c = s.cost;
  c.cycles += snap.cycles - b.cycles;
  c.steps += snap.steps - b.steps;
  c.tlb_flushes += snap.tlb_flushes - b.tlb_flushes;
#define KOMODO_FOLD_INTERP_CACHE(name) \
  c.interp_cache.name += snap.interp_cache.name - b.interp_cache.name;
  KOMODO_INTERP_CACHE_COUNTERS(KOMODO_FOLD_INTERP_CACHE)
#undef KOMODO_FOLD_INTERP_CACHE
#define KOMODO_FOLD_JIT(name) c.jit.name += snap.jit.name - b.jit.name;
  KOMODO_JIT_COUNTERS(KOMODO_FOLD_JIT)
#undef KOMODO_FOLD_JIT
}

void Observability::Instant(EventKind kind, uint32_t code, const char* name,
                            const MachineSnap& snap, uint32_t err) {
  if (!enabled_) {
    return;
  }
  TraceEvent e;
  e.seq = next_seq_;
  e.kind = kind;
  e.depth = depth_;
  e.code = code;
  e.name = name;
  e.err = err;
  e.cycles = snap.cycles;
  e.steps = snap.steps;
  e.wall_ns = WallNs();
  Record(e);
  if (coverage_armed_) {
    coverage_.insert(CoverageKey(kind, code, err));
  }

  switch (kind) {
    case EventKind::kEnclaveEnter:
      ++counters_.enclave_entries;
      break;
    case EventKind::kEnclaveResume:
      ++counters_.enclave_resumes;
      break;
    case EventKind::kEnclaveExit:
      ++counters_.enclave_exits;
      break;
    case EventKind::kException:
      ++counters_.exceptions;
      break;
    case EventKind::kTlbFlush:
      ++counters_.tlb_flushes;
      break;
    default:
      break;
  }
}

std::vector<TraceEvent> Observability::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || next_seq_ <= capacity_) {
    out = ring_;
  } else {
    const size_t head = next_seq_ % capacity_;  // oldest surviving event
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(head), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(head));
  }
  return out;
}

namespace {

// Writes the "args" object shared by begin-matched complete events.
void WriteCallArgs(JsonWriter& w, const TraceEvent& begin, const TraceEvent& end) {
  w.Key("args");
  w.BeginObject();
  for (int i = 0; i < begin.nargs; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "r%d", i + 1);
    w.KV(key, static_cast<uint64_t>(begin.args[static_cast<size_t>(i)]));
  }
  w.KV("err", static_cast<uint64_t>(end.err));
  w.KV("val", static_cast<uint64_t>(end.val));
  w.KV("steps", end.steps - begin.steps);
  w.KV("wall_ns", end.wall_ns - begin.wall_ns);
  w.EndObject();
}

// One JSON object per counter group, a key per listed counter (counters.h).
#define KOMODO_COUNTER_KV(name) w.KV(#name, c.name);
void WriteCountersJson(JsonWriter& w, const Counters& c) {
  w.BeginObject();
  KOMODO_TRACE_COUNTERS(KOMODO_COUNTER_KV)
  w.EndObject();
}

void WriteCountersJson(JsonWriter& w, const InterpCacheCounters& c) {
  w.BeginObject();
  KOMODO_INTERP_CACHE_COUNTERS(KOMODO_COUNTER_KV)
  w.EndObject();
}

void WriteCountersJson(JsonWriter& w, const JitCounters& c) {
  w.BeginObject();
  KOMODO_JIT_COUNTERS(KOMODO_COUNTER_KV)
  w.EndObject();
}
#undef KOMODO_COUNTER_KV

void WriteCallStatsJson(JsonWriter& w, const std::map<uint32_t, CallStats>& stats) {
  w.BeginArray();
  for (const auto& [call, s] : stats) {
    w.BeginObject();
    w.KV("call", static_cast<uint64_t>(call));
    w.KV("name", s.name);
    w.KV("calls", s.calls);
    w.KV("errors", s.errors);
    w.Key("cycles");
    WriteHistogramJson(w, s.cycle_hist);
    w.KV("steps", s.cost.steps);
    w.KV("wall_ns", s.wall_ns);
    w.Key("interp_cache");
    WriteCountersJson(w, s.cost.interp_cache);
    w.Key("jit");
    WriteCountersJson(w, s.cost.jit);
    w.KV("tlb_flushes", s.cost.tlb_flushes);
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace

void WriteHistogramJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.KV("count", h.count());
  w.KV("sum", h.sum());
  w.KV("min", h.min());
  w.KV("max", h.max());
  w.KV("mean", h.count() == 0 ? 0.0
                              : static_cast<double>(h.sum()) / static_cast<double>(h.count()));
  // Sparse log2 buckets as [lower_bound, count] pairs.
  w.Key("log2_buckets");
  w.BeginArray();
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t n = h.buckets()[static_cast<size_t>(i)];
    if (n == 0) {
      continue;
    }
    w.BeginArray();
    w.Uint(i == 0 ? 0 : (1ull << (i - 1)));
    w.Uint(n);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

std::string Observability::ExportChromeTrace() const {
  const std::vector<TraceEvent> events = Events();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.KV("displayTimeUnit", "ns");
  w.Key("otherData");
  w.BeginObject();
  w.KV("clock", "simulated Cortex-A7 cycles (1 cycle shown as 1 us)");
  w.KV("schema", "komodo-trace-v1");
  w.EndObject();
  w.Key("traceEvents");
  w.BeginArray();

  // Process/thread naming metadata so Perfetto shows a labelled track.
  w.BeginObject();
  w.KV("ph", "M");
  w.KV("pid", 1);
  w.KV("tid", 1);
  w.KV("name", "process_name");
  w.Key("args");
  w.BeginObject();
  w.KV("name", "komodo-monitor");
  w.EndObject();
  w.EndObject();

  // Match begin/end pairs into complete ("X") events; the per-depth stack
  // reconstructs nesting (SVCs inside an Enter). Ends whose begins fell off
  // the ring are dropped; begins with no end (trace stopped mid-call) close
  // at the last timestamp.
  const uint64_t last_cycles = events.empty() ? 0 : events.back().cycles;
  std::vector<const TraceEvent*> stack;
  auto emit_complete = [&w](const TraceEvent& b, uint64_t end_cycles, const TraceEvent* e) {
    w.BeginObject();
    w.KV("name", b.name);
    w.KV("cat", b.kind == EventKind::kSmcBegin ? "smc" : "svc");
    w.KV("ph", "X");
    w.KV("ts", b.cycles);
    w.KV("dur", end_cycles - b.cycles);
    w.KV("pid", 1);
    w.KV("tid", 1);
    if (e != nullptr) {
      WriteCallArgs(w, b, *e);
    }
    w.EndObject();
  };
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kSmcBegin:
      case EventKind::kSvcBegin:
        stack.push_back(&e);
        break;
      case EventKind::kSmcEnd:
      case EventKind::kSvcEnd:
        if (!stack.empty()) {
          emit_complete(*stack.back(), e.cycles, &e);
          stack.pop_back();
        }
        break;
      default: {
        w.BeginObject();
        w.KV("name", e.name);
        w.KV("cat", EventKindName(e.kind));
        w.KV("ph", "i");
        w.KV("s", "t");
        w.KV("ts", e.cycles);
        w.KV("pid", 1);
        w.KV("tid", 1);
        w.Key("args");
        w.BeginObject();
        w.KV("code", static_cast<uint64_t>(e.code));
        if (e.err != 0) {
          w.KV("err", static_cast<uint64_t>(e.err));
        }
        w.KV("steps", e.steps);
        w.EndObject();
        w.EndObject();
        break;
      }
    }
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    emit_complete(**it, last_cycles, nullptr);
  }
  w.EndArray();
  w.EndObject();
  return out;
}

void Observability::WriteMetricsMembers(JsonWriter& w) const {
  w.KV("schema", "komodo-metrics-v1");
  w.Key("counters");
  WriteCountersJson(w, counters_);
  w.Key("smc");
  WriteCallStatsJson(w, smc_stats_);
  w.Key("svc");
  WriteCallStatsJson(w, svc_stats_);
}

std::string Observability::ExportMetrics() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  WriteMetricsMembers(w);
  w.EndObject();
  return out;
}

bool Observability::WriteChromeTrace(const std::string& path) const {
  return WriteFile(path, ExportChromeTrace());
}

bool Observability::WriteMetrics(const std::string& path) const {
  return WriteFile(path, ExportMetrics());
}

}  // namespace komodo::obs
