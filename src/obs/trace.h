// Observability for the Komodo monitor (DESIGN.md §9): a ring-buffer
// structured event tracer plus monotonic counters and per-call histograms,
// with exporters for chrome://tracing JSON and a flat metrics.json.
//
// Zero overhead when disabled: every recording entry point is guarded by the
// caller on `enabled()` (a single predictable branch on the SMC path), the
// ring buffer is allocated lazily on Enable(), and nothing here ever charges
// simulated cycles — the tracer observes the cycle counter, it never moves
// it. Timestamps in exported traces are *simulated* Cortex-A7 cycles, so
// traces are deterministic run to run; wall-clock nanoseconds ride along in
// each event for host-side profiling but are excluded from determinism
// guarantees (and from the trace-determinism test).
//
// The library is standalone by design (no dependency on src/arm or
// src/core): callers pass a MachineSnap (counters.h) of the counters they
// want attributed — the monitor takes arm::ObsSnap of its machine (cycle
// counter, retired steps, TLB-flush count, interpreter-cache and JIT stats)
// around each dispatched call. Every counter in the document is declared
// once, in counters.h's lists. Instrument once, at the call-table dispatch;
// everything else follows.
//
// Activation: construct-time from the environment (KOMODO_TRACE=on|1|true,
// ring capacity via KOMODO_TRACE_BUF), or programmatically via Enable().
//
// Threading model: thread-confined, not thread-safe. Each Monitor owns one
// Observability instance, and counters/ring buffer are plain (unsynchronized)
// state — the guarantee is that an instance is only ever touched by the
// thread running its Monitor. Concurrent Worlds (the multithread suite, the
// parallel fuzz campaign's per-worker WorldPools) therefore trace
// independently with zero contention; sharing one instance across threads is
// a data race by contract. TSan (KOMODO_SANITIZE=thread) enforces this in
// scripts/check.sh's parallel fuzz leg.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/counters.h"

namespace komodo::obs {

class JsonWriter;

enum class EventKind : uint8_t {
  kSmcBegin,        // code = SMC number; args = r1..r4
  kSmcEnd,          // err/val = returned r0/r1
  kSvcBegin,        // code = SVC number; args = r1..r3
  kSvcEnd,
  kEnclaveEnter,    // code = dispatcher page
  kEnclaveResume,   // code = dispatcher page
  kEnclaveExit,     // code = dispatcher page; err = teardown error
  kException,       // code = arm::Exception value taken during enclave run
  kTlbFlush,        // code = 0 full flush
};

const char* EventKindName(EventKind kind);

struct TraceEvent {
  uint64_t seq = 0;       // monotonic, survives ring wrap (drop detection)
  EventKind kind = EventKind::kSmcBegin;
  uint8_t depth = 0;      // call nesting (SVCs inside an Enter have depth 1)
  uint8_t nargs = 0;
  uint32_t code = 0;      // call number / dispatcher page / exception kind
  const char* name = "";  // static string from the call registry
  std::array<uint32_t, 4> args{};
  uint32_t err = 0;
  uint32_t val = 0;
  uint64_t cycles = 0;    // simulated cycles at the event
  uint64_t steps = 0;
  uint64_t wall_ns = 0;   // host monotonic clock; nondeterministic
};

// log2-bucketed histogram: bucket i counts values v with 2^(i-1) <= v < 2^i
// (bucket 0 counts v == 0).
class Histogram {
 public:
  static constexpr int kBuckets = 41;

  void Add(uint64_t v);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  bool operator==(const Histogram&) const = default;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
  std::array<uint64_t, kBuckets> buckets_{};
};

// Per-call accumulated statistics (one per SMC/SVC number actually seen).
struct CallStats {
  std::string name;
  uint64_t calls = 0;
  uint64_t errors = 0;   // calls returning err != 0
  uint64_t wall_ns = 0;
  Histogram cycle_hist;  // per-call simulated cycles
  MachineSnap cost;      // end - begin snapshot of every call, summed
};

struct Counters {
  KOMODO_TRACE_COUNTERS(KOMODO_COUNTER_FIELD)
};

// komodo-metrics-v1 histogram serializer. Exposed so layers above the
// monitor (the serve daemon's request-latency histograms) can embed their own
// sections in the same document format the validator understands, instead of
// inventing a parallel schema.
void WriteHistogramJson(JsonWriter& w, const Histogram& h);

class Observability {
 public:
  static constexpr size_t kDefaultRingCapacity = 65536;

  // Reads KOMODO_TRACE / KOMODO_TRACE_BUF; disabled unless the environment
  // opts in.
  Observability();

  bool enabled() const { return enabled_; }
  void Enable(size_t ring_capacity = kDefaultRingCapacity);
  void Disable();
  // Clears events, counters and stats; keeps the enabled state and capacity.
  void Reset();

  // Coverage export hook (evolve-mode fuzzing, DESIGN.md §15): while armed
  // (and enabled), every completed call and every instant folds a packed
  // (kind, code, err) key into a distinct-key set the fuzzer harvests. Keys
  // are inserted at EndCall/Instant time, never read back from the ring, so
  // the ring capacity (KOMODO_TRACE_BUF) cannot change the set. Reset()
  // clears the keys but keeps the armed state, mirroring `enabled`.
  static uint64_t CoverageKey(EventKind kind, uint32_t code, uint32_t err) {
    return (static_cast<uint64_t>(kind) << 56) |
           (static_cast<uint64_t>(code & 0xffffffu) << 32) | static_cast<uint64_t>(err);
  }
  void ArmCoverage() {
    coverage_armed_ = true;
    coverage_.clear();
  }
  void DisarmCoverage() {
    coverage_armed_ = false;
    coverage_.clear();
  }
  const std::set<uint64_t>& coverage_keys() const { return coverage_; }

  // Begin/End bracket one dispatched call. The returned Pending carries the
  // begin-side snapshots and must be handed back to EndCall. All recording
  // methods are no-ops when disabled (callers also guard on enabled() so the
  // snapshot itself is not taken).
  struct Pending {
    MachineSnap begin;
    uint64_t wall_begin_ns = 0;
  };
  Pending BeginCall(EventKind kind, uint32_t call, const char* name, const uint32_t* args,
                    int nargs, const MachineSnap& snap);
  void EndCall(EventKind kind, uint32_t call, const char* name, uint32_t err, uint32_t val,
               const Pending& pending, const MachineSnap& snap);
  // Point event (enclave lifecycle, exceptions, TLB flushes).
  void Instant(EventKind kind, uint32_t code, const char* name, const MachineSnap& snap,
               uint32_t err = 0);

  const Counters& counters() const { return counters_; }
  // Buffered events, oldest first (at most the ring capacity; earlier events
  // were dropped and counted in counters().events_dropped).
  std::vector<TraceEvent> Events() const;
  const std::map<uint32_t, CallStats>& smc_stats() const { return smc_stats_; }
  const std::map<uint32_t, CallStats>& svc_stats() const { return svc_stats_; }

  // chrome://tracing / Perfetto "Trace Event Format" JSON: complete ("X")
  // events for calls, instant ("i") events for the rest; ts/dur are
  // simulated cycles presented as microseconds.
  std::string ExportChromeTrace() const;
  // Flat metrics (schema "komodo-metrics-v1"): global counters plus per-SMC
  // and per-SVC cycle histograms and interp-cache attribution.
  std::string ExportMetrics() const;
  // The members of that document ("schema", "counters", "smc", "svc"),
  // written into an object the caller has opened, so a layer above the
  // monitor can append its own sections to the same document.
  void WriteMetricsMembers(JsonWriter& w) const;
  bool WriteChromeTrace(const std::string& path) const;
  bool WriteMetrics(const std::string& path) const;

 private:
  void Record(const TraceEvent& e);
  static uint64_t WallNs();

  bool enabled_ = false;
  bool coverage_armed_ = false;
  uint8_t depth_ = 0;
  size_t capacity_ = 0;
  uint64_t next_seq_ = 0;
  std::set<uint64_t> coverage_;
  std::vector<TraceEvent> ring_;
  Counters counters_;
  std::map<uint32_t, CallStats> smc_stats_;
  std::map<uint32_t, CallStats> svc_stats_;
};

}  // namespace komodo::obs

#endif  // SRC_OBS_TRACE_H_
