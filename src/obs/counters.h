// The counters of the komodo-metrics-v1 document, each declared once as an
// X-macro list per group, in the style of src/core/call_list.inc and
// KOM_ERRORS. Each consumer expands a list for its own view: the structs
// below and serve::ServerStats declare the fields, trace.cc and
// Server::ExportMetrics write the JSON keys, tools/komodo-benchjson requires
// them, and tests/obs checks them. A counter added to a list is therefore
// stored, attributed to calls, exported and validated with no other edit;
// only the code that increments it is written by hand.
//
// Header-only and dependency-free, so the machine model (src/arm, src/jit)
// can take its stats structs from here while src/obs depends on neither.
#ifndef SRC_OBS_COUNTERS_H_
#define SRC_OBS_COUNTERS_H_

#include <cstdint>

// The tracer's own counters: the document's "counters" object.
#define KOMODO_TRACE_COUNTERS(X)               \
  X(events_recorded)                           \
  X(events_dropped) /* ring-wrap overwrites */ \
  X(smc_calls)                                 \
  X(svc_calls)                                 \
  X(enclave_entries)                           \
  X(enclave_resumes)                           \
  X(enclave_exits)                             \
  X(exceptions)                                \
  X(tlb_flushes)

// The serve daemon's counters: its "serve" section (serve::ServerStats).
#define KOMODO_SERVE_COUNTERS(X)                                   \
  X(sessions_created)                                              \
  X(sessions_destroyed)                                            \
  X(requests_submitted)                                            \
  X(requests_completed)                                            \
  X(requests_failed)                                               \
  X(queue_full_rejections)                                         \
  X(queue_depth_hwm) /* high-water mark of the submission queue */ \
  X(enters)                                                        \
  X(resumes)                                                       \
  X(world_switches) /* enters + resumes */                         \
  X(batches) /* scheduling rounds that executed */                 \
  X(batched_requests) /* requests serviced by those rounds */      \
  X(evictions)                                                     \
  X(rebuilds) /* builds after the first (post-eviction/timeout) */

// The interpreter caches' stats (arm::InterpCacheStats, DESIGN.md §8): each
// call's "interp_cache" object.
#define KOMODO_INTERP_CACHE_COUNTERS(X)                              \
  X(decode_hits)                                                     \
  X(decode_misses)                                                   \
  X(tlb_hits)                                                        \
  X(tlb_misses)                                                      \
  X(pt_filter_fast) /* NoteStore checks answered by the footprint */ \
  X(pt_filter_rebuilds) /* footprint recomputations */

// The block JIT's stats (jit::JitStats, DESIGN.md §13): each call's "jit"
// object.
#define KOMODO_JIT_COUNTERS(X)                                              \
  X(blocks_translated) /* basic blocks compiled to x64 */                   \
  X(block_hits) /* entries into compiled code, chained included */          \
  X(block_invalidations) /* generation-stale blocks retranslated */         \
  X(fallback_steps) /* steps handed back to the interpreter */              \
  X(jit_steps) /* steps retired inside compiled blocks */                   \
  X(chained) /* entries by a chained transfer, which skip the dispatcher */ \
  X(code_cache_flushes) /* whole-cache wipes (buffer exhausted) */          \
  X(helper_accesses) /* probe-stub accesses sent to a runtime helper */

// Expansions shared by the consumers: a zeroed uint64_t member per counter,
// and the counter's name as a string (its JSON key).
#define KOMODO_COUNTER_FIELD(name) uint64_t name = 0;
#define KOMODO_COUNTER_NAME(name) #name,

namespace komodo::obs {

// The machine's stats structs. src/arm's InterpCacheStats and src/jit's
// JitStats are aliases of these.
struct InterpCacheCounters {
  KOMODO_INTERP_CACHE_COUNTERS(KOMODO_COUNTER_FIELD)
};

struct JitCounters {
  KOMODO_JIT_COUNTERS(KOMODO_COUNTER_FIELD)
};

// The machine counters the tracer attributes to calls: the change between a
// call's begin and end snapshots is that call's cost. arm::ObsSnap takes one.
struct MachineSnap {
  uint64_t cycles = 0;       // simulated cycle counter
  uint64_t steps = 0;        // retired instructions
  uint64_t tlb_flushes = 0;  // architectural TLBIALL count
  InterpCacheCounters interp_cache;
  JitCounters jit;
};

}  // namespace komodo::obs

#endif  // SRC_OBS_COUNTERS_H_
