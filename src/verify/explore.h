// Exhaustive small-world exploration (DESIGN.md §12): BFS over every
// reachable abstract PageDb of a bounded world, checking the three
// obligations of obligations.h for every registry call with every canonical
// argument vector at every state. The call list and argument domains are
// derived from src/core/call_table.h, so a new KOM_SMC/KOM_SVC row enters the
// checked space without touching this file.
#ifndef SRC_VERIFY_EXPLORE_H_
#define SRC_VERIFY_EXPLORE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/fuzz/trace.h"
#include "src/verify/obligations.h"

namespace komodo::verify {

// Per-registry-row accounting, used both for the report and for the
// error-set cross-check (every observed error must be declared in the row's
// `errors` column, and the registry test requires the converse in the small
// world: every declared error is actually observable).
struct CallStats {
  std::string name;
  word number = 0;
  bool is_svc = false;
  uint64_t vectors = 0;      // argument vectors enumerated per state
  uint64_t transitions = 0;  // (state, vector) pairs actually checked
  std::set<std::string> errors;  // observed non-success KomErrName()s
  std::set<std::string> declared;  // parsed from the registry row
};

// A counterexample: the failing transition's obligation detail plus a replay
// trace (path from boot + failing op) in komodo-fuzz-trace format.
// `exact_replay` is true when komodo-fuzz --replay reproduces the exact op
// sequence (all-SMC, no pending-IRQ ops — the fuzzer has no IRQ scheduling
// or direct SVC driving, so other witnesses document the path instead).
struct Counterexample {
  std::string detail;
  fuzz::Trace trace;
  bool exact_replay = false;
  size_t depth = 0;  // ops from boot, including the failing one
};

struct ExploreResult {
  bool ok = false;
  // Non-empty when the harness itself is broken (mid-state extraction
  // disagrees with the abstract state being explored) — distinct from an
  // obligation failure, which produces `failure` instead.
  std::string harness_error;
  uint64_t states = 0;       // distinct canonical states closed over
  uint64_t transitions = 0;  // obligation-checked (state, vector) pairs
  uint64_t clipped = 0;      // successors outside the world bound
  std::vector<CallStats> calls;  // registry order, SMCs then SVCs
  // SHA-256 over the sorted canonical keys of the closed state space;
  // deterministic across runs, sanitizers and hosts.
  std::string closure_hash;
  // SHA-256 over the canonical keys in the order they were queued, up to the
  // end of the run. Every other field is a sum or a set and reads the same
  // whatever order the expansions are committed in; this one shows that
  // workers commit them in queue order, as the serial loop does.
  std::string queue_hash;
  std::optional<Counterexample> failure;
};

// Runs the exploration to closure (or first failure) under the world bounds,
// on WorkerCount(spec) threads. `spec.inject` arms a fuzz::inject fault on
// every worker for the duration of the run. The result is the same at any
// worker count.
ExploreResult Explore(const WorldSpec& spec);

// spec.jobs, or the hardware concurrency when that is 0.
unsigned WorkerCount(const WorldSpec& spec);

}  // namespace komodo::verify

#endif  // SRC_VERIFY_EXPLORE_H_
