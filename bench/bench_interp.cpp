// Interpreter and JIT fast-path benchmark (DESIGN.md §8, §13): wall-clock
// steps/sec and SMC round-trip latency in the three arm::ExecModes —
//   uncached : interpreter with every fast path off: a full two-level walk
//              per user-mode access, a fresh Decode() per step, the O(L1)
//              live-page-table scan per store;
//   cached   : decode cache + micro-TLB + flat-memory fast path on;
//   jit      : the caches plus the A32→x64 block translator.
// All three must retire identical step and simulated-cycle counts (asserted
// here; the differential suite compares whole machines). On hosts without
// JIT support the jit column degenerates to a second cached run.
//
// On a JIT host the SHA-256 rows also gate two fast paths of translated code
// (DESIGN.md §13), each of which every bisimulation test would pass without:
//   - the probe stubs: together, the rows' translated loads and stores may
//     take the runtime helpers at most once per 10,000 JIT-retired steps.
//     Every helper access is a micro-TLB miss, a fault or a store that needs
//     NoteStore, so only the first touch of each page should pay it;
//   - block chaining: together, the rows may pass through the dispatcher at
//     most once per 1,000 JIT-retired steps. Every SHA-256 loop edge is a
//     static branch within the program's one code page, so after each link
//     is made only an Enter's first block and its exit should be dispatched.
// Both counts are deterministic.
//
// Every configuration runs several times (bench::Repeat); the wall-clock
// columns are the median with min and max siblings, and each run must
// retire the same counts. Emits BENCH_interp.json in the working directory
// so the perf trajectory is tracked PR over PR. `--smoke` runs tiny
// iteration counts and fewer repetitions for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/arm/machine.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/jit/jit.h"
#include "src/os/world.h"

namespace komodo {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

using arm::ExecMode;

struct RunStats {
  uint64_t steps = 0;
  uint64_t cycles = 0;
  uint64_t jit_steps = 0;  // steps retired inside translated blocks
  uint64_t helper_accesses = 0;  // translated accesses the probes sent to a helper
  uint64_t dispatches = 0;  // dispatcher entries into translated code
  double seconds = 0;

  bool SameCounts(const RunStats& o) const {
    return steps == o.steps && cycles == o.cycles && jit_steps == o.jit_steps &&
           helper_accesses == o.helper_accesses && dispatches == o.dispatches;
  }
};

RunStats Measure(const arm::MachineState& m, uint64_t steps0, uint64_t cycles0,
                 Clock::time_point t0, Clock::time_point t1) {
  const jit::JitStats& js = m.jit.stats();
  return {m.steps_retired - steps0, m.cycles.total() - cycles0, js.jit_steps,
          js.helper_accesses, js.block_hits - js.chained, Seconds(t0, t1)};
}

// One configuration over several runs: the median run, whose counts every
// run retired alike, and the spread of their wall times.
using Timed = bench::Repeated<RunStats>;

// Steps per second: the median run's, and the slowest and fastest runs'.
bench::Spread StepsPerSec(const Timed& t) {
  const double steps = static_cast<double>(t.run.steps);
  return {steps / t.seconds.median, steps / t.seconds.max, steps / t.seconds.min};
}

// Builds a SHA-256 enclave and notarises `iters` documents of `doc_len`
// bytes (the hashing core of the Fig. 5 notary workload, fully interpreted).
RunStats RunNotary(ExecMode mode, size_t doc_len, int iters) {
  os::World w{64};
  w.machine.SetExecMode(mode);
  auto built = w.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  std::vector<uint8_t> doc(doc_len);
  for (size_t i = 0; i < doc_len; ++i) {
    doc[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t steps0 = w.machine.steps_retired;
  const uint64_t cycles0 = w.machine.cycles.total();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const word nblocks = enclave::StageSha256Message(w.os, e.shared_insecure_pgnr, doc);
    if (!w.os.Enter(e.thread, nblocks).exited()) {
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  return Measure(w.machine, steps0, cycles0, t0, t1);
}

// Enter/exit with a trivial enclave: the SMC round-trip cost in host time.
RunStats RunSmcRoundTrip(ExecMode mode, int iters) {
  os::World w{64};
  w.machine.SetExecMode(mode);
  auto built = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  const uint64_t steps0 = w.machine.steps_retired;
  const uint64_t cycles0 = w.machine.cycles.total();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (!w.os.Enter(e.thread, 2, 3).exited()) {
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  return Measure(w.machine, steps0, cycles0, t0, t1);
}

struct Comparison {
  std::string name;
  Timed uncached;
  Timed cached;
  Timed jit;
  int iters = 0;

  // Speedups are ratios of the median wall times.
  double Speedup() const { return uncached.seconds.median / cached.seconds.median; }
  double JitSpeedup() const { return cached.seconds.median / jit.seconds.median; }
  bool IsSha() const { return doc_len > 0; }

  size_t doc_len = 0;  // 0 = the SMC round trip
};

void CheckInvisible(const Comparison& c) {
  // Architectural invisibility, cheap version: identical step and simulated
  // cycle counts across all three configurations. (The differential test
  // suite compares whole machines.)
  const RunStats& cached = c.cached.run;
  for (const RunStats* other : {&c.uncached.run, &c.jit.run}) {
    if (cached.steps != other->steps || cached.cycles != other->cycles) {
      std::fprintf(stderr,
                   "FATAL: %s diverged: steps %llu vs %llu, cycles %llu vs %llu\n",
                   c.name.c_str(), static_cast<unsigned long long>(cached.steps),
                   static_cast<unsigned long long>(other->steps),
                   static_cast<unsigned long long>(cached.cycles),
                   static_cast<unsigned long long>(other->cycles));
      std::abort();
    }
  }
}

// The SHA-256 rows' JIT-configuration gates (file comment), over the rows
// together: at most one `what` per `steps_per_event` JIT-retired steps. Each
// row's fresh world misses once per page it touches and dispatches at least
// once per Enter, so a short row alone can sit above a bound whose fast path
// works.
void CheckShaRows(const std::vector<Comparison>& rows, const char* what,
                  uint64_t RunStats::*count, uint64_t steps_per_event, const char* meaning) {
  uint64_t events = 0;
  uint64_t jit_steps = 0;
  std::printf("\n=== JIT %s ===\n", what);
  for (const Comparison& c : rows) {
    const RunStats& j = c.jit.run;
    std::printf("%-16s %12llu %s over %llu jit steps\n", c.name.c_str(),
                static_cast<unsigned long long>(j.*count), what,
                static_cast<unsigned long long>(j.jit_steps));
    if (c.IsSha()) {
      events += j.*count;
      jit_steps += j.jit_steps;
    }
  }
  if (jit::Available() && events * steps_per_event > jit_steps) {
    std::fprintf(stderr,
                 "FATAL: SHA-256 rows: %llu %s over %llu jit steps (more than 1 per %llu): %s\n",
                 static_cast<unsigned long long>(events), what,
                 static_cast<unsigned long long>(jit_steps),
                 static_cast<unsigned long long>(steps_per_event), meaning);
    std::abort();
  }
}

void EmitJson(const std::vector<Comparison>& rows, bool smoke, const char* path) {
  bench::BenchJson json("interp");
  json.Config("smoke", smoke);
  json.Config("jit_available", jit::Available());
  json.Config("reps", static_cast<uint64_t>(bench::Reps(smoke)));
  for (const Comparison& c : rows) {
    const RunStats& j = c.jit.run;
    json.Config(c.name + "_iters", static_cast<uint64_t>(c.iters));
    json.Result(c.name, "steps", static_cast<double>(c.cached.run.steps), "count");
    json.Result(c.name, "cached_steps_per_sec", StepsPerSec(c.cached), "steps/s");
    json.Result(c.name, "uncached_steps_per_sec", StepsPerSec(c.uncached), "steps/s");
    json.Result(c.name, "jit_steps_per_sec", StepsPerSec(c.jit), "steps/s");
    json.Result(c.name, "cached_seconds", c.cached.seconds, "s");
    json.Result(c.name, "uncached_seconds", c.uncached.seconds, "s");
    json.Result(c.name, "jit_seconds", c.jit.seconds, "s");
    json.Result(c.name, "speedup", c.Speedup(), "x");
    json.Result(c.name, "jit_speedup", c.JitSpeedup(), "x");
    json.Result(c.name, "jit_coverage",
                j.steps == 0 ? 0.0
                             : static_cast<double>(j.jit_steps) / static_cast<double>(j.steps),
                "fraction");
    json.Result(c.name, "jit_steps", static_cast<double>(j.jit_steps), "count");
    json.Result(c.name, "jit_helper_accesses", static_cast<double>(j.helper_accesses), "count");
    json.Result(c.name, "jit_dispatches", static_cast<double>(j.dispatches), "count");
  }
  json.Write(path);
}

}  // namespace
}  // namespace komodo

int main(int argc, char** argv) {
  using komodo::Comparison;
  using komodo::arm::ExecMode;
  using komodo::StepsPerSec;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const int notary_iters = smoke ? 1 : 12;
  const int sha_iters = smoke ? 2 : 200;
  const int smc_iters = smoke ? 10 : 2000;

  struct Spec {
    const char* name;
    size_t doc_len;  // 0 = SMC round-trip workload
    int iters;
  };
  const Spec specs[] = {
      {"notary_3000B", 3000, notary_iters},
      {"sha256_64B", 64, sha_iters},
      {"smc_roundtrip", 0, smc_iters},
  };

  const int reps = komodo::bench::Reps(smoke);
  std::vector<Comparison> rows;
  for (const Spec& s : specs) {
    Comparison c;
    c.name = s.name;
    c.iters = s.iters;
    c.doc_len = s.doc_len;
    const auto time = [&](ExecMode mode) {
      return komodo::bench::Repeat(
          s.name, reps,
          [&] {
            return s.doc_len == 0 ? komodo::RunSmcRoundTrip(mode, s.iters)
                                  : komodo::RunNotary(mode, s.doc_len, s.iters);
          },
          &komodo::RunStats::seconds, &komodo::RunStats::SameCounts);
    };
    c.uncached = time(ExecMode::kUncached);
    c.cached = time(ExecMode::kCached);
    c.jit = time(ExecMode::kJit);
    rows.push_back(c);
  }

  std::printf("=== Interpreter fast path: uncached vs cached vs jit (median of %d) ===\n",
              reps);
  std::printf("%-16s %12s %14s %14s %14s %8s %8s\n", "workload", "steps",
              "uncached st/s", "cached st/s", "jit st/s", "speedup", "jit x");
  for (const Comparison& c : rows) {
    komodo::CheckInvisible(c);
    std::printf("%-16s %12llu %14.0f %14.0f %14.0f %7.2fx %7.2fx\n", c.name.c_str(),
                static_cast<unsigned long long>(c.cached.run.steps),
                StepsPerSec(c.uncached).median, StepsPerSec(c.cached).median,
                StepsPerSec(c.jit).median, c.Speedup(), c.JitSpeedup());
  }
  const Comparison& smc = rows.back();
  std::printf("\nSMC round-trip: %.0f ns cached, %.0f ns uncached (per Enter/exit)\n",
              smc.cached.seconds.median / smc.iters * 1e9,
              smc.uncached.seconds.median / smc.iters * 1e9);
  komodo::CheckShaRows(rows, "helper accesses", &komodo::RunStats::helper_accesses, 10'000,
                       "the probe stubs are not hitting");
  komodo::CheckShaRows(rows, "dispatches", &komodo::RunStats::dispatches, 1'000,
                       "translated blocks are not chaining");

  komodo::EmitJson(rows, smoke, "BENCH_interp.json");
  return 0;
}
