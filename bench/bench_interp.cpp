// Interpreter and JIT fast-path benchmark (DESIGN.md §8, §13): wall-clock
// steps/sec and SMC round-trip latency across three configurations —
//   uncached : interpreter with every fast path off (KOMODO_INTERP_CACHE=off
//              semantics): a full two-level walk per user-mode access, a
//              fresh Decode() per step, the O(L1) live-page-table scan per
//              store;
//   cached   : decode cache + micro-TLB + flat-memory fast path on;
//   jit      : the caches plus the A32→x64 block translator.
// All three must retire identical step and simulated-cycle counts (asserted
// here; the differential suite compares whole machines). On hosts without
// JIT support the jit column degenerates to a second cached run.
//
// On a JIT host the SHA-256 rows also gate the probe stubs (DESIGN.md §13):
// together, their translated loads and stores may take the runtime helpers
// at most once per 10,000 JIT-retired steps. Every helper access is a micro-TLB
// miss, a fault or a store that needs NoteStore, so only the first touch of
// each page should pay it; a probe that never hit would pass every
// bisimulation test but fail here. The count is deterministic.
//
// Emits BENCH_interp.json in the working directory so the perf trajectory is
// tracked PR over PR. `--smoke` runs tiny iteration counts for CI.
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

enum class Config { kUncached, kCached, kJit };

// KOMODO_JIT defaults on, so every configuration pins both knobs explicitly.
void Apply(Config cfg, arm::MachineState& m) {
  m.interp.set_enabled(cfg != Config::kUncached);
  m.jit.set_enabled(cfg == Config::kJit);
}

struct RunStats {
  uint64_t steps = 0;
  uint64_t cycles = 0;
  uint64_t jit_steps = 0;  // steps retired inside translated blocks
  uint64_t helper_accesses = 0;  // translated accesses the probes sent to a helper
  double seconds = 0;
};

RunStats Measure(const arm::MachineState& m, uint64_t steps0, uint64_t cycles0,
                 Clock::time_point t0, Clock::time_point t1) {
  const jit::JitStats& js = m.jit.stats();
  return {m.steps_retired - steps0, m.cycles.total() - cycles0, js.jit_steps,
          js.helper_accesses, Seconds(t0, t1)};
}

// Builds a SHA-256 enclave and notarises `iters` documents of `doc_len`
// bytes (the hashing core of the Fig. 5 notary workload, fully interpreted).
RunStats RunNotary(Config cfg, size_t doc_len, int iters) {
  os::World w{64};
  Apply(cfg, w.machine);
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
RunStats RunSmcRoundTrip(Config cfg, int iters) {
  os::World w{64};
  Apply(cfg, w.machine);
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
  RunStats uncached;
  RunStats cached;
  RunStats jit;
  int iters = 0;

  double UncachedSps() const { return static_cast<double>(uncached.steps) / uncached.seconds; }
  double CachedSps() const { return static_cast<double>(cached.steps) / cached.seconds; }
  double JitSps() const { return static_cast<double>(jit.steps) / jit.seconds; }
  double Speedup() const { return uncached.seconds / cached.seconds; }
  double JitSpeedup() const { return cached.seconds / jit.seconds; }
  bool IsSha() const { return doc_len > 0; }

  size_t doc_len = 0;  // 0 = the SMC round trip
};

void CheckInvisible(const Comparison& c) {
  // Architectural invisibility, cheap version: identical step and simulated
  // cycle counts across all three configurations. (The differential test
  // suite compares whole machines.)
  for (const RunStats* other : {&c.uncached, &c.jit}) {
    if (c.cached.steps != other->steps || c.cached.cycles != other->cycles) {
      std::fprintf(stderr,
                   "FATAL: %s diverged: steps %llu vs %llu, cycles %llu vs %llu\n",
                   c.name.c_str(), static_cast<unsigned long long>(c.cached.steps),
                   static_cast<unsigned long long>(other->steps),
                   static_cast<unsigned long long>(c.cached.cycles),
                   static_cast<unsigned long long>(other->cycles));
      std::abort();
    }
  }
}

// The probe gate (file comment), over the JIT configuration of the SHA-256
// rows together: at most one helper access per 10,000 JIT-retired steps.
// Each row's fresh world misses once per page it touches, so a short row
// alone can sit above the bound with every probe hitting.
void CheckProbesHit(const std::vector<Comparison>& rows) {
  constexpr uint64_t kStepsPerHelperAccess = 10'000;
  uint64_t helper_accesses = 0;
  uint64_t jit_steps = 0;
  std::printf("\n=== JIT accesses served by the runtime helpers ===\n");
  for (const Comparison& c : rows) {
    std::printf("%-16s %12llu helper accesses over %llu jit steps\n", c.name.c_str(),
                static_cast<unsigned long long>(c.jit.helper_accesses),
                static_cast<unsigned long long>(c.jit.jit_steps));
    if (c.IsSha()) {
      helper_accesses += c.jit.helper_accesses;
      jit_steps += c.jit.jit_steps;
    }
  }
  if (jit::Available() && helper_accesses * kStepsPerHelperAccess > jit_steps) {
    std::fprintf(stderr,
                 "FATAL: SHA-256 rows: %llu translated accesses took the helpers over %llu "
                 "jit steps (more than 1 per %llu): the probe stubs are not hitting\n",
                 static_cast<unsigned long long>(helper_accesses),
                 static_cast<unsigned long long>(jit_steps),
                 static_cast<unsigned long long>(kStepsPerHelperAccess));
    std::abort();
  }
}

void EmitJson(const std::vector<Comparison>& rows, bool smoke, const char* path) {
  bench::BenchJson json("interp");
  json.Config("smoke", smoke);
  json.Config("jit_available", jit::Available());
  for (const Comparison& c : rows) {
    json.Config(c.name + "_iters", static_cast<uint64_t>(c.iters));
    json.Result(c.name, "steps", static_cast<double>(c.cached.steps), "count");
    json.Result(c.name, "cached_steps_per_sec", c.CachedSps(), "steps/s");
    json.Result(c.name, "uncached_steps_per_sec", c.UncachedSps(), "steps/s");
    json.Result(c.name, "jit_steps_per_sec", c.JitSps(), "steps/s");
    json.Result(c.name, "cached_seconds", c.cached.seconds, "s");
    json.Result(c.name, "uncached_seconds", c.uncached.seconds, "s");
    json.Result(c.name, "jit_seconds", c.jit.seconds, "s");
    json.Result(c.name, "speedup", c.Speedup(), "x");
    json.Result(c.name, "jit_speedup", c.JitSpeedup(), "x");
    json.Result(c.name, "jit_coverage",
                c.jit.steps == 0
                    ? 0.0
                    : static_cast<double>(c.jit.jit_steps) / static_cast<double>(c.jit.steps),
                "fraction");
    json.Result(c.name, "jit_steps", static_cast<double>(c.jit.jit_steps), "count");
    json.Result(c.name, "jit_helper_accesses", static_cast<double>(c.jit.helper_accesses),
                "count");
  }
  json.Write(path);
}

}  // namespace
}  // namespace komodo

int main(int argc, char** argv) {
  using komodo::Comparison;
  using komodo::Config;
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

  std::vector<Comparison> rows;
  for (const Spec& s : specs) {
    Comparison c;
    c.name = s.name;
    c.iters = s.iters;
    c.doc_len = s.doc_len;
    if (s.doc_len == 0) {
      c.uncached = komodo::RunSmcRoundTrip(Config::kUncached, s.iters);
      c.cached = komodo::RunSmcRoundTrip(Config::kCached, s.iters);
      c.jit = komodo::RunSmcRoundTrip(Config::kJit, s.iters);
    } else {
      c.uncached = komodo::RunNotary(Config::kUncached, s.doc_len, s.iters);
      c.cached = komodo::RunNotary(Config::kCached, s.doc_len, s.iters);
      c.jit = komodo::RunNotary(Config::kJit, s.doc_len, s.iters);
    }
    rows.push_back(c);
  }

  std::printf("=== Interpreter fast path: uncached vs cached vs jit ===\n");
  std::printf("%-16s %12s %14s %14s %14s %8s %8s\n", "workload", "steps",
              "uncached st/s", "cached st/s", "jit st/s", "speedup", "jit x");
  for (const Comparison& c : rows) {
    komodo::CheckInvisible(c);
    std::printf("%-16s %12llu %14.0f %14.0f %14.0f %7.2fx %7.2fx\n", c.name.c_str(),
                static_cast<unsigned long long>(c.cached.steps), c.UncachedSps(),
                c.CachedSps(), c.JitSps(), c.Speedup(), c.JitSpeedup());
  }
  const Comparison& smc = rows.back();
  std::printf("\nSMC round-trip: %.0f ns cached, %.0f ns uncached (per Enter/exit)\n",
              smc.cached.seconds / smc.iters * 1e9, smc.uncached.seconds / smc.iters * 1e9);
  komodo::CheckProbesHit(rows);

  komodo::EmitJson(rows, smoke, "BENCH_interp.json");
  return 0;
}
