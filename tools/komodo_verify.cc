// komodo-verify: exhaustive small-world model checker (DESIGN.md §12).
//
// Enumerates every reachable abstract PageDb of a bounded world and checks,
// for every call in the registry with every canonical argument vector, that
// the spec preserves the PageDb invariants, that the concrete monitor refines
// the spec, and that every observed error code is declared in the registry
// row. States are deduplicated under page-number symmetry, so the closure is
// small enough to walk in seconds and its hash pins the explored space.
//
// Exit codes: 0 = closed with all obligations holding; 1 = obligation failed
// (counterexample printed, optionally written as a komodo-fuzz trace);
// 2 = usage or harness error.
//
// stdout is deterministic for a given command line and the same at any
// --jobs (timings go to stderr and the bench JSON), so check.sh can run it
// twice, and at --jobs 1 against the default, and compare byte-for-byte.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "src/verify/explore.h"
#include "tools/cli_util.h"

namespace {

using komodo::verify::CallStats;
using komodo::verify::Explore;
using komodo::verify::ExploreResult;
using komodo::verify::WorldSpec;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--world small|mini] [--pages N] [--max-addrspaces N]\n"
               "          [--inject NAME] [--jobs N] [--out TRACE] [--bench-out JSON]\n"
               "\n"
               "  --world small   5 pages, 2 addrspaces (default)\n"
               "  --world mini    2 pages, 1 addrspace (hand-checkable closure)\n"
               "  --pages N       override the secure-page count\n"
               "  --max-addrspaces N  clip successors with more addrspaces\n"
               "  --inject NAME   arm a fuzz fault injection (see komodo-fuzz)\n"
               "  --jobs N        worker threads, 0 = hardware concurrency (default);\n"
               "                  stdout is the same at any N\n"
               "  --out TRACE     write the counterexample trace here on failure\n"
               "  --bench-out JSON  write komodo-bench-v1 timings/counters here\n",
               argv0);
  return 2;
}

void PrintReport(const WorldSpec& spec, const ExploreResult& r) {
  std::printf("komodo-verify: world pages=%u max_addrspaces=%u inject=%s\n",
              static_cast<unsigned>(spec.pages), static_cast<unsigned>(spec.max_addrspaces),
              spec.inject.empty() ? "none" : spec.inject.c_str());
  std::printf("%-4s %-14s %3s %8s %12s  %s\n", "kind", "call", "nr", "vectors", "transitions",
              "observed errors");
  for (const CallStats& c : r.calls) {
    std::string errs;
    for (const std::string& e : c.errors) {
      if (!errs.empty()) {
        errs += "|";
      }
      errs += e;
    }
    if (errs.empty()) {
      errs = "-";
    }
    std::printf("%-4s %-14s %3u %8llu %12llu  %s\n", c.is_svc ? "svc" : "smc", c.name.c_str(),
                static_cast<unsigned>(c.number), static_cast<unsigned long long>(c.vectors),
                static_cast<unsigned long long>(c.transitions), errs.c_str());
  }
  std::printf("states %llu\n", static_cast<unsigned long long>(r.states));
  std::printf("transitions %llu\n", static_cast<unsigned long long>(r.transitions));
  std::printf("clipped %llu\n", static_cast<unsigned long long>(r.clipped));
  std::printf("closure-hash %s\n", r.closure_hash.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  WorldSpec spec;
  std::string out_path;
  std::string bench_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--world") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      if (std::strcmp(v, "small") == 0) {
        spec.pages = 5;
        spec.max_addrspaces = 2;
      } else if (std::strcmp(v, "mini") == 0) {
        spec.pages = 2;
        spec.max_addrspaces = 1;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--pages") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      spec.pages = static_cast<komodo::word>(
          komodo::cli::ParseU64("komodo-verify", "--pages", v, 1, 64));
    } else if (arg == "--max-addrspaces") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      spec.max_addrspaces = static_cast<komodo::word>(
          komodo::cli::ParseU64("komodo-verify", "--max-addrspaces", v, 1, 64));
    } else if (arg == "--inject") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      spec.inject = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      spec.jobs =
          static_cast<unsigned>(komodo::cli::ParseU64("komodo-verify", "--jobs", v, 0, 256));
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      out_path = v;
    } else if (arg == "--bench-out") {
      const char* v = next();
      if (v == nullptr) {
        return Usage(argv[0]);
      }
      bench_path = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec.pages < 2 || spec.pages > 16) {
    std::fprintf(stderr, "komodo-verify: --pages must be in [2, 16] (closure blow-up)\n");
    return 2;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const ExploreResult r = Explore(spec);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  if (!r.harness_error.empty()) {
    std::fprintf(stderr, "komodo-verify: harness error: %s\n", r.harness_error.c_str());
    return 2;
  }

  PrintReport(spec, r);
  std::fprintf(stderr, "komodo-verify: %.0f ms\n", wall_ms);

  if (!bench_path.empty()) {
    const std::filesystem::path dir = std::filesystem::path(bench_path).parent_path();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
    }
    komodo::bench::BenchJson bench("komodo-verify");
    bench.Config("pages", static_cast<uint64_t>(spec.pages));
    bench.Config("max_addrspaces", static_cast<uint64_t>(spec.max_addrspaces));
    bench.Config("inject", spec.inject.empty() ? "none" : spec.inject);
    bench.Config("jobs", static_cast<uint64_t>(komodo::verify::WorkerCount(spec)));
    bench.Result("explore", "states", static_cast<double>(r.states), "count");
    bench.Result("explore", "transitions", static_cast<double>(r.transitions), "count");
    bench.Result("explore", "clipped", static_cast<double>(r.clipped), "count");
    bench.Result("explore", "wall", wall_ms, "ms");
    if (!bench.Write(bench_path)) {
      return 2;
    }
  }

  if (r.failure.has_value()) {
    std::printf("FAIL depth=%zu exact_replay=%s\n", r.failure->depth,
                r.failure->exact_replay ? "yes" : "no");
    std::printf("%s\n", r.failure->detail.c_str());
    std::printf("--- counterexample trace ---\n%s", r.failure->trace.Format().c_str());
    if (!out_path.empty()) {
      if (!r.failure->trace.WriteFile(out_path)) {
        std::fprintf(stderr, "komodo-verify: cannot write %s\n", out_path.c_str());
        return 2;
      }
      std::fprintf(stderr, "komodo-verify: wrote counterexample to %s\n", out_path.c_str());
    }
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
