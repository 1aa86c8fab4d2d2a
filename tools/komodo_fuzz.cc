// komodo-fuzz: unified differential fuzzer for the monitor (DESIGN.md §10).
//
// Generates randomized OS/enclave call traces from a replayable 64-bit seed
// and runs them through the pluggable oracles (refinement, invariants,
// noninterference, interp). On failure it shrinks the trace to a minimal
// reproducer and writes it as a small text file for tests/corpus/.
//
// Determinism contract: stdout is a pure function of the flags *except
// --jobs* (which only changes how fast the same work runs) — timing and
// progress go to stderr. `komodo-fuzz --seed N ... | sha256sum` twice gives
// identical bytes, `--jobs 1` and `--jobs 8` give identical bytes, and the
// campaign-hash line pins every generated trace and verdict in canonical
// shard order (scripts/check.sh compares serial vs parallel). --shards IS
// part of the hash domain: it defines how the trace stream is split into
// independently seeded substreams. A campaign runs its traces on pooled
// worlds and --replay on fresh ones; every world tracks its dirty pages, so
// the JIT stores by one rule in both (DESIGN.md §11, §13), and a trace's
// verdict does not depend on which it ran on.
//
// --mode evolve switches the campaign from the blind trace stream to
// coverage-guided corpus evolution (DESIGN.md §15): the call budget splits
// over --rounds synchronous generations, each mutating the traces that
// discovered new coverage. Evolve stdout — including the v3 campaign hash,
// per-oracle coverage/corpus counts and the coverage-curve line — obeys the
// same determinism contract: a pure function of everything but --jobs.
// --rounds, --max-corpus and --corpus-dir shape evolve only, so
// a blind campaign given one exits 2.
//
// Usage:
//   komodo-fuzz [--seed N] [--calls N] [--oracle all|<name>] [--trace-len N]
//               [--inject <name>] [--no-shrink] [--out DIR]
//               [--jobs N] [--shards N]
//               [--mode blind|evolve] [--rounds N] [--max-corpus N]
//               [--corpus-dir DIR]
//   komodo-fuzz --replay FILE [--no-inject]
//
// Exit codes: 0 = no failure, 1 = oracle failure (witness written/printed),
// 2 = usage or harness error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/fuzz/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/shrink.h"
#include "src/fuzz/trace.h"
#include "tools/cli_util.h"

namespace {

using komodo::cli::ParseU64;
using komodo::fuzz::CampaignMode;
using komodo::fuzz::CampaignOptions;
using komodo::fuzz::CampaignResult;
using komodo::fuzz::Trace;
using komodo::fuzz::Verdict;

int Usage() {
  std::fprintf(stderr,
               "usage: komodo-fuzz [--seed N] [--calls N] [--oracle all|refinement|"
               "invariants|noninterference|interp]\n"
               "                   [--trace-len N] [--inject NAME] [--no-shrink] [--out DIR]\n"
               "                   [--jobs N] [--shards N]\n"
               "                   [--mode blind|evolve] [--rounds N] [--max-corpus N]\n"
               "                   [--corpus-dir DIR]\n"
               "       komodo-fuzz --replay FILE [--no-inject]\n");
  return 2;
}

int Replay(const std::string& path, bool apply_inject) {
  const auto trace = Trace::ReadFile(path);
  if (!trace) {
    std::fprintf(stderr, "komodo-fuzz: cannot parse trace file %s\n", path.c_str());
    return 2;
  }
  const Verdict v = komodo::fuzz::RunTrace(*trace, apply_inject);
  std::printf("replay %s oracle=%s inject=%s seed=%llu: %s\n", path.c_str(),
              trace->oracle.c_str(), trace->inject.empty() ? "none" : trace->inject.c_str(),
              static_cast<unsigned long long>(trace->seed), v.failed ? "FAIL" : "PASS");
  if (v.failed) {
    std::printf("  %s\n", v.detail.c_str());
  }
  return v.failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions opts;
  std::string replay_path;
  std::string out_dir = ".";
  bool apply_inject = true;
  const char* evolve_only_flag = nullptr;  // the last evolve-only flag given

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.seed = ParseU64("komodo-fuzz", "--seed", v);
    } else if (arg == "--calls") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.calls = ParseU64("komodo-fuzz", "--calls", v);
    } else if (arg == "--trace-len") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.trace_len = static_cast<size_t>(ParseU64("komodo-fuzz", "--trace-len", v, 1, 1 << 20));
    } else if (arg == "--oracle") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::string(v) != "all") {
        opts.oracles.push_back(v);
      }
    } else if (arg == "--inject") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.inject = v;
      if (!komodo::fuzz::SetInjectByName(opts.inject)) {
        std::fprintf(stderr, "komodo-fuzz: unknown injection '%s'\n", opts.inject.c_str());
        return 2;
      }
      komodo::fuzz::SetInjectByName("none");
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      // 0 = use hardware concurrency.
      opts.jobs = static_cast<int>(ParseU64("komodo-fuzz", "--jobs", v, 0, 4096));
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.shards = static_cast<uint32_t>(ParseU64("komodo-fuzz", "--shards", v, 1, 1 << 16));
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "blind") == 0) {
        opts.mode = CampaignMode::kBlind;
      } else if (std::strcmp(v, "evolve") == 0) {
        opts.mode = CampaignMode::kEvolve;
      } else {
        std::fprintf(stderr, "komodo-fuzz: --mode expects blind or evolve, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--rounds") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.rounds = static_cast<uint32_t>(ParseU64("komodo-fuzz", "--rounds", v, 1, 1 << 16));
      evolve_only_flag = "--rounds";
    } else if (arg == "--max-corpus") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.max_corpus =
          static_cast<size_t>(ParseU64("komodo-fuzz", "--max-corpus", v, 1, 1 << 20));
      evolve_only_flag = "--max-corpus";
    } else if (arg == "--corpus-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      opts.corpus_dir = v;
      evolve_only_flag = "--corpus-dir";
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage();
      replay_path = v;
    } else if (arg == "--no-inject") {
      apply_inject = false;
    } else {
      std::fprintf(stderr, "komodo-fuzz: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }

  if (!replay_path.empty()) {
    return Replay(replay_path, apply_inject);
  }
  // A blind campaign has no rounds or corpus; accepting these flags there
  // would run a different campaign than the one asked for, silently.
  if (evolve_only_flag != nullptr && opts.mode != CampaignMode::kEvolve) {
    std::fprintf(stderr, "komodo-fuzz: %s needs --mode evolve\n", evolve_only_flag);
    return 2;
  }

  for (const std::string& o : opts.oracles) {
    bool known = false;
    for (const std::string& k : komodo::fuzz::OracleNames()) {
      known = known || k == o;
    }
    if (!known) {
      std::fprintf(stderr, "komodo-fuzz: unknown oracle '%s'\n", o.c_str());
      return 2;
    }
  }

  const CampaignResult result = komodo::fuzz::RunCampaign(
      opts, [](const std::string& line) { std::fprintf(stderr, "%s\n", line.c_str()); });

  const bool evolve = opts.mode == CampaignMode::kEvolve;
  for (const auto& st : result.stats) {
    if (evolve) {
      std::printf("oracle %s: %llu calls in %llu traces, coverage-keys=%llu corpus=%llu\n",
                  st.oracle.c_str(), static_cast<unsigned long long>(st.calls),
                  static_cast<unsigned long long>(st.traces),
                  static_cast<unsigned long long>(st.coverage_keys),
                  static_cast<unsigned long long>(st.corpus_entries));
    } else {
      std::printf("oracle %s: %llu calls in %llu traces\n", st.oracle.c_str(),
                  static_cast<unsigned long long>(st.calls),
                  static_cast<unsigned long long>(st.traces));
    }
    std::fprintf(stderr, "oracle %s: %.1f calls/s\n", st.oracle.c_str(),
                 st.seconds > 0 ? static_cast<double>(st.calls) / st.seconds : 0.0);
  }
  if (evolve) {
    std::printf("coverage-curve");
    for (uint64_t keys : result.coverage_curve) {
      std::printf(" %llu", static_cast<unsigned long long>(keys));
    }
    std::printf("\n");
  }
  std::printf("campaign-hash %s\n", result.hash.c_str());
  if (evolve && !opts.corpus_dir.empty()) {
    std::fprintf(stderr, "corpus saved under %s\n", opts.corpus_dir.c_str());
  }

  if (!result.failed) {
    std::printf("no failures (seed=%llu, %llu calls per oracle)\n",
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(opts.calls));
    return 0;
  }

  std::printf("FAIL oracle=%s seed=%llu op=%d\n  %s\n", result.original.oracle.c_str(),
              static_cast<unsigned long long>(result.original.seed), result.verdict.failing_op,
              result.verdict.detail.c_str());
  if (opts.shrink) {
    std::printf("shrunk %llu -> %llu ops (%llu calls)\n",
                static_cast<unsigned long long>(result.shrink.ops_before),
                static_cast<unsigned long long>(result.shrink.ops_after),
                static_cast<unsigned long long>(result.witness.CallCount()));
  }
  const std::string path = out_dir + "/witness-" + result.witness.oracle + "-" +
                           std::to_string(result.witness.seed) + ".trace";
  if (result.witness.WriteFile(path)) {
    std::printf("witness written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "komodo-fuzz: cannot write %s\n", path.c_str());
  }
  std::printf("--- witness ---\n%s", result.witness.Format().c_str());
  return 1;
}
