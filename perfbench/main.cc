// komodo_perfbench: runs one benchmark workload through the program's
// public API and prints one JSON result line (see perfbench/README.md).
//
//   komodo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
//
// Exit codes: 0 = ran (the JSON says whether every check passed),
// 2 = usage error or a refused environment.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "perfbench/common.h"
#include "perfbench/workloads.h"

namespace {

using komodo::perfbench::Options;
using komodo::perfbench::Report;

int Usage(const char* why) {
  std::fprintf(stderr,
               "komodo_perfbench: %s\n"
               "usage: komodo_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  if (s == nullptr || *s == '\0' || *s == '-') {
    return false;
  }
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // The numbers must always measure the default program: refuse to run
  // with the interpreter-cache, JIT or tracer switches set.
  for (const char* var : {"KOMODO_JIT", "KOMODO_INTERP_CACHE", "KOMODO_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "komodo_perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"serve-churn", komodo::perfbench::RunServeChurn},
      {"serve-resident", komodo::perfbench::RunServeResident},
      {"enclave-sha", komodo::perfbench::RunEnclaveSha},
      {"fuzz-blind", komodo::perfbench::RunFuzzBlind},
      {"verify-small", komodo::perfbench::RunVerifySmall},
  };

  Options opts;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    }
    bool ok = true;
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      ok = ParseU64(v, &opts.seed);
    } else if (arg == "--seconds") {
      ok = ParseU64(v, &seconds) && seconds >= 1 && seconds <= 3600;
      have_seconds = true;
    } else if (arg == "--trace") {
      ok = ParseU64(v, &trace) && trace <= 1;
    } else if (arg == "--out-dir") {
      opts.out_dir = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (!ok) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seconds) {
    return Usage("missing --seconds");
  }
  opts.seconds = static_cast<double>(seconds);
  opts.trace = trace == 1;
  if (opts.out_dir.empty()) {
    opts.out_dir = ".";
  }

  Report report;
  it->second(opts, report);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
