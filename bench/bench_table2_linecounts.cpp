// Table 2 analogue: line counts per component. The paper's columns are
// Dafny spec / Vale implementation / proof annotations; the natural analogue
// here is specification code (src/spec), implementation code, and tests
// (property tests play the role the proofs played). Counts are physical
// source lines excluding blanks and pure comment lines, like the paper's.
// The rows cover every directory under src/; the counts are also written to
// BENCH_table2.json, and scripts/check.sh fails if the src/core row (the
// monitor, i.e. the TCB) grows past the committed artifact.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#ifndef KOMODO_SOURCE_DIR
#define KOMODO_SOURCE_DIR "."
#endif

namespace {

namespace fs = std::filesystem;

// X-macro lists (src/core/call_list.inc) are code too: the monitor's
// dispatch expressions live in one.
bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".inc";
}

int CountLines(const fs::path& file) {
  std::ifstream in(file);
  std::string line;
  int count = 0;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    // Trim leading whitespace.
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;  // blank
    }
    const std::string body = line.substr(first);
    if (in_block_comment) {
      if (body.find("*/") != std::string::npos) {
        in_block_comment = false;
      }
      continue;
    }
    if (body.rfind("//", 0) == 0) {
      continue;  // comment line
    }
    if (body.rfind("/*", 0) == 0 && body.find("*/") == std::string::npos) {
      in_block_comment = true;
      continue;
    }
    ++count;
  }
  return count;
}

int CountDir(const fs::path& dir) {
  int total = 0;
  if (!fs::exists(dir)) {
    return 0;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourceFile(entry.path())) {
      total += CountLines(entry.path());
    }
  }
  return total;
}

bool ReportTable2() {
  const fs::path root = KOMODO_SOURCE_DIR;
  struct Row {
    const char* component;
    const char* paper_cols;  // spec / impl / proof from Table 2
    const char* dir;
  };
  const std::vector<Row> rows = {
      {"ARM machine model", "1,174 /   112 /    985", "src/arm"},
      {"Crypto (SHA/HMAC/RSA)", "  250 /   415 /  3,200", "src/crypto"},
      {"Komodo monitor (SMC+SVC)", "1,609 / 2,183 / 11,020", "src/core"},
      {"Spec + noninterference", "  175 /     - /  2,644", "src/spec"},
      {"OS model / harness", "    - /     - /      -", "src/os"},
      {"SGX baseline", "    - /     - /      -", "src/sgx"},
      {"Enclave runtime + notary", "    - / 3,700 /      -", "src/enclave"},
      {"Static analysis (lint)", "    - /     - /      -", "src/analysis"},
      {"Fuzzer + oracles", "    - /     - /      -", "src/fuzz"},
      {"A32->x64 block JIT", "    - /     - /      -", "src/jit"},
      {"Observability", "    - /     - /      -", "src/obs"},
      {"Serve daemon", "    - /     - /      -", "src/serve"},
      {"Model checker (verify)", "    - /     - /      -", "src/verify"},
  };
  komodo::bench::BenchJson json("table2_linecounts");
  std::printf("\n=== Table 2 analogue: line counts per component ===\n");
  std::printf("%-28s %26s %12s\n", "component", "paper (spec/impl/proof)", "this repo");
  int src_total = 0;
  for (const Row& r : rows) {
    const int lines = CountDir(root / r.dir);
    src_total += lines;
    std::printf("%-28s %26s %12d\n", r.component, r.paper_cols, lines);
    json.Result(r.dir, "code_lines", lines, "lines");
  }
  const int tests = CountDir(root / "tests");
  const int bench = CountDir(root / "bench");
  const int examples = CountDir(root / "examples");
  const int tools = CountDir(root / "tools");
  std::printf("%-28s %26s %12d\n", "src/ total", "7,156 (4,446/2,710/     -)", src_total);
  std::printf("%-28s %26s %12d\n", "tests (role of proofs)", "18,655 proof lines", tests);
  std::printf("%-28s %26s %12d\n", "benchmarks", "-", bench);
  std::printf("%-28s %26s %12d\n", "examples", "-", examples);
  std::printf("%-28s %26s %12d\n", "tools (CLIs)", "-", tools);
  std::printf("%-28s %26s %12d\n", "TOTAL", "25,811 (4,446/2,710/18,655)",
              src_total + tests + bench + examples + tools);
  std::printf(
      "\nThe paper's 'proof' column (18,655 Dafny annotation lines) maps onto this repo's\n"
      "test suite: machine-checked proofs are replaced by executable-spec refinement and\n"
      "noninterference property tests. See DESIGN.md substitution #2.\n");
  json.Result("src", "code_lines", src_total, "lines");
  json.Result("tests", "code_lines", tests, "lines");
  json.Result("bench", "code_lines", bench, "lines");
  json.Result("examples", "code_lines", examples, "lines");
  json.Result("tools", "code_lines", tools, "lines");
  return json.Write("BENCH_table2.json");
}

}  // namespace

int main() {
  if (!ReportTable2()) {
    std::fprintf(stderr, "bench_table2_linecounts: cannot write BENCH_table2.json\n");
    return 1;
  }
  return 0;
}
