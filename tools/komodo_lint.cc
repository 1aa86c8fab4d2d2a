// komodo-lint: static secret-flow & privilege analyzer for enclave binaries.
//
// Runs CFG recovery, the privilege lint and the abstract-interpretation taint
// pass (src/analysis/) over enclave program images and prints one finding per
// line, tab-separated:
//
//   <program>\t<kind>\t<address>\t<detail>
//
// Usage:
//   komodo-lint --shipped              lint every shipped enclave program
//   komodo-lint --check-shipped        same, exit 1 on any finding (CTest)
//   komodo-lint --check-fixtures       verify the seeded-bad fixtures each
//                                      produce exactly their expected finding
//   komodo-lint --list                 list known program names
//   komodo-lint <name>...              lint selected shipped programs
//   komodo-lint --hex <file>           lint whitespace-separated hex words
//                                      (linked at the conventional code VA)
//
// Exit status: 0 = no findings (or fixtures behaved as expected), 1 =
// findings reported, 2 = usage error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/fixtures.h"
#include "src/enclave/example_programs.h"
#include "src/os/os.h"

namespace {

using komodo::analysis::AnalysisResult;
using komodo::analysis::AnalyzeProgram;
using komodo::analysis::BadFixture;
using komodo::analysis::Finding;
using komodo::analysis::FindingKindName;
using komodo::arm::word;
using komodo::enclave::ShippedProgram;

int PrintFindings(const std::string& name, const AnalysisResult& result) {
  for (const Finding& f : result.findings) {
    std::printf("%s\t%s\n", name.c_str(), komodo::analysis::FormatFinding(f).c_str());
  }
  return result.findings.empty() ? 0 : 1;
}

int LintPrograms(const std::vector<ShippedProgram>& programs) {
  int status = 0;
  for (const ShippedProgram& p : programs) {
    const AnalysisResult result = AnalyzeProgram(p.code, komodo::os::kEnclaveCodeVa);
    if (PrintFindings(p.name, result) != 0) {
      status = 1;
    }
  }
  return status;
}

int CheckFixtures() {
  int status = 0;
  std::vector<BadFixture> fixtures = komodo::analysis::SeededBadFixtures();
  for (BadFixture& f : komodo::analysis::ExtraBadFixtures()) {
    fixtures.push_back(std::move(f));
  }
  for (const BadFixture& f : fixtures) {
    const AnalysisResult result = AnalyzeProgram(f.program, komodo::os::kEnclaveCodeVa);
    PrintFindings(f.name, result);
    if (result.findings.size() != 1 || result.findings[0].kind != f.expected) {
      std::fprintf(stderr, "FAIL: fixture %s: expected exactly one %s finding, got %zu\n",
                   f.name.c_str(), FindingKindName(f.expected), result.findings.size());
      status = 1;
    }
  }
  return status;
}

int LintHexFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "komodo-lint: cannot open %s\n", path);
    return 2;
  }
  std::vector<word> program;
  std::string tok;
  while (in >> tok) {
    std::size_t used = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(tok, &used, 16);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != tok.size() || value > 0xffff'fffful) {
      std::fprintf(stderr, "komodo-lint: %s: not a 32-bit hex word: '%s'\n", path, tok.c_str());
      return 2;
    }
    program.push_back(static_cast<word>(value));
  }
  return PrintFindings(path, AnalyzeProgram(program, komodo::os::kEnclaveCodeVa));
}

int Usage() {
  std::fprintf(stderr,
               "usage: komodo-lint --shipped | --check-shipped | --check-fixtures | --list |\n"
               "                   --hex <file> | <program>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::vector<ShippedProgram> shipped = komodo::enclave::ShippedPrograms();

  if (std::strcmp(argv[1], "--list") == 0) {
    for (const ShippedProgram& p : shipped) {
      std::printf("%s%s\n", p.name.c_str(), p.expect_clean ? "" : " (faulting test fixture)");
    }
    return 0;
  }
  if (std::strcmp(argv[1], "--shipped") == 0 || std::strcmp(argv[1], "--check-shipped") == 0) {
    std::vector<ShippedProgram> clean;
    for (const ShippedProgram& p : shipped) {
      if (p.expect_clean) {
        clean.push_back(p);
      }
    }
    return LintPrograms(clean);
  }
  if (std::strcmp(argv[1], "--check-fixtures") == 0) {
    return CheckFixtures();
  }
  if (std::strcmp(argv[1], "--hex") == 0) {
    if (argc != 3) {
      return Usage();
    }
    return LintHexFile(argv[2]);
  }

  std::vector<ShippedProgram> selected;
  for (int i = 1; i < argc; ++i) {
    bool found = false;
    for (const ShippedProgram& p : shipped) {
      if (p.name == argv[i]) {
        selected.push_back(p);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "komodo-lint: unknown program '%s' (try --list)\n", argv[i]);
      return 2;
    }
  }
  return LintPrograms(selected);
}
