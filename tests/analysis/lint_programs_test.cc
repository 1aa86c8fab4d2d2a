// End-to-end lint regression: every shipped enclave program analyzes clean,
// and the deliberately-faulting exception-path fixtures keep their expected
// static signature. A change to src/enclave that introduces a secret-flow or
// privilege defect fails here (and in the komodo_lint_* CTest cases).
#include "src/analysis/analyzer.h"

#include <gtest/gtest.h>

#include "src/enclave/example_programs.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/os/os.h"

namespace komodo::analysis {
namespace {

using komodo::enclave::Sha256Program;

AnalysisResult Analyze(const std::vector<word>& program) {
  return AnalyzeProgram(program, os::kEnclaveCodeVa);
}

std::string Dump(const AnalysisResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += FormatFinding(f) + "\n";
  }
  return out;
}

TEST(LintShipped, AllCleanPrograms) {
  for (const enclave::ShippedProgram& p : enclave::ShippedPrograms()) {
    if (p.expect_clean) {
      const AnalysisResult result = Analyze(p.code);
      EXPECT_TRUE(result.Clean()) << p.name << " findings:\n" << Dump(result);
    }
  }
}

TEST(LintShipped, FaultingFixturesKeepTheirStaticSignature) {
  using namespace komodo::enclave;
  // read_outside / write_code fault at *runtime* (unmapped VA, read-only
  // page); statically their addresses are public constants, so they are
  // clean — the dynamic exception-path tests cover them.
  EXPECT_TRUE(Analyze(ReadOutsideProgram()).Clean());
  EXPECT_TRUE(Analyze(WriteCodeProgram()).Clean());
  // undefined_insn is statically visible: the word is not in the modelled
  // subset.
  const AnalysisResult undef = Analyze(UndefinedInsnProgram());
  ASSERT_EQ(undef.findings.size(), 1u) << Dump(undef);
  EXPECT_EQ(undef.findings[0].kind, FindingKind::kUndecodableWord);
}

TEST(LintShipped, Sha256CfgIsNontrivial) {
  // Sanity-check CFG recovery on the largest shipped program: several blocks,
  // all loops closed (every reachable block has a successor except exits).
  const AnalysisResult result = Analyze(Sha256Program());
  EXPECT_GT(result.cfg.blocks.size(), 10u);
  EXPECT_GT(result.cfg.insns.size(), 100u);
}

}  // namespace
}  // namespace komodo::analysis
