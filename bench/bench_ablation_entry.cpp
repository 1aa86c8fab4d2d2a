// Ablation of the entry-path optimisations §8.1 sketches: the prototype
// "conservatively saves and restores every non-volatile register" and
// "flushes the TLB, although this could be avoided for repeated invocation of
// the same enclave". This bench measures Enter+Exit under each optimisation,
// quantifying what the paper says it would gain after proving the
// optimisations correct.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/enclave/native_runtime.h"
#include "src/os/world.h"

namespace komodo {
namespace {

class ExitProgram : public enclave::NativeProgram {
 public:
  enclave::UserAction Run(enclave::UserContext&) override {
    return enclave::UserAction::Exit(0);
  }
};

uint64_t MeasureEnterExit(const Monitor::Config& config) {
  os::World w(128, config);
  enclave::NativeRuntime runtime(w.monitor);
  auto built = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  runtime.Register(e.l1pt, std::make_shared<ExitProgram>());
  w.os.Enter(e.thread);  // warm: second entry can exploit the redundant-flush skip
  const uint64_t before = w.machine.cycles.total();
  w.os.Enter(e.thread);
  return w.machine.cycles.total() - before;
}

struct AblationResults {
  uint64_t base, flush, lazy, both;
};

AblationResults MeasureAblation() {
  Monitor::Config baseline;
  Monitor::Config skip_flush;
  skip_flush.opt_skip_redundant_tlb_flush = true;
  Monitor::Config lazy_banked;
  lazy_banked.opt_lazy_banked_regs = true;
  Monitor::Config both;
  both.opt_skip_redundant_tlb_flush = true;
  both.opt_lazy_banked_regs = true;

  return {MeasureEnterExit(baseline), MeasureEnterExit(skip_flush),
          MeasureEnterExit(lazy_banked), MeasureEnterExit(both)};
}

void PrintAblation(const AblationResults& r) {
  const uint64_t c_base = r.base;
  const uint64_t c_flush = r.flush;
  const uint64_t c_lazy = r.lazy;
  const uint64_t c_both = r.both;

  std::printf("\n=== Ablation: §8.1 entry-path optimisations (Enter+Exit, cycles) ===\n");
  std::printf("%-44s %10s %10s\n", "configuration", "cycles", "saved");
  std::printf("%-44s %10llu %10s\n", "unoptimised prototype (paper's configuration)",
              static_cast<unsigned long long>(c_base), "-");
  std::printf("%-44s %10llu %9lld\n", "+ skip redundant TLB flush (same enclave)",
              static_cast<unsigned long long>(c_flush),
              static_cast<long long>(c_base - c_flush));
  std::printf("%-44s %10llu %9lld\n", "+ lazy banked-register save/restore",
              static_cast<unsigned long long>(c_lazy),
              static_cast<long long>(c_base - c_lazy));
  std::printf("%-44s %10llu %9lld\n", "+ both",
              static_cast<unsigned long long>(c_both),
              static_cast<long long>(c_base - c_both));
  std::printf(
      "\nBoth optimisations must preserve every correctness and security test (the suites\n"
      "run them; see tests/). The paper defers them until proven — here the property tests\n"
      "play that role.\n");
}

void EmitJson(const AblationResults& r) {
  bench::BenchJson json("ablation_entry");
  json.Config("workload", "enter_exit_warm");
  json.Result("baseline", "sim_cycles", static_cast<double>(r.base), "cycles");
  json.Result("skip_redundant_tlb_flush", "sim_cycles", static_cast<double>(r.flush), "cycles");
  json.Result("lazy_banked_regs", "sim_cycles", static_cast<double>(r.lazy), "cycles");
  json.Result("both", "sim_cycles", static_cast<double>(r.both), "cycles");
  json.Result("both", "saved_cycles", static_cast<double>(r.base - r.both), "cycles");
  json.Write("BENCH_ablation_entry.json");
}

}  // namespace
}  // namespace komodo

int main() {
  const komodo::AblationResults results = komodo::MeasureAblation();
  komodo::PrintAblation(results);
  komodo::EmitJson(results);
  return 0;
}
