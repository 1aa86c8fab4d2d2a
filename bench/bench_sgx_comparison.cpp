// §8.1 comparison: Komodo enclave crossings vs SGX's published microcode
// latencies (EENTER ~3,800 / EEXIT ~3,300 cycles, Orenbach et al. [66]).
// The paper's claim: "the Komodo result represents an order of magnitude
// improvement" for a full crossing. Also compares the dynamic-memory paths
// (AllocSpare+MapData vs EAUG+EACCEPT).
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/enclave/native_runtime.h"
#include "src/os/world.h"
#include "src/sgx/sgx_model.h"

namespace komodo {
namespace {

struct KomodoCrossings {
  uint64_t enter_exit;
  uint64_t alloc_and_map;
};

class ExitProgram : public enclave::NativeProgram {
 public:
  enclave::UserAction Run(enclave::UserContext&) override {
    return enclave::UserAction::Exit(0);
  }
};

class MapDataProgram : public enclave::NativeProgram {
 public:
  PageNr spare = 0;
  word next_va = 0x30000;
  bool pending = false;
  enclave::UserAction Run(enclave::UserContext&) override {
    if (!pending) {
      pending = true;
      const word va = next_va;
      next_va += arm::kPageSize;
      return enclave::UserAction::Svc(kSvcMapData, spare, MakeMapping(va, kMapR | kMapW));
    }
    pending = false;
    return enclave::UserAction::Exit(0);
  }
};

KomodoCrossings MeasureKomodo() {
  os::World w{128};
  enclave::NativeRuntime runtime(w.monitor);
  auto built = w.os.NewEnclave().Code({0xe3a00001, 0xef000000}).Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  auto exit_program = std::make_shared<ExitProgram>();
  runtime.Register(e.l1pt, exit_program);

  w.os.Enter(e.thread);  // warm
  uint64_t before = w.machine.cycles.total();
  w.os.Enter(e.thread);
  const uint64_t enter_exit = w.machine.cycles.total() - before;

  // Dynamic path: AllocSpare (SMC) + MapData (SVC inside one entry).
  auto map_program = std::make_shared<MapDataProgram>();
  map_program->spare = w.os.AllocSecurePage();
  runtime.Register(e.l1pt, map_program);
  before = w.machine.cycles.total();
  w.os.AllocSpare(e.addrspace, map_program->spare);
  w.os.Enter(e.thread);
  const uint64_t alloc_and_map = w.machine.cycles.total() - before;
  return {enter_exit, alloc_and_map};
}

struct SgxCrossings {
  uint64_t enter_exit;
  uint64_t aug_accept;
};

SgxCrossings MeasureSgx() {
  sgx::SgxMachine m(64);
  std::array<uint8_t, sgx::kSgxPageBytes> zero{};
  if (m.Ecreate(0) != sgx::SgxStatus::kOk ||
      m.Eadd(0, 1, 0, false, false, sgx::EpcmType::kTcs, zero) != sgx::SgxStatus::kOk ||
      m.Einit(0) != sgx::SgxStatus::kOk) {
    std::abort();
  }
  m.ResetCycles();
  m.Eenter(1);
  m.Eexit(1);
  const uint64_t enter_exit = m.cycles();
  m.ResetCycles();
  m.Eaug(0, 5, 0x5000);
  m.Eaccept(5, 0x5000, true, false);
  const uint64_t aug_accept = m.cycles();
  return {enter_exit, aug_accept};
}

void PrintComparison(const KomodoCrossings& k, const SgxCrossings& s) {
  std::printf("\n=== Section 8.1: Komodo vs SGX crossing costs (cycles) ===\n");
  std::printf("%-34s %12s %12s %10s\n", "operation", "SGX", "Komodo", "speedup");
  std::printf("%-34s %12llu %12llu %9.1fx\n", "full crossing (enter + exit)",
              static_cast<unsigned long long>(s.enter_exit),
              static_cast<unsigned long long>(k.enter_exit),
              static_cast<double>(s.enter_exit) / static_cast<double>(k.enter_exit));
  std::printf("%-34s %12llu %12llu %9.1fx\n", "dynamic page (alloc + map/accept)",
              static_cast<unsigned long long>(s.aug_accept),
              static_cast<unsigned long long>(k.alloc_and_map),
              static_cast<double>(s.aug_accept) / static_cast<double>(k.alloc_and_map));
  std::printf(
      "\nPaper claim: SGX full crossing ~7,100 cycles vs Komodo 738 — \"an order of\n"
      "magnitude improvement\". The shape check is speedup >= ~5x.\n");
  std::printf("(Paper reference values: SGX EENTER 3,800 + EEXIT 3,300 = 7,100; Komodo 738.)\n");
}

void EmitJson(const KomodoCrossings& k, const SgxCrossings& s) {
  bench::BenchJson json("sgx_comparison");
  json.Config("sgx_reference", "Orenbach et al. [66]");
  json.Result("enter_exit", "komodo_cycles", static_cast<double>(k.enter_exit), "cycles");
  json.Result("enter_exit", "sgx_cycles", static_cast<double>(s.enter_exit), "cycles");
  json.Result("enter_exit", "speedup",
              static_cast<double>(s.enter_exit) / static_cast<double>(k.enter_exit), "x");
  json.Result("dynamic_page", "komodo_cycles", static_cast<double>(k.alloc_and_map), "cycles");
  json.Result("dynamic_page", "sgx_cycles", static_cast<double>(s.aug_accept), "cycles");
  json.Result("dynamic_page", "speedup",
              static_cast<double>(s.aug_accept) / static_cast<double>(k.alloc_and_map), "x");
  json.Write("BENCH_sgx_comparison.json");
}

}  // namespace
}  // namespace komodo

int main() {
  const komodo::KomodoCrossings k = komodo::MeasureKomodo();
  const komodo::SgxCrossings s = komodo::MeasureSgx();
  komodo::PrintComparison(k, s);
  komodo::EmitJson(k, s);
  return 0;
}
