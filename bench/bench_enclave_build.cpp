// Extension benchmark (in the spirit of §8): enclave construction cost as a
// function of enclave size, Komodo vs SGX. Construction is where the two
// designs do the same conceptual work — allocate, measure, finalise — so the
// comparison isolates monitor-call overhead from the measurement work that
// dominates both.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/os/world.h"
#include "src/sgx/sgx_model.h"

namespace komodo {
namespace {

// Cycles to build (and tear down) a Komodo enclave with `data_pages` secure
// pages. Uses a fresh world per measurement so page allocation is identical.
uint64_t KomodoBuildCycles(word data_pages) {
  os::World w{512};
  const word staging = w.os.AllocInsecurePage();
  w.os.WriteInsecurePage(staging, {0xe3a00001, 0xef000000});
  const uint64_t before = w.machine.cycles.total();

  const PageNr as = w.os.AllocSecurePage();
  const PageNr l1pt = w.os.AllocSecurePage();
  if (w.os.InitAddrspace(as, l1pt).err != kErrSuccess) {
    std::abort();
  }
  // One L2 table covers up to 1024 pages; enough for this sweep.
  const PageNr l2 = w.os.AllocSecurePage();
  if (w.os.InitL2Table(as, l2, 0).err != kErrSuccess) {
    std::abort();
  }
  for (word i = 0; i < data_pages; ++i) {
    const PageNr page = w.os.AllocSecurePage();
    if (w.os.MapSecure(as, page, MakeMapping(0x8000 + i * arm::kPageSize, kMapR | kMapX),
                       staging)
            .err != kErrSuccess) {
      std::abort();
    }
  }
  const PageNr thread = w.os.AllocSecurePage();
  if (w.os.InitThread(as, thread, 0x8000).err != kErrSuccess ||
      w.os.Finalise(as).err != kErrSuccess) {
    std::abort();
  }
  return w.machine.cycles.total() - before;
}

uint64_t SgxBuildCycles(sgx::word data_pages) {
  sgx::SgxMachine m(512);
  std::array<uint8_t, sgx::kSgxPageBytes> contents{};
  contents.fill(0x5a);
  m.ResetCycles();
  if (m.Ecreate(0) != sgx::SgxStatus::kOk) {
    std::abort();
  }
  if (m.Eadd(0, 1, 0, false, false, sgx::EpcmType::kTcs, contents) != sgx::SgxStatus::kOk) {
    std::abort();
  }
  for (sgx::word i = 0; i < data_pages; ++i) {
    const sgx::word page = 2 + i;
    if (m.Eadd(0, page, 0x8000 + i * sgx::kSgxPageBytes, true, true, sgx::EpcmType::kReg,
               contents) != sgx::SgxStatus::kOk) {
      std::abort();
    }
    for (sgx::word off = 0; off < sgx::kSgxPageBytes; off += sgx::kEextendChunk) {
      if (m.Eextend(0, page, off) != sgx::SgxStatus::kOk) {
        std::abort();
      }
    }
  }
  if (m.Einit(0) != sgx::SgxStatus::kOk) {
    std::abort();
  }
  return m.cycles();
}

struct BuildRow {
  word pages;
  uint64_t komodo_cycles;
  uint64_t sgx_cycles;
};

std::vector<BuildRow> MeasureBuild() {
  std::vector<BuildRow> rows;
  for (word n : {1u, 4u, 16u, 64u, 128u}) {
    rows.push_back({n, KomodoBuildCycles(n), SgxBuildCycles(n)});
  }
  return rows;
}

void PrintBuildComparison(const std::vector<BuildRow>& rows) {
  std::printf("\n=== Extension: enclave construction cost vs size (cycles) ===\n");
  std::printf("%12s %14s %14s %14s %14s\n", "data pages", "Komodo", "per page", "SGX",
              "per page");
  uint64_t prev_k = 0;
  uint64_t prev_s = 0;
  word prev_n = 0;
  for (const BuildRow& row : rows) {
    const word n = row.pages;
    const uint64_t k = row.komodo_cycles;
    const uint64_t s = row.sgx_cycles;
    const double k_per = prev_n ? static_cast<double>(k - prev_k) / (n - prev_n) : 0;
    const double s_per = prev_n ? static_cast<double>(s - prev_s) / (n - prev_n) : 0;
    std::printf("%12u %14llu %14.0f %14llu %14.0f\n", n, static_cast<unsigned long long>(k),
                k_per, static_cast<unsigned long long>(s), s_per);
    prev_k = k;
    prev_s = s;
    prev_n = n;
  }
  std::printf(
      "\nBoth are dominated by per-page measurement hashing (64 SHA-256 blocks/page); the\n"
      "marginal costs should be within ~2x of each other. Komodo additionally copies page\n"
      "contents into secure RAM; SGX pays per-256B EEXTEND microcode flows.\n");
}

void EmitJson(const std::vector<BuildRow>& rows) {
  bench::BenchJson json("enclave_build");
  json.Config("page_sizes", "1,4,16,64,128");
  for (const BuildRow& row : rows) {
    const std::string name = "pages_" + std::to_string(row.pages);
    json.Result(name, "komodo_cycles", static_cast<double>(row.komodo_cycles), "cycles");
    json.Result(name, "sgx_cycles", static_cast<double>(row.sgx_cycles), "cycles");
  }
  json.Write("BENCH_enclave_build.json");
}

}  // namespace
}  // namespace komodo

int main() {
  const std::vector<komodo::BuildRow> rows = komodo::MeasureBuild();
  komodo::PrintBuildComparison(rows);
  komodo::EmitJson(rows);
  return 0;
}
