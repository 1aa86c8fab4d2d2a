// enclave-sha: steady-state simulated execution. Four in-ISA SHA-256
// enclaves (enclave::Sha256Program) on one world hash seeded documents in
// turn, one Os::Enter per document. No builds and no serve layer in the
// timed window: this is where interpreter and JIT execution dominate.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/crypto/sha256.h"
#include "src/enclave/sha256_program.h"
#include "src/os/world.h"

namespace komodo::perfbench {
namespace {

constexpr size_t kEnclaves = 4;
constexpr uint64_t kDocsPerRep = 5'000;
// Set-up takes milliseconds; repeating it gives set-up time a steady median.
constexpr int kSetupsPerRep = 5;
constexpr size_t kMinDoc = 64;
constexpr size_t kMaxDoc = enclave::kSha256ProgramMaxBlocks * 64 - 9;  // 3,575 bytes

struct Doc {
  std::vector<uint8_t> bytes;
  crypto::Digest expected;  // host SHA-256, computed before any timing
};

Doc MakeDoc(Rng& rng, size_t size) {
  Doc d;
  d.bytes.resize(size);
  for (uint8_t& b : d.bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  d.expected = crypto::Sha256Hash(d.bytes);
  return d;
}

std::vector<Doc> MakeDocs(uint64_t seed, uint64_t n) {
  Rng rng(seed ^ 0x5aa256d0c5ull);
  std::vector<Doc> docs;
  docs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    docs.push_back(MakeDoc(rng, kMinDoc + rng.Next() % (kMaxDoc - kMinDoc + 1)));
  }
  return docs;
}

// Host time spent staging documents and inside Enter/Resume (traced reps).
struct OsTimes {
  double stage_s = 0.0;
  double enter_s = 0.0;
};

// Hashes `doc` in enclave `e`; false on a wrong digest or a failed Enter.
bool HashOne(os::World& world, const os::EnclaveHandle& e, const Doc& doc, OsTimes* times) {
  const Clock::time_point t0 = Clock::now();
  const word nblocks = enclave::StageSha256Message(world.os, e.shared_insecure_pgnr, doc.bytes);
  const Clock::time_point t1 = Clock::now();
  os::EnterResult r = world.os.Enter(e.thread, nblocks);
  while (r.interrupted()) {
    r = world.os.Resume(e.thread);
  }
  if (times != nullptr) {
    times->stage_s += std::chrono::duration<double>(t1 - t0).count();
    times->enter_s += SecondsSince(t1);
  }
  return r.exited() &&
         enclave::ReadSha256Digest(world.os, e.shared_insecure_pgnr) == doc.expected;
}

struct RepResult {
  RepTiming timing;
  uint64_t failed = 0;
  MachineCounters delta;
  Metrics layers;
};

// A world with the four enclaves built and each warmed up by one Enter.
struct ShaWorld {
  os::World world;
  std::vector<os::EnclaveHandle> enclaves;
};

std::unique_ptr<ShaWorld> SetUp(const Doc& warmup, Report& report) {
  auto w = std::make_unique<ShaWorld>();
  for (size_t i = 0; i < kEnclaves; ++i) {
    auto built = w->world.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
    if (!built.ok()) {
      report.Fail("SHA-256 enclave build failed");
      return nullptr;
    }
    w->enclaves.push_back(*std::move(built));
    if (!HashOne(w->world, w->enclaves.back(), warmup, nullptr)) {
      report.Fail("warm-up digest mismatch");
    }
  }
  return w;
}

RepResult RunRep(const std::vector<Doc>& docs, const Doc& warmup, bool traced, Report& report) {
  RepResult out;
  std::unique_ptr<ShaWorld> w;
  for (int i = 0; i < kSetupsPerRep; ++i) {
    w.reset();
    const Stopwatch setup;
    w = SetUp(warmup, report);
    out.timing.setup_s.push_back(setup.Seconds());
  }
  if (w == nullptr) {
    return out;
  }
  os::World& world = w->world;
  const std::vector<os::EnclaveHandle>& enclaves = w->enclaves;

  if (traced) {
    world.monitor.obs().Enable();
  }
  OsTimes times;
  const MachineCounters m0 = MachineCounters::Read(world.machine);
  const Stopwatch window;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (!HashOne(world, enclaves[i % kEnclaves], docs[i], traced ? &times : nullptr)) {
      ++out.failed;
    }
  }
  out.timing.wall_s = window.Seconds();
  out.delta = MachineCounters::Read(world.machine) - m0;
  out.timing.ops = static_cast<double>(out.delta.steps);
  if (traced) {
    AddMachineLayers(out.layers, out.delta, SmcTimes::Read(world.monitor.obs()));
    out.layers["os.stage_s"] = times.stage_s;
    out.layers["os.enter_s"] = times.enter_s;
    if (times.stage_s + times.enter_s > out.timing.wall_s) {
      report.Fail("os layer times exceed the traced wall time");
    }
  }
  return out;
}

}  // namespace

void RunEnclaveSha(const Options& opts, Report& report) {
  const std::vector<Doc> docs = MakeDocs(opts.seed, kDocsPerRep);
  // The warm-up document has a fixed (the largest) size, so set-up does the
  // same work on every seed.
  Rng warmup_rng(~opts.seed);
  const Doc warmup = MakeDoc(warmup_rng, kMaxDoc);

  std::vector<MachineCounters> deltas;
  std::vector<Metrics> layers;
  const auto run_rep = [&](uint64_t, bool traced) {
    RepResult r = RunRep(docs, warmup, traced, report);
    report.attempted += docs.size();
    report.failed += r.failed;
    deltas.push_back(r.delta);
    if (traced) {
      layers.push_back(r.layers);
    }
    return r.timing;
  };
  const RepSeries series = RunReps(opts, opts.trace ? 4 : 3, run_rep);

  for (const MachineCounters& d : deltas) {
    if (d.steps != deltas.front().steps || d.cycles != deltas.front().cycles) {
      report.Fail("reps of one seed differ in simulated steps or cycles");
    }
  }
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) + " enclave digests differ from SHA-256");
  }
  Info("enclave_steps_per_s", series.OpsPerSecond(), "1/s");
  Info("arm.steps", static_cast<double>(deltas.front().steps), "count");
  Info("core.sim_cycles", static_cast<double>(deltas.front().cycles), "cycles");

  if (!opts.trace) {
    ReportEndToEnd(report, series);
    return;
  }
  for (const auto& [name, value] : MedianOf(layers)) {
    report.Metric(name, value);
  }
  report.Metric("tracing_overhead", series.TracingOverhead());
}

}  // namespace komodo::perfbench
