// Serve-daemon throughput benchmark (DESIGN.md §14): the cost of hosting
// thousands of concurrent enclave sessions over one Komodo world on one
// core, under a secure-page budget small enough that LRU eviction is
// constantly active.
//
// Two phases run the SAME seeded request schedule (hot-set skew: most
// requests hit a small set of popular sessions, the rest spread uniformly —
// the shape that makes both batching and LRU residency matter):
//
//   unbatched       batching off — one world switch per request; the
//                   pre-§8.1-style baseline
//   batched         batching on, same budget — same-session requests
//                   coalesce into one Enter (up to kServeBatchMax)
//
// Eviction churn is not isolated here: the cold tail (1 in 4 requests,
// spread over every session) misses at any budget. perfbench's serve-churn
// and serve-resident workloads separate it.
//
// Per phase: exact p50/p99/mean request latency in simulated cycles
// (sorted per-request samples, not histogram buckets), host-wall req/s,
// world-switches-per-request, eviction/rebuild counts. The batched phase
// must show a measurable world-switch reduction vs unbatched — the bench
// fails if it does not, so the committed artifact can never claim a win
// that stopped reproducing.
//
// Emits BENCH_serve.json (komodo-bench-v1). `--smoke` shrinks the sweep for
// CI but keeps eviction active and still enforces the reduction gate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/server.h"

namespace komodo {
namespace {

using serve::DefaultCatalog;
using serve::RequestId;
using serve::RequestResult;
using serve::Server;
using serve::ServeErr;
using serve::SessionId;

struct Sweep {
  word sessions = 1000;
  word requests = 8000;
  word hot_sessions = 16;  // the skew target: 3 of 4 requests land here
  uint64_t seed = 20260809;
};

struct PhaseResult {
  std::string name;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  double mean = 0.0;
  double wall_seconds = 0.0;
  double req_per_sec = 0.0;
  double switches_per_req = 0.0;
  double mean_batch = 0.0;
  uint64_t world_switches = 0;
  uint64_t evictions = 0;
  uint64_t rebuilds = 0;
};

PhaseResult RunPhase(const std::string& name, const Sweep& sweep, bool batching, word budget) {
  Server::Config config;
  config.nsecure_pages = budget + 16;  // the budget is the binding constraint
  config.secure_page_budget = budget;
  config.queue_capacity = 512;
  config.batching = batching;
  Server server(DefaultCatalog(), config);

  std::vector<SessionId> sids;
  sids.reserve(sweep.sessions);
  for (word i = 0; i < sweep.sessions; ++i) {
    auto sid = server.CreateSession(i % 2 == 0 ? "counter" : "echo");
    if (!sid.ok()) {
      std::fprintf(stderr, "bench_serve: CreateSession failed in %s\n", name.c_str());
      std::abort();
    }
    sids.push_back(*sid);
  }

  uint64_t x = sweep.seed;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  std::vector<RequestId> rids;
  rids.reserve(sweep.requests);
  const auto wall_start = std::chrono::steady_clock::now();
  for (word i = 0; i < sweep.requests; ++i) {
    const uint64_t r = rnd();
    const SessionId sid = (r % 4 != 0) ? sids[r % sweep.hot_sessions]
                                       : sids[rnd() % sids.size()];
    auto rid = server.Submit(sid, static_cast<word>(rnd() % 997));
    while (!rid.ok() && rid.error() == ServeErr::kQueueFull) {
      server.PumpOne();
      rid = server.Submit(sid, static_cast<word>(rnd() % 997));
    }
    if (!rid.ok()) {
      std::fprintf(stderr, "bench_serve: Submit failed in %s\n", name.c_str());
      std::abort();
    }
    rids.push_back(*rid);
  }
  server.Drain();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;

  std::vector<uint64_t> latencies;
  latencies.reserve(rids.size());
  for (const RequestId rid : rids) {
    const RequestResult* r = server.Poll(rid);
    if (r == nullptr || !r->ok) {
      std::fprintf(stderr, "bench_serve: request %u did not complete ok in %s\n", rid,
                   name.c_str());
      std::abort();
    }
    latencies.push_back(r->latency_cycles);
  }
  std::sort(latencies.begin(), latencies.end());

  const auto& st = server.stats();
  PhaseResult out;
  out.name = name;
  out.p50 = latencies[latencies.size() / 2];
  out.p99 = latencies[latencies.size() * 99 / 100];
  double sum = 0.0;
  for (const uint64_t l : latencies) {
    sum += static_cast<double>(l);
  }
  out.mean = sum / static_cast<double>(latencies.size());
  out.wall_seconds = wall.count();
  out.req_per_sec =
      wall.count() > 0 ? static_cast<double>(st.requests_completed) / wall.count() : 0.0;
  out.switches_per_req = static_cast<double>(st.world_switches) /
                         static_cast<double>(st.requests_completed);
  out.mean_batch = st.batches > 0
                       ? static_cast<double>(st.batched_requests) / static_cast<double>(st.batches)
                       : 0.0;
  out.world_switches = st.world_switches;
  out.evictions = st.evictions;
  out.rebuilds = st.rebuilds;
  return out;
}

}  // namespace
}  // namespace komodo

int main(int argc, char** argv) {
  using komodo::PhaseResult;
  using komodo::RunPhase;
  using komodo::Sweep;
  using komodo::word;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  Sweep sweep;
  if (smoke) {
    sweep.sessions = 64;
    sweep.requests = 400;
    sweep.hot_sessions = 8;
  }
  // 7 secure pages per catalog enclave: the budget keeps ~10 of the sweep's
  // sessions resident, so most cold requests pay an evict+rebuild.
  const word budget = 70;

  std::vector<PhaseResult> phases;
  phases.push_back(RunPhase("unbatched", sweep, /*batching=*/false, budget));
  phases.push_back(RunPhase("batched", sweep, /*batching=*/true, budget));

  std::printf("\n=== serve daemon sweep (%u sessions, %u requests, hot set %u) ===\n",
              sweep.sessions, sweep.requests, sweep.hot_sessions);
  std::printf("%-16s %12s %12s %12s %10s %8s %10s %10s\n", "phase", "p50 (cyc)", "p99 (cyc)",
              "req/s", "switch/req", "batch", "evictions", "rebuilds");
  for (const PhaseResult& p : phases) {
    std::printf("%-16s %12llu %12llu %12.1f %10.3f %8.2f %10llu %10llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.p50), static_cast<unsigned long long>(p.p99),
                p.req_per_sec, p.switches_per_req, p.mean_batch,
                static_cast<unsigned long long>(p.evictions),
                static_cast<unsigned long long>(p.rebuilds));
  }

  const PhaseResult& unbatched = phases[0];
  const PhaseResult& batched = phases[1];
  const double reduction = batched.switches_per_req > 0
                               ? unbatched.switches_per_req / batched.switches_per_req
                               : 0.0;
  std::printf("\nbatching world-switch reduction: %.2fx (%.3f -> %.3f switches/request)\n",
              reduction, unbatched.switches_per_req, batched.switches_per_req);

  komodo::bench::BenchJson json("bench_serve");
  json.Config("smoke", smoke);
  json.Config("seed", sweep.seed);
  json.Config("sessions", sweep.sessions);
  json.Config("requests", sweep.requests);
  json.Config("hot_sessions", sweep.hot_sessions);
  json.Config("budget_pages", budget);
  json.Config("queue_capacity", 512);
  for (const PhaseResult& p : phases) {
    json.Result(p.name, "p50_latency", static_cast<double>(p.p50), "cycles");
    json.Result(p.name, "p99_latency", static_cast<double>(p.p99), "cycles");
    json.Result(p.name, "mean_latency", p.mean, "cycles");
    json.Result(p.name, "wall_seconds", p.wall_seconds, "s");
    json.Result(p.name, "requests_per_sec", p.req_per_sec, "req/s");
    json.Result(p.name, "world_switches_per_request", p.switches_per_req, "switches/req");
    json.Result(p.name, "mean_batch_size", p.mean_batch, "requests");
    json.Result(p.name, "world_switches", static_cast<double>(p.world_switches), "switches");
    json.Result(p.name, "evictions", static_cast<double>(p.evictions), "evictions");
    json.Result(p.name, "rebuilds", static_cast<double>(p.rebuilds), "rebuilds");
  }
  json.Result("batching", "world_switch_reduction", reduction, "x");

  const char* path = "BENCH_serve.json";
  if (!json.Write(path)) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path);
    return 1;
  }

  // The claim the artifact exists to make: batching measurably reduces
  // world switches on the identical request schedule.
  if (batched.switches_per_req >= unbatched.switches_per_req) {
    std::fprintf(stderr, "bench_serve: batching showed no world-switch reduction\n");
    return 1;
  }
  if (batched.evictions == 0 || unbatched.evictions == 0) {
    std::fprintf(stderr, "bench_serve: budget did not force eviction; sweep is not stressing"
                         " residency\n");
    return 1;
  }
  return 0;
}
