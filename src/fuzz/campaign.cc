#include "src/fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "src/crypto/sha256.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/mutate.h"
#include "src/fuzz/pool.h"

namespace komodo::fuzz {

namespace {

void HashString(crypto::Sha256& h, const std::string& s) {
  h.Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string VerdictLine(const Verdict& v) {
  std::ostringstream out;
  out << "failed=" << (v.failed ? 1 : 0) << " op=" << v.failing_op << " " << v.detail << "\n";
  return out.str();
}

// CPU time of the calling thread — the per-shard cost figure that stays
// comparable whether shards timeslice one core or spread over eight.
double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

using Clock = std::chrono::steady_clock;

// One (oracle, shard) work unit of a round; tasks are indexed in canonical
// order (oracle-major, shard-minor), which is also the hash-merge order.
struct ShardTask {
  size_t oracle_idx = 0;
  uint32_t shard = 0;
  uint64_t call_budget = 0;
};

struct ShardFailure {
  Trace trace;
  Verdict verdict;
};

// A trace that discovered coverage its shard had not seen: carried to the
// round barrier with its full key set, so the canonical merge can recompute
// the gain against the true global map.
struct Discovery {
  Trace trace;
  CoverageMap keys;
};

struct ShardOutcome {
  uint64_t traces = 0;
  uint64_t calls = 0;
  double cpu_seconds = 0.0;
  double done_at = 0.0;  // wall seconds since campaign start at completion
  std::string digest;    // SHA-256 hex over this shard's traces + verdicts
  std::optional<ShardFailure> failure;
  std::vector<Discovery> discoveries;  // local-gain traces, in stream order
};

// Runs one shard of one round to its call budget (or its first failure),
// hashing every trace and verdict into the shard digest. Candidates come
// from the shard's seed stream: a fresh trace while the corpus is empty
// (always, in blind mode, which admits nothing) or on a deterministic 1/8
// refresh draw, otherwise a mutation of the round-start corpus snapshot.
// When coverage is measured, gains are measured against a shard-local copy
// of the round-start coverage (plus the shard's own discoveries), so the
// shard never reads shared state; every local discovery travels to the
// barrier with its full key set. An evolve digest additionally pins each
// run's coverage size and local gain; a blind digest never sees coverage, so
// the v2 hash is byte-identical with measure_coverage on or off.
ShardOutcome RunShard(const CampaignOptions& opts, const std::string& oracle,
                      const ShardTask& task, uint32_t round, const CoverageMap& snapshot,
                      const std::vector<const Trace*>& parents, WorldPool& pool,
                      Clock::time_point campaign_start) {
  ShardOutcome out;
  const bool evolve = opts.mode == CampaignMode::kEvolve;
  const bool measure = evolve || opts.measure_coverage;
  const double cpu_begin = ThreadCpuSeconds();
  crypto::Sha256 hash;
  CoverageMap seen = snapshot;
  const uint64_t round_seed = evolve ? EvolveRoundSeed(opts.seed, round) : opts.seed;
  for (uint64_t k = 0; out.calls < task.call_budget; ++k) {
    const uint64_t trace_seed = ShardTraceSeed(round_seed, task.shard, k);
    Trace t;
    if (parents.empty() || SplitMix64(trace_seed ^ 0x65766f6c76653a31ull) % 8 == 0) {
      t = GenerateTrace(oracle, trace_seed, opts.trace_len);
    } else {
      // Mutations may grow past the base length, doubling the cap each
      // round: extensions of already-interesting traces buy *depth* —
      // structural features (refcounts, table fill, page populations) a
      // fresh trace of trace_len ops can never produce. Shallow coverage
      // saturates within the first round, so later rounds spend their calls
      // where the marginal novelty is: deeper in the state space. The cap
      // compounds exponentially because an extension replays its parent as
      // a prefix — linear growth would spend most of the budget
      // re-executing known ops, exponential growth keeps the replayed
      // prefix a constant fraction of each lineage. The cap is additionally
      // clamped so one mutant cannot dwarf the cell's remaining call budget
      // (roughly half of a trace's ops are calls): unbounded depth at small
      // budgets makes evolve overshoot blind's executed calls by 50%+, which
      // would invalidate the equal-budget comparison.
      const uint64_t remaining = task.call_budget - out.calls;
      const size_t cap = std::min<size_t>(opts.trace_len << std::min(round, 3u),
                                          std::max<uint64_t>(opts.trace_len, 2 * remaining));
      t = MutateTrace(parents, trace_seed, cap);
    }
    t.inject = opts.inject;
    CoverageMap got;
    const Verdict v = RunTrace(t, /*apply_inject=*/true, &pool, measure ? &got : nullptr);
    ++out.traces;
    out.calls += t.CallCount();
    const size_t gain = seen.Merge(got);
    HashString(hash, t.Format());
    HashString(hash, VerdictLine(v));
    if (evolve) {
      std::ostringstream cover_line;
      cover_line << "cover total=" << got.size() << " new=" << gain << "\n";
      HashString(hash, cover_line.str());
    }
    if (v.failed) {
      out.failure = ShardFailure{std::move(t), v};
      break;
    }
    if (gain > 0) {
      out.discoveries.push_back({std::move(t), std::move(got)});
    }
  }
  out.digest = crypto::DigestToHex(hash.Finalize());
  out.cpu_seconds = ThreadCpuSeconds() - cpu_begin;
  out.done_at = std::chrono::duration<double>(Clock::now() - campaign_start).count();
  return out;
}

// Shrinks and reports the canonically first failure.
void ReportFailure(const CampaignOptions& opts, const ShardFailure& failure,
                   const std::function<void(const std::string&)>& log, CampaignResult& result) {
  result.failed = true;
  result.original = failure.trace;
  result.verdict = failure.verdict;
  if (log) {
    std::ostringstream out;
    out << "FAIL oracle=" << result.original.oracle << " trace-seed=" << result.original.seed
        << " " << result.verdict.detail;
    log(out.str());
  }
  if (opts.shrink) {
    WorldPool shrink_pool;
    result.witness = ShrinkTrace(
        result.original, [&](const Trace& c) { return RunTrace(c, true, &shrink_pool); },
        &result.shrink);
    if (log) {
      std::ostringstream out;
      out << "shrunk " << result.shrink.ops_before << " -> " << result.shrink.ops_after
          << " ops (" << result.witness.CallCount() << " calls, " << result.shrink.evaluations
          << " oracle runs)";
      log(out.str());
    }
  } else {
    result.witness = result.original;
  }
}

}  // namespace

uint64_t ShardTraceSeed(uint64_t seed, uint32_t shard, uint64_t k) {
  // Diffuse the shard index through splitmix64 before mixing in the per-trace
  // counter: shard streams stay disjoint even for adjacent master seeds, and
  // the k-increment cannot walk one shard's stream into another's.
  return SplitMix64(SplitMix64(seed ^ (0x9e3779b97f4a7c15ull * (shard + 1))) + k);
}

uint64_t EvolveRoundSeed(uint64_t seed, uint32_t round) {
  return SplitMix64(seed ^ (0xa0761d6478bd642full * (round + 1)));
}

// One round loop serves both modes: a blind campaign is the one-round case.
// All shared state (per-oracle coverage map + corpus) is read-only during a
// round and advances only at the round barrier, in canonical task order —
// the determinism argument is in DESIGN.md §11 and §15.
CampaignResult RunCampaign(const CampaignOptions& opts,
                           const std::function<void(const std::string&)>& log) {
  CampaignResult result;
  const Clock::time_point start = Clock::now();
  const bool evolve = opts.mode == CampaignMode::kEvolve;
  const std::vector<std::string> oracles = opts.oracles.empty() ? OracleNames() : opts.oracles;
  const uint32_t shards = std::max(1u, opts.shards);
  const uint32_t rounds = evolve ? std::max(1u, opts.rounds) : 1;

  crypto::Sha256 hash;
  {
    std::ostringstream header;
    header << "komodo-fuzz-campaign-hash ";
    if (evolve) {
      header << "v3 mode=evolve shards=" << shards << " rounds=" << rounds
             << " max-corpus=" << opts.max_corpus << "\n";
    } else {
      header << "v2 shards=" << shards << "\n";
    }
    HashString(hash, header.str());
  }

  std::vector<ShardTask> tasks;
  result.stats.resize(oracles.size());
  for (size_t o = 0; o < oracles.size(); ++o) {
    result.stats[o].oracle = oracles[o];
    for (uint32_t s = 0; s < shards; ++s) {
      tasks.push_back({o, s, 0});
    }
  }
  std::vector<CoverageMap> cover(oracles.size());
  std::vector<Corpus> corpora(oracles.size());
  std::vector<uint64_t> next_seq(oracles.size(), 0);
  std::optional<ShardFailure> first_failure;

  const unsigned jobs = opts.jobs > 0 ? static_cast<unsigned>(opts.jobs)
                                      : std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<WorldPool>> pools(std::min<size_t>(jobs, tasks.size()));
  for (auto& p : pools) {
    p = std::make_unique<WorldPool>();
  }

  // Per-(oracle, shard) call ledger, the only budget split. Each shard owns
  // calls/shards of its oracle's budget, remainder to the low indices, so the
  // split — and thus the hash — depends only on (calls, shards); round r lets
  // it spend up to the cumulative target total·(r+1)/rounds. A shard whose
  // last trace overshot one round's allowance runs correspondingly less in
  // the next, so a shard overshoots its *total* budget by at most one trace
  // in either mode, and equal --calls means equal executed calls (evolve is
  // never gifted extra budget by its round structure). (The uniform split
  // beats front- or back-loaded schedules empirically: later rounds need
  // depth budget, but shallow breadth keys come from fresh trace diversity,
  // which every round must keep contributing.)
  std::vector<uint64_t> spent(tasks.size(), 0);
  for (uint32_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      const uint32_t s = tasks[i].shard;
      const uint64_t target = (opts.calls / shards + (s < opts.calls % shards ? 1 : 0)) *
                              (r + 1) / rounds;
      tasks[i].call_budget = target > spent[i] ? target - spent[i] : 0;
    }
    // Round-start snapshots: shards read these, never the live maps.
    std::vector<std::vector<const Trace*>> parents(oracles.size());
    for (size_t o = 0; o < oracles.size(); ++o) {
      parents[o] = corpora[o].Traces();
    }
    // One worker thread per pool claims tasks off a counter. Pools persist
    // across rounds so pooled worlds stay warm; pools[w] is only ever touched
    // by worker w, and successive rounds hand a pool to its next worker
    // through thread join/spawn (a synchronization point), so every pool —
    // and the worlds, monitors and tracers inside — stays effectively
    // thread-confined.
    std::vector<ShardOutcome> outcomes(tasks.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (const std::unique_ptr<WorldPool>& pool : pools) {
      workers.emplace_back([&, p = pool.get()]() {
        for (size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
          const size_t o = tasks[i].oracle_idx;
          outcomes[i] = RunShard(opts, oracles[o], tasks[i], r, cover[o], parents[o], *p, start);
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }

    // Round barrier: canonical merge into per-oracle stats, the campaign
    // hash and the first failure in (round, task) order. Recomputing each
    // discovery's gain against the true global map (updated as we go, in
    // task order) makes coverage and the admitted corpus independent of
    // which worker ran which shard; a failing trace is never a discovery.
    const std::string line_prefix = evolve ? "round=" + std::to_string(r) + " " : "";
    for (size_t i = 0; i < tasks.size(); ++i) {
      const size_t o = tasks[i].oracle_idx;
      ShardOutcome& out = outcomes[i];
      OracleStats& st = result.stats[o];
      st.traces += out.traces;
      st.calls += out.calls;
      st.cpu_seconds += out.cpu_seconds;
      st.seconds = std::max(st.seconds, out.done_at);
      std::ostringstream line;
      line << line_prefix << "oracle=" << oracles[o] << " shard=" << tasks[i].shard
           << " traces=" << out.traces << " calls=" << out.calls << " digest=" << out.digest
           << "\n";
      HashString(hash, line.str());
      spent[i] += out.calls;
      if (!first_failure.has_value() && out.failure.has_value()) {
        first_failure = std::move(out.failure);
      }
      for (Discovery& d : out.discoveries) {
        const size_t gain = cover[o].Merge(d.keys);
        if (evolve && gain > 0) {
          corpora[o].Add(std::move(d.trace), gain, r, next_seq[o]++);
        }
      }
    }
    if (evolve) {
      uint64_t total_cover = 0;
      uint64_t total_corpus = 0;
      for (size_t o = 0; o < oracles.size(); ++o) {
        corpora[o].Trim(opts.max_corpus);
        total_cover += cover[o].size();
        total_corpus += corpora[o].size();
      }
      result.coverage_curve.push_back(total_cover);
      if (log) {
        std::ostringstream out;
        out << "evolve round " << r << ": coverage-keys=" << total_cover
            << " corpus=" << total_corpus;
        log(out.str());
      }
    }
  }

  // Evolve's final corpus + coverage lines pin the evolved state in the hash.
  for (size_t o = 0; o < oracles.size(); ++o) {
    result.stats[o].coverage_keys = cover[o].size();
    result.stats[o].corpus_entries = corpora[o].size();
    result.coverage_keys += cover[o].size();
    if (evolve) {
      std::ostringstream line;
      line << "oracle=" << oracles[o] << " corpus=" << corpora[o].size()
           << " coverage-keys=" << cover[o].size() << " corpus-digest=" << corpora[o].Digest()
           << " coverage-digest=" << cover[o].Digest() << "\n";
      HashString(hash, line.str());
    }
  }
  result.hash = crypto::DigestToHex(hash.Finalize());

  for (const auto& p : pools) {
    result.worlds_built += p->stats().constructions;
    result.worlds_reused += p->stats().resets;
    result.pages_restored += p->stats().pages_restored;
  }

  if (log) {
    for (const OracleStats& st : result.stats) {
      std::ostringstream out;
      out << "oracle " << st.oracle << ": " << st.calls << " calls in " << st.traces
          << " traces, " << st.cpu_seconds << "s cpu";
      if (evolve) {
        out << ", coverage-keys=" << st.coverage_keys << " corpus=" << st.corpus_entries;
      }
      log(out.str());
    }
  }

  if (evolve) {
    if (!opts.corpus_dir.empty()) {
      for (size_t o = 0; o < oracles.size(); ++o) {
        if (!corpora[o].SaveDir(opts.corpus_dir + "/" + oracles[o]) && log) {
          log("evolve: cannot write corpus under " + opts.corpus_dir + "/" + oracles[o]);
        }
      }
    }
    result.corpora = std::move(corpora);
  }

  if (first_failure.has_value()) {
    ReportFailure(opts, *first_failure, log, result);
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace komodo::fuzz
