// Fuzzing campaign driver (DESIGN.md §10, §11, §15): generates traces from a
// master seed, runs each through its oracle, and reports the canonically
// first failure with both the original and the shrunk witness.
//
// One round loop runs both modes. Each round splits every oracle's work into
// `shards` deterministically seeded shards ((seed, shard) -> an independent
// trace-seed stream), executed by `jobs` worker threads each owning a
// snapshot-reset WorldPool; a per-(oracle, shard) call ledger gives each
// shard its share of the budget. Every shard keeps its own SHA-256 over the
// traces it generated and the verdicts it saw; the campaign hash folds the
// per-shard digests in canonical (round, oracle, shard) order, so it is
// byte-identical for any `jobs` — including jobs=1 — and changes only with
// the options that define the work (seed, calls, trace_len, oracle set,
// inject, shards, and evolve's rounds and max_corpus). Timing never enters
// the hash.
//
// A failing shard stops its round at its first failure; all other shards
// still run to completion, so the hash stays a pure function of the options.
// The reported failure is the canonically first one (lowest round, then
// oracle, then shard), not whichever worker happened to hit one first.
//
// A blind campaign is the one-round case: fresh traces from the master
// seed's shard streams, hashed under the v2 header. Evolve mode (DESIGN.md
// §15) runs `rounds` rounds, each from its own EvolveRoundSeed, and every
// shard draws fresh traces or deterministic mutations of the round-start
// corpus snapshot and measures each trace's coverage (PageDb shapes, obs
// events, interp/JIT residency). Shards never share mid-round state;
// discoveries merge at the round barrier in canonical task order, which
// keeps coverage, corpus and the v3 campaign hash jobs-invariant. Every
// corpus entry is a replayable `komodo-fuzz-trace v1`.
#ifndef SRC_FUZZ_CAMPAIGN_H_
#define SRC_FUZZ_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fuzz/corpus.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/shrink.h"
#include "src/fuzz/trace.h"

namespace komodo::fuzz {

enum class CampaignMode {
  kBlind,   // one round of fresh traces, no corpus (v2 hash)
  kEvolve,  // coverage-guided corpus evolution over `rounds` rounds (v3 hash)
};

struct CampaignOptions {
  uint64_t seed = 1;
  uint64_t calls = 10'000;       // monitor-call budget per oracle
  size_t trace_len = 150;        // ops per generated trace
  std::vector<std::string> oracles;  // empty = all four
  std::string inject;            // fault injection applied to every trace
  bool shrink = true;            // minimize the canonically first failure
  int jobs = 1;                  // worker threads; <= 0 = hardware concurrency
  uint32_t shards = 16;          // work split per oracle; part of the hash domain
  CampaignMode mode = CampaignMode::kBlind;
  // Evolve-mode knobs (all in the v3 hash domain):
  uint32_t rounds = 4;           // corpus generations the call budget splits over
  size_t max_corpus = 256;       // per-oracle corpus cap (deterministic eviction)
  // Blind mode: also measure coverage (counted in stats, NEVER hashed — the
  // v2 hash stays byte-identical with or without it). The evolve-vs-blind
  // bench comparison uses this for an equal-budget coverage baseline.
  bool measure_coverage = false;
  std::string corpus_dir;        // evolve: save the final corpus here ("" = don't)
};

struct OracleStats {
  std::string oracle;
  uint64_t traces = 0;
  uint64_t calls = 0;    // monitor calls executed (pokes excluded)
  // Timing is informational and never part of the campaign hash:
  // `seconds` is wall clock from campaign start until the oracle's last
  // shard completed (shards of different oracles interleave under
  // parallelism, so per-oracle wall times overlap and do not sum to the
  // campaign wall time); `cpu_seconds` is the summed per-shard thread CPU
  // time, the comparable "work done" figure at any jobs count.
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  // Coverage accounting (evolve mode, or blind with measure_coverage):
  uint64_t coverage_keys = 0;    // distinct keys this oracle reached
  uint64_t corpus_entries = 0;   // final corpus size (evolve only)
};

struct CampaignResult {
  bool failed = false;
  Trace original;       // the canonically first failing trace (valid iff failed)
  Trace witness;        // the shrunk reproducer (== original if !shrink)
  Verdict verdict;      // of the original failure
  ShrinkStats shrink;   // filled when a failure was minimized
  std::string hash;     // SHA-256 folding all per-shard digests (determinism pin)
  std::vector<OracleStats> stats;
  double wall_seconds = 0.0;      // whole-campaign wall clock (not hashed)
  // World-pool effectiveness across all workers (not hashed).
  uint64_t worlds_built = 0;      // fresh World constructions
  uint64_t worlds_reused = 0;     // snapshot-resets of a pooled world
  uint64_t pages_restored = 0;    // dirty pages rewritten by those resets
  // Coverage results (evolve mode, or blind with measure_coverage):
  uint64_t coverage_keys = 0;     // summed distinct keys across oracles
  // Cumulative coverage_keys after each evolve round (the growth curve).
  std::vector<uint64_t> coverage_curve;
  // Final per-oracle corpora, aligned with `stats` (evolve mode only).
  std::vector<Corpus> corpora;
};

// The k-th trace seed of shard `shard` under master seed `seed`: shard
// streams are splitmix64-decorrelated so neighbouring master seeds and
// neighbouring shards share no traces. Exposed so tests and tools can
// regenerate any shard's stream without a campaign.
uint64_t ShardTraceSeed(uint64_t seed, uint32_t shard, uint64_t k);

// The master seed of evolve round `round` under campaign seed `seed`; shard
// streams within a round come from ShardTraceSeed(EvolveRoundSeed(...), ...).
// Round streams are decorrelated the same way shard streams are.
uint64_t EvolveRoundSeed(uint64_t seed, uint32_t round);

// Runs the campaign. `log`, when given, receives one progress line per
// completed oracle and on failure; it is only ever invoked from the calling
// thread.
CampaignResult RunCampaign(const CampaignOptions& opts,
                           const std::function<void(const std::string&)>& log = {});

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_CAMPAIGN_H_
