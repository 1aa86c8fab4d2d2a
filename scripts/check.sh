#!/usr/bin/env bash
# Pre-merge gate: tier-1 build + tests, ASan+UBSan and TSan builds of the
# fuzz and verify paths, the komodo-lint static analysis of every shipped
# enclave program, the komodo-verify exhaustive small-world, 6-page and
# 7-page closures at their pinned hashes, and a short run of every perfbench
# workload. Any failure — including a single lint finding — fails the script.
#
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."

# Runs a command that must exit with status $1, its stderr discarded and its
# stdout left to the caller; fails the gate with the command line otherwise.
expect_exit() {
  local want="$1" rc=0
  shift
  "$@" 2>/dev/null || rc=$?
  if [[ "$rc" != "$want" ]]; then
    echo "expected exit $want, got $rc: $*" >&2
    exit 1
  fi
}

# Prefer Ninja for fresh build trees; an already-configured tree keeps
# whatever generator it was created with.
generator_for() {
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_SANITIZERS=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== [1/13] tier-1: configure + build ==="
# Warnings are errors here (CMake >= 3.24), so a new warning fails the gate.
cmake -B build -S . $(generator_for build) -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$JOBS"

echo "=== [2/13] tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [3/13] tier-1: ctest on the uncached interpreter ==="
# One setting picks a machine's engine (arm::ExecMode): the block JIT over the
# interpreter caches where the host supports it (DESIGN.md §13), which the
# plain run above used. The fast paths must be architecturally invisible, so
# the whole suite has to pass on the slower engines too.
# KOMODO_INTERP_CACHE=off selects the uncached interpreter, the executable
# model (the JIT runs over the caches, so it is off as well).
KOMODO_INTERP_CACHE=off ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [3b/13] tier-1: ctest on the cached interpreter ==="
# KOMODO_JIT=off selects the interpreter with its caches (DESIGN.md §8).
KOMODO_JIT=off ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [4/13] tier-1: ctest with tracing enabled ==="
# The tracer (DESIGN.md §9) must be architecturally invisible too: the whole
# suite — including the cycle-regression test — has to pass with every
# monitor tracing into a live ring buffer.
KOMODO_TRACE=on ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [5/13] bench smoke (cached/uncached invisibility check) ==="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "=== [6/13] bench/trace JSON artifacts validate ==="
# The bench-smoke runs above emitted komodo-bench-v1 / komodo-metrics-v1 /
# chrome-trace artifacts into build/bench; a drifting emitter fails here.
./build/tools/komodo-benchjson build/bench/BENCH_*.json \
  build/bench/METRICS_fig5_notary.json
./build/tools/komodo-benchjson --schema chrome build/bench/TRACE_fig5_notary.json
# Some artifacts are also held to their committed copies. Table 3's and
# Fig. 5's simulated numbers are the modelled machine and must not move at
# all, and neither may the Fig. 5 notary trace, apart from its host wall-clock
# fields; Table 2's src/core row is the monitor (the TCB), which must not grow.
python3 - <<'EOF'
import json, sys
def rows(path, metric):
    return {r["name"]: r["value"] for r in json.load(open(path))["results"] if r["metric"] == metric}
def without_wall_ns(v):
    if isinstance(v, dict):
        return {k: 0 if k == "wall_ns" else without_wall_ns(x) for k, x in v.items()}
    if isinstance(v, list):
        return [without_wall_ns(x) for x in v]
    return v
if rows("build/bench/BENCH_table3.json", "sim_cycles") != rows("BENCH_table3.json", "sim_cycles"):
    sys.exit("BENCH_table3.json: sim_cycles differ from the committed artifact")
for metric in ("enclave_ms", "native_ms"):
    if rows("build/bench/BENCH_fig5_notary.json", metric) != rows("BENCH_fig5_notary.json", metric):
        sys.exit(f"BENCH_fig5_notary.json: {metric} differ from the committed artifact")
trace = [without_wall_ns(json.load(open(p)))
         for p in ("build/bench/TRACE_fig5_notary.json", "TRACE_fig5_notary.json")]
if trace[0] != trace[1]:
    sys.exit("TRACE_fig5_notary.json: differs from the committed trace beyond wall_ns")
core = rows("build/bench/BENCH_table2.json", "code_lines")["src/core"]
limit = rows("BENCH_table2.json", "code_lines")["src/core"]
if core > limit:
    sys.exit(f"src/core grew to {core:.0f} code lines (committed BENCH_table2.json: {limit:.0f})")
EOF

echo "=== [7/13] komodo-serve: daemon smoke (batching, eviction, line protocol) ==="
# The scripted demo exercises batched submission, a typed timeout and an
# eviction/rebuild, and exits nonzero if any expectation fails. The stdin
# leg drives the line protocol end to end and must produce exactly the
# expected transcript. Both metrics documents must validate, including the
# embedded "serve" section.
./build/tools/komodo-serve --demo --metrics-out build/serve-demo-metrics.json \
  > build/serve-demo.out
printf 'create counter\nsubmit 1 5\nsubmit 1 6\nwait 2\ndestroy 1\nquit\n' \
  | ./build/tools/komodo-serve --stdin --metrics-out build/serve-stdin-metrics.json \
  > build/serve-stdin.out
printf 'session 1\nrequest 1\nrequest 2\nresult 2 ok 11\ndestroyed 1 dropped 0\nwrote build/serve-stdin-metrics.json\n' \
  | cmp - build/serve-stdin.out \
  || { echo "komodo-serve: stdin transcript drifted" >&2; exit 1; }
./build/tools/komodo-benchjson build/serve-demo-metrics.json build/serve-stdin-metrics.json
# Seeded load generator must be deterministic: same seed, same stdout, and
# that stdout pinned, so a scheduler or LRU change that picks another victim
# fails here. Re-pin when a change to serve scheduling is *intended*.
SERVE_LOAD_SHA256=1e7cf0dd2b049055ffd6a228363e163b8c93ca00f2548ef1f575c98dd28aa690
./build/tools/komodo-serve --load --sessions 40 --requests 400 --budget 28 \
  > build/serve-load-1.out
./build/tools/komodo-serve --load --sessions 40 --requests 400 --budget 28 \
  > build/serve-load-2.out
cmp build/serve-load-1.out build/serve-load-2.out \
  || { echo "komodo-serve: nondeterministic load run" >&2; exit 1; }
echo "${SERVE_LOAD_SHA256}  build/serve-load-1.out" | sha256sum --check --quiet - \
  || { echo "komodo-serve: load transcript drifted from the pinned sha256" >&2; exit 1; }
# Results live in a ring of 65,536 request slots (DESIGN.md §14), so memory
# stays bounded however long the daemon runs: 700,000 requests, run twice
# with identical stdout, may peak at no more than 1.25x a 140,000-request run,
# which fills the ring too. The peaks are the daemon's own, read through wait4
# by a small C parent: a Python parent's ~13 MB would carry into the child's
# ru_maxrss across fork and exec, and hide a leak of up to that size.
cc -O2 -o build/peak_rss scripts/peak_rss.c
base_kb=$(./build/peak_rss build/serve-load-base.out ./build/tools/komodo-serve --load \
  --sessions 16 --requests 140000 --budget 140)
for i in 1 2; do
  big_kb=$(./build/peak_rss "build/serve-load-long-$i.out" ./build/tools/komodo-serve --load \
    --sessions 16 --requests 700000 --budget 140)
  if (( big_kb * 4 > base_kb * 5 )); then
    echo "komodo-serve: 700,000 requests peaked at ${big_kb} kB, over 1.25x the" \
      "140,000-request run's ${base_kb} kB" >&2
    exit 1
  fi
done
cmp build/serve-load-long-1.out build/serve-load-long-2.out \
  || { echo "komodo-serve: nondeterministic 700,000-request load run" >&2; exit 1; }

echo "=== [8/13] komodo-lint: shipped programs + fixtures ==="
./build/tools/komodo-lint --check-shipped
./build/tools/komodo-lint --check-fixtures

echo "=== [9/13] komodo-verify: exhaustive small-world, 6-page and 7-page closures ==="
# The model checker (DESIGN.md §12) must close the default small world with
# all three obligations holding, byte-identically across runs and job counts
# (workers commit states in queue order), and at the pinned closure hash —
# any drift in the PageDb serialization, the symmetry quotient, or a spec
# guard shows up here before it is merged. Re-pin the hash (and the
# EXPERIMENTS.md table) when a change to the spec or canon serialization is
# *intended*. The whole report is pinned too (VERIFY_SMALL_SHA256): its
# per-call table of vectors, transitions and observed error sets can move
# while the closure stays put.
VERIFY_CLOSURE_HASH=99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31
VERIFY_SMALL_SHA256=0ef6400ade971ab102e5df006dea8a7668af46373b02f2c47225fc8e15b4ae53
./build/tools/komodo-verify --world small \
  --bench-out build/bench/BENCH_verify.json 2>/dev/null > build/verify-small-1.out
./build/tools/komodo-verify --world small 2>/dev/null > build/verify-small-2.out
cmp <(grep -v -e '^wrote ' -e '^$' build/verify-small-1.out) \
    <(grep -v '^$' build/verify-small-2.out) \
  || { echo "komodo-verify: nondeterministic exploration output" >&2; exit 1; }
./build/tools/komodo-verify --world small --jobs 1 2>/dev/null > build/verify-small-jobs1.out
cmp build/verify-small-2.out build/verify-small-jobs1.out \
  || { echo "komodo-verify: --jobs changed the exploration output" >&2; exit 1; }
grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build/verify-small-1.out \
  || { echo "komodo-verify: closure hash drifted from the pinned value" >&2; exit 1; }
echo "${VERIFY_SMALL_SHA256}  build/verify-small-2.out" | sha256sum --check --quiet - \
  || { echo "komodo-verify: small-world report drifted from the pinned sha256" >&2; exit 1; }
./build/tools/komodo-benchjson build/bench/BENCH_verify.json
# The 6-page and 7-page worlds (2 addrspaces) are pinned the same way: their
# counts and closure hashes. At the default --jobs on a 4-vCPU x86-64 VM
# they take ~5 s and ~40 s.
./build/tools/komodo-verify --pages 6 --max-addrspaces 2 2>/dev/null > build/verify-6.out
printf '%s\n' 'states 21517' 'transitions 15325556' 'clipped 2410' \
  'closure-hash eaab469ea56a70cfbceb97ce4b1258876fd40bbf3cdcd30ae99126ac719dea15' PASS \
  | cmp - <(grep -E '^(states|transitions|clipped|closure-hash|PASS)' build/verify-6.out) \
  || { echo "komodo-verify: 6-page closure drifted from the pinned values" >&2; exit 1; }
./build/tools/komodo-verify --pages 7 --max-addrspaces 2 2>/dev/null > build/verify-7.out
printf '%s\n' 'states 129538' 'transitions 117530580' 'clipped 25934' \
  'closure-hash 8287ef3afca952663619b7f00cdfffd6f507aa4c9479c184add5241b3bd1f38f' PASS \
  | cmp - <(grep -E '^(states|transitions|clipped|closure-hash|PASS)' build/verify-7.out) \
  || { echo "komodo-verify: 7-page closure drifted from the pinned values" >&2; exit 1; }
# The injected-failure run the TSan leg compares its 8-worker run against.
expect_exit 1 ./build/tools/komodo-verify --world small --inject remove-skip-refcount \
  --jobs 1 > build/verify-inject-jobs1.out

echo "=== [10/13] komodo-fuzz smoke (fixed seed, all oracles, pinned v2 hash) ==="
# A short fixed-seed campaign per oracle (DESIGN.md §10). Run twice; stdout —
# including the campaign-hash over every generated trace and verdict — must be
# byte-identical, or the fuzzer has lost replayability, and the hash must
# match the pinned value. The interp oracle is a three-way bisimulation
# (uncached / cached / JIT, DESIGN.md §13), so this smoke is also the JIT's
# randomized gate. Re-pin when a change to the generator or an oracle's
# verdicts is *intended*.
FUZZ_SMOKE_HASH=c757d8cefebc445d72864a83b3210a3291a43c449c5f0c637e6b7aef2e809ca1
FUZZ_ARGS=(--seed 20260807 --calls 400 --trace-len 60 --out build)
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" 2>/dev/null > build/fuzz-smoke-1.out
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" 2>/dev/null > build/fuzz-smoke-2.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-2.out \
  || { echo "komodo-fuzz: nondeterministic campaign output" >&2; exit 1; }
grep -q "^campaign-hash ${FUZZ_SMOKE_HASH}\$" build/fuzz-smoke-1.out \
  || { echo "komodo-fuzz: smoke campaign hash drifted from the pinned value" >&2; exit 1; }
# Fresh worlds track no dirty pages, so with --no-reuse every carried memory
# compare takes the generation scan instead of the dirty lists (DESIGN.md
# §10), and the interp oracle's JIT lane stores inline instead of through the
# runtime helper (a pooled world's dirty tracking sends every translated
# store there, DESIGN.md §13): this leg is the only check.sh campaign whose
# JIT lane takes inline stores. The two paths must reach the same verdict on
# every trace.
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" --no-reuse 2>/dev/null > build/fuzz-smoke-fresh.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-fresh.out \
  || { echo "komodo-fuzz: --no-reuse changed the campaign output" >&2; exit 1; }
# 7.5x the smoke's calls per oracle at the default trace length.
FUZZ_WIDE_HASH=f9452d68029e66a079c407a318396b494123ff93d3632cd92f08704677c90f31
./build/tools/komodo-fuzz --seed 1 --calls 3000 --jobs 2 --out build 2>/dev/null \
  > build/fuzz-wide.out
grep -q "^campaign-hash ${FUZZ_WIDE_HASH}\$" build/fuzz-wide.out \
  || { echo "komodo-fuzz: seed-1 3000-call campaign hash drifted from the pinned value" >&2; exit 1; }

echo "=== [11/13] komodo-fuzz parallel determinism (--jobs 1 vs --jobs 8) ==="
# The sharded campaign hash (DESIGN.md §11) is defined to be independent of
# the worker count; serial and 8-way stdout must be byte-identical.
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
  > build/fuzz-smoke-jobs8.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-jobs8.out \
  || { echo "komodo-fuzz: --jobs changed the campaign output" >&2; exit 1; }

echo "=== [12/13] komodo-fuzz evolve smoke (coverage-guided, pinned v3 hash) ==="
# Coverage-guided corpus evolution (DESIGN.md §15) at a pinned config: the v3
# campaign hash covers every trace, verdict, coverage gain and the final
# corpus digests, must match the pinned value, and must be independent of
# --jobs. Re-pin when a change to the generator, mutators or coverage
# features is *intended* (the bench acceptance gate separately requires
# evolve to beat blind coverage at equal budget).
EVOLVE_HASH=6b26c4ccebdfa30ef68914062b305ea3f4e6896d427d3b5792126ac574e4ba9e
EVOLVE_ARGS=(--mode evolve --seed 20260807 --calls 400 --trace-len 30
             --shards 4 --rounds 3 --max-corpus 32 --out build)
./build/tools/komodo-fuzz "${EVOLVE_ARGS[@]}" 2>/dev/null > build/fuzz-evolve-1.out
./build/tools/komodo-fuzz "${EVOLVE_ARGS[@]}" --jobs 8 2>/dev/null \
  > build/fuzz-evolve-jobs8.out
cmp build/fuzz-evolve-1.out build/fuzz-evolve-jobs8.out \
  || { echo "komodo-fuzz: --jobs changed the evolve campaign output" >&2; exit 1; }
grep -q "^campaign-hash ${EVOLVE_HASH}\$" build/fuzz-evolve-1.out \
  || { echo "komodo-fuzz: evolve campaign hash drifted from the pinned value" >&2; exit 1; }
grep "^coverage-curve " build/fuzz-evolve-1.out
# CLI numeric parsing is strict: trailing junk and non-numbers must be
# rejected with a clear error, not silently truncated to a prefix.
if ./build/tools/komodo-fuzz --calls 10x 2>/dev/null; then
  echo "komodo-fuzz: accepted malformed --calls 10x" >&2; exit 1
fi
if ./build/tools/komodo-fuzz --seed abc 2>/dev/null; then
  echo "komodo-fuzz: accepted malformed --seed abc" >&2; exit 1
fi
# Evolve-only flags are a usage error in a blind campaign, not ignored.
expect_exit 2 ./build/tools/komodo-fuzz --seed 1 --calls 10 --rounds 2

echo "=== [13/13] perfbench: every workload correct at two seeds ==="
# The benchmark harness (perfbench/, BENCHMARK.json) checks each workload's
# result, fuzz-blind's campaign hash at the held-out seed among them, so a
# change that moves one fails here and not only in a benchmark run. One
# second per run; the harness builds once, under build/perfbench.
for seed in 1 20261016; do
  for workload in serve-churn serve-resident enclave-sha fuzz-blind verify-small; do
    result=$(CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py --workload "$workload" \
      --seed "$seed" --seconds 1 --trace 0 2>>build/perfbench.log | tail -n 1) || true
    if [[ "$result" != *'"correct": true'* ]]; then
      echo "perfbench: $workload at seed $seed is not correct (build/perfbench.log):" \
        "${result:-no result}" >&2
      exit 1
    fi
  done
done

if [[ "$SKIP_SANITIZERS" == 1 ]]; then
  echo "=== sanitizers: skipped (--skip-sanitizers) ==="
else
  echo "=== ASan+UBSan build + ctest ==="
  cmake -B build-asan -S . $(generator_for build-asan) \
    -DKOMODO_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  echo "=== ASan+UBSan komodo-fuzz smoke ==="
  # The blind smoke at the plain build's config and pinned hash: the oracles
  # read their worlds' extracted PageDbs in place, so a read past a state's
  # lifetime shows here, and a verdict that moves fails the hash.
  ./build-asan/tools/komodo-fuzz --seed 20260807 --calls 400 --trace-len 60 \
    --out build-asan 2>/dev/null > build-asan/fuzz-smoke.out
  grep -q "^campaign-hash ${FUZZ_SMOKE_HASH}\$" build-asan/fuzz-smoke.out \
    || { echo "komodo-fuzz: ASan smoke hash differs from plain build" >&2; exit 1; }
  echo "=== ASan+UBSan komodo-fuzz evolve smoke ==="
  # The mutation/coverage/corpus path under ASan, at the same pinned hash as
  # the plain build: instrumented and plain campaigns must agree byte for
  # byte.
  ./build-asan/tools/komodo-fuzz --mode evolve --seed 20260807 --calls 400 \
    --trace-len 30 --shards 4 --rounds 3 --max-corpus 32 --out build-asan \
    2>/dev/null > build-asan/fuzz-evolve.out
  grep -q "^campaign-hash ${EVOLVE_HASH}\$" build-asan/fuzz-evolve.out \
    || { echo "komodo-fuzz: ASan evolve hash differs from plain build" >&2; exit 1; }

  echo "=== ASan+UBSan komodo-verify small-world closure ==="
  # The instrumented build must reach the same closure: a hash mismatch here
  # means the exploration depends on memory it shouldn't be reading.
  ./build-asan/tools/komodo-verify --world small 2>/dev/null \
    > build-asan/verify-small.out
  grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build-asan/verify-small.out \
    || { echo "komodo-verify: ASan closure hash differs from plain build" >&2; exit 1; }
  echo "${VERIFY_SMALL_SHA256}  build-asan/verify-small.out" | sha256sum --check --quiet - \
    || { echo "komodo-verify: ASan small-world report differs from the pinned sha256" >&2; exit 1; }

  echo "=== TSan komodo-fuzz parallel smoke ==="
  # Thread sanitizer over the parallel campaign: per-worker world pools,
  # thread-local inject flags and the outcome-slot handoff must all be
  # race-free, and the parallel run must still reproduce the serial output,
  # which must carry the plain build's pinned smoke hash.
  cmake -B build-tsan -S . $(generator_for build-tsan) \
    -DKOMODO_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target komodo-fuzz komodo-verify
  TSAN_FUZZ_ARGS=(--seed 20260807 --calls 400 --trace-len 60 --out build-tsan)
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 1 2>/dev/null \
    > build-tsan/fuzz-smoke-serial.out
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
    > build-tsan/fuzz-smoke-jobs8.out
  cmp build-tsan/fuzz-smoke-serial.out build-tsan/fuzz-smoke-jobs8.out \
    || { echo "komodo-fuzz: --jobs changed the campaign output under TSan" >&2; exit 1; }
  grep -q "^campaign-hash ${FUZZ_SMOKE_HASH}\$" build-tsan/fuzz-smoke-serial.out \
    || { echo "komodo-fuzz: TSan smoke hash differs from plain build" >&2; exit 1; }
  echo "=== TSan komodo-fuzz evolve smoke ==="
  # The round barrier under the race detector: each round hands every world
  # pool to a new worker thread, and campaigns run on worker threads even at
  # --jobs 1. Both runs must reach the plain build's pinned hash.
  TSAN_EVOLVE_ARGS=(--mode evolve --seed 20260807 --calls 400 --trace-len 30
                    --shards 4 --rounds 3 --max-corpus 32 --out build-tsan)
  ./build-tsan/tools/komodo-fuzz "${TSAN_EVOLVE_ARGS[@]}" --jobs 1 2>/dev/null \
    > build-tsan/fuzz-evolve-serial.out
  ./build-tsan/tools/komodo-fuzz "${TSAN_EVOLVE_ARGS[@]}" --jobs 8 2>/dev/null \
    > build-tsan/fuzz-evolve-jobs8.out
  cmp build-tsan/fuzz-evolve-serial.out build-tsan/fuzz-evolve-jobs8.out \
    || { echo "komodo-fuzz: --jobs changed the evolve campaign output under TSan" >&2; exit 1; }
  grep -q "^campaign-hash ${EVOLVE_HASH}\$" build-tsan/fuzz-evolve-serial.out \
    || { echo "komodo-fuzz: TSan evolve hash differs from plain build" >&2; exit 1; }
  echo "=== TSan komodo-verify parallel closure ==="
  # Eight workers over the shared frontier and the in-order commit: the
  # closure must reach the pinned hash, and an injected failure, found while
  # other workers hold later states, must print what one worker prints.
  ./build-tsan/tools/komodo-verify --world small --jobs 8 2>/dev/null \
    > build-tsan/verify-small-jobs8.out
  grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build-tsan/verify-small-jobs8.out \
    || { echo "komodo-verify: TSan closure hash differs from plain build" >&2; exit 1; }
  echo "${VERIFY_SMALL_SHA256}  build-tsan/verify-small-jobs8.out" | sha256sum --check --quiet - \
    || { echo "komodo-verify: TSan small-world report differs from the pinned sha256" >&2; exit 1; }
  expect_exit 1 ./build-tsan/tools/komodo-verify --world small --inject remove-skip-refcount \
    --jobs 8 > build-tsan/verify-inject-jobs8.out
  cmp build/verify-inject-jobs1.out build-tsan/verify-inject-jobs8.out \
    || { echo "komodo-verify: TSan --jobs 8 failure differs from plain --jobs 1" >&2; exit 1; }
fi

# clang-tidy is optional: the reference container only ships gcc.
if command -v clang-tidy >/dev/null 2>&1 && [[ -f build/compile_commands.json ]]; then
  echo "=== extra: clang-tidy (src/core src/spec src/analysis src/verify src/jit src/serve src/fuzz) ==="
  clang-tidy -p build --quiet \
    src/core/*.cc src/spec/*.cc src/analysis/*.cc src/verify/*.cc src/jit/*.cc src/serve/*.cc \
    src/fuzz/*.cc
else
  echo "=== extra: clang-tidy not found; skipping (config: .clang-tidy) ==="
fi

echo "OK: all checks passed"
