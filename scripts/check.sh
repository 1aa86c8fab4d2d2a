#!/usr/bin/env bash
# Pre-merge gate: tier-1 build + tests, ASan+UBSan and TSan builds of the
# fuzz path, the komodo-lint static analysis of every shipped enclave
# program, and the komodo-verify exhaustive small-world and 6-page closures
# at their pinned hashes. Any failure — including a single lint finding —
# fails the script.
#
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."

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

echo "=== [1/12] tier-1: configure + build ==="
# Warnings are errors here (CMake >= 3.24), so a new warning fails the gate.
cmake -B build -S . $(generator_for build) -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$JOBS"

echo "=== [2/12] tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [3/12] tier-1: ctest with interpreter caches disabled ==="
# The fast-path caches (DESIGN.md §8) must be architecturally invisible;
# the whole suite has to pass with them off as well.
KOMODO_INTERP_CACHE=off ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [3b/12] tier-1: ctest with the block JIT disabled ==="
# The A32→x64 translator (DESIGN.md §13) defaults on where supported, so the
# plain run above already exercises it; this leg pins the interpreter-only
# escape hatch, and the combination below the fully stripped configuration.
KOMODO_JIT=off ctest --test-dir build --output-on-failure -j "$JOBS"
KOMODO_JIT=off KOMODO_INTERP_CACHE=off \
  ctest --test-dir build --output-on-failure -j "$JOBS" -R 'cycle_regression_test|interp_diff_test|jit_test'

echo "=== [4/12] tier-1: ctest with tracing enabled ==="
# The tracer (DESIGN.md §9) must be architecturally invisible too: the whole
# suite — including the cycle-regression test — has to pass with every
# monitor tracing into a live ring buffer.
KOMODO_TRACE=on ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [5/12] bench smoke (cached/uncached invisibility check) ==="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "=== [6/12] bench/trace JSON artifacts validate ==="
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

echo "=== [7/12] komodo-serve: daemon smoke (batching, eviction, line protocol) ==="
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
# Results live in a ring of request slots (DESIGN.md §14), so memory stays
# bounded however long the daemon runs: 700,000 requests, run twice with
# identical stdout, may peak at no more than 1.25x the resident memory of a
# 400-request run like the pinned one.
python3 - <<'EOF'
import os, subprocess, sys
def peak_kb(args, out):
    with open(out, "wb") as f:
        proc = subprocess.Popen(["./build/tools/komodo-serve", "--load", *args], stdout=f)
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("komodo-serve --load " + " ".join(args) + " failed")
    return usage.ru_maxrss
small = peak_kb(["--sessions", "40", "--requests", "400", "--budget", "28"],
                "build/serve-load-3.out")
big = max(peak_kb(["--sessions", "16", "--requests", "700000", "--budget", "140"],
                  f"build/serve-load-long-{i}.out") for i in (1, 2))
if big > 1.25 * small:
    sys.exit(f"komodo-serve: 700,000 requests peaked at {big} kB, over 1.25x the"
             f" 400-request run's {small} kB")
EOF
cmp build/serve-load-long-1.out build/serve-load-long-2.out \
  || { echo "komodo-serve: nondeterministic 700,000-request load run" >&2; exit 1; }

echo "=== [8/12] komodo-lint: shipped programs + fixtures ==="
./build/tools/komodo-lint --check-shipped
./build/tools/komodo-lint --check-fixtures

echo "=== [9/12] komodo-verify: exhaustive small-world and 6-page closures ==="
# The model checker (DESIGN.md §12) must close the default small world with
# all three obligations holding, byte-identically across runs, and at the
# pinned closure hash — any drift in the PageDb serialization, the symmetry
# quotient, or a spec guard shows up here before it reaches a reviewer.
# Re-pin the hash (and the EXPERIMENTS.md table) when a change to the spec
# or canon serialization is *intended*.
VERIFY_CLOSURE_HASH=99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31
./build/tools/komodo-verify --world small \
  --bench-out build/bench/BENCH_verify.json 2>/dev/null > build/verify-small-1.out
./build/tools/komodo-verify --world small 2>/dev/null > build/verify-small-2.out
cmp <(grep -v -e '^wrote ' -e '^$' build/verify-small-1.out) \
    <(grep -v '^$' build/verify-small-2.out) \
  || { echo "komodo-verify: nondeterministic exploration output" >&2; exit 1; }
grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build/verify-small-1.out \
  || { echo "komodo-verify: closure hash drifted from the pinned value" >&2; exit 1; }
./build/tools/komodo-benchjson build/bench/BENCH_verify.json
# The 6-page world (2 addrspaces) is pinned the same way: its counts and
# closure hash. It takes ~13 s on a 4-vCPU x86-64 VM.
./build/tools/komodo-verify --pages 6 --max-addrspaces 2 2>/dev/null > build/verify-6.out
printf '%s\n' 'states 21517' 'transitions 15325556' 'clipped 2410' \
  'closure-hash eaab469ea56a70cfbceb97ce4b1258876fd40bbf3cdcd30ae99126ac719dea15' PASS \
  | cmp - <(grep -E '^(states|transitions|clipped|closure-hash|PASS)' build/verify-6.out) \
  || { echo "komodo-verify: 6-page closure drifted from the pinned values" >&2; exit 1; }

echo "=== [10/12] komodo-fuzz smoke (fixed seed, all oracles, pinned v2 hash) ==="
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
# §10); the two paths must reach the same verdict on every trace.
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" --no-reuse 2>/dev/null > build/fuzz-smoke-fresh.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-fresh.out \
  || { echo "komodo-fuzz: --no-reuse changed the campaign output" >&2; exit 1; }
# 7.5x the smoke's calls per oracle at the default trace length.
FUZZ_WIDE_HASH=f9452d68029e66a079c407a318396b494123ff93d3632cd92f08704677c90f31
./build/tools/komodo-fuzz --seed 1 --calls 3000 --jobs 2 --out build 2>/dev/null \
  > build/fuzz-wide.out
grep -q "^campaign-hash ${FUZZ_WIDE_HASH}\$" build/fuzz-wide.out \
  || { echo "komodo-fuzz: seed-1 3000-call campaign hash drifted from the pinned value" >&2; exit 1; }

echo "=== [11/12] komodo-fuzz parallel determinism (--jobs 1 vs --jobs 8) ==="
# The sharded campaign hash (DESIGN.md §11) is defined to be independent of
# the worker count; serial and 8-way stdout must be byte-identical.
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
  > build/fuzz-smoke-jobs8.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-jobs8.out \
  || { echo "komodo-fuzz: --jobs changed the campaign output" >&2; exit 1; }

echo "=== [12/12] komodo-fuzz evolve smoke (coverage-guided, pinned v3 hash) ==="
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

if [[ "$SKIP_SANITIZERS" == 1 ]]; then
  echo "=== sanitizers: skipped (--skip-sanitizers) ==="
else
  echo "=== ASan+UBSan build + ctest ==="
  cmake -B build-asan -S . $(generator_for build-asan) \
    -DKOMODO_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  echo "=== ASan+UBSan komodo-fuzz smoke ==="
  ./build-asan/tools/komodo-fuzz --seed 20260807 --calls 150 --trace-len 40 \
    --out build-asan >/dev/null
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

  echo "=== TSan komodo-fuzz parallel smoke ==="
  # Thread sanitizer over the parallel campaign: per-worker world pools,
  # thread-local inject flags and the outcome-slot handoff must all be
  # race-free, and the parallel run must still reproduce the serial hash.
  cmake -B build-tsan -S . $(generator_for build-tsan) \
    -DKOMODO_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target komodo-fuzz
  TSAN_FUZZ_ARGS=(--seed 20260807 --calls 150 --trace-len 40 --out build-tsan)
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 1 2>/dev/null \
    > build-tsan/fuzz-smoke-serial.out
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
    > build-tsan/fuzz-smoke-jobs8.out
  cmp build-tsan/fuzz-smoke-serial.out build-tsan/fuzz-smoke-jobs8.out \
    || { echo "komodo-fuzz: --jobs changed the campaign output under TSan" >&2; exit 1; }
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
