#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the repository root:

    python3 perfbench/selftest.py

It builds the harness (and the repository's komodo-fuzz and komodo-verify)
like perfbench/run.py does, then runs the workloads at their normal sizes
for --seconds 1 (the fewest reps a run makes) and checks that:

  1. two runs of each serve workload with one seed give identical replies
     (a digest over every reply and latency), simulated latencies,
     core.sim_cycles, arm.steps and rebuild counts, and a second seed
     changes them: the load generator never reads the host clock;
  2. the harness refuses to run with KOMODO_JIT, KOMODO_INTERP_CACHE or
     KOMODO_TRACE set;
  3. a traced serve run's SMC time plus serve.self_s covers every round,
     and its span file links request, round and SMC spans;
  4. fuzz-blind's campaign hash for the default seed equals that of
     `komodo-fuzz --seed 1 --calls 3000 --jobs 2`, and verify-small's
     closure hash equals komodo-verify --world small's;
  5. the benchmark fails, printing no result, without the program sources.

Exits 0 when every check passes. Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the runner's build and harness helpers)

FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def info(lines, key):
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "info" and parts[1] == key:
            return parts[2]
    return None


def harness(out, workload, seed, trace=0, extra=(), env=None):
    code, lines = run.run_harness(out, ["--workload", workload, "--seed", str(seed),
                                        "--seconds", "1", "--trace", str(trace), *extra], env=env)
    result = json.loads(lines[-1]) if code == 0 and lines else None
    return code, lines, result


def check_determinism(out):
    for workload in ("serve-churn", "serve-resident"):
        runs = []
        for seed in (7, 7, 8):
            code, lines, result = harness(out, workload, seed)
            check(code == 0 and result["correct"], f"{workload} seed {seed} runs correctly")
            runs.append(info(lines, "determinism"))
        check(runs[0] is not None and runs[0] == runs[1],
              f"{workload}: same seed, same replies and simulated results ({runs[0]})")
        check(runs[0] != runs[2], f"{workload}: another seed changes them")


def check_guards(out):
    for var in ("KOMODO_JIT", "KOMODO_INTERP_CACHE", "KOMODO_TRACE"):
        env = dict(os.environ, **{var: "on"})
        code, lines, _ = harness(out, "serve-resident", 1, env=env)
        check(code == 2 and not lines, f"refuses to run with {var} set")


def span_links(path):
    """Checks a span file: every SMC span and request span names a round
    span, and there are SMC spans. Returns a one-line summary or None."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    rounds = {e["args"]["round"]: e for e in events if e["name"] == "round"}
    smcs = [e for e in events if e["name"].startswith("smc.")]
    requests = [e for e in events if e["name"] == "request"]
    linked = all(e["args"]["round"] in rounds for e in smcs + requests) and all(
        e["args"]["request"] in rounds[e["args"]["round"]]["args"]["requests"] for e in requests)
    if not (rounds and smcs and requests and linked):
        return None
    return f"{len(requests)} requests, {len(rounds)} rounds, {len(smcs)} SMCs"


def check_traced(out):
    spans = os.path.join(out, "selftest-spans")
    for workload in ("serve-churn", "serve-resident"):
        code, lines, result = harness(out, workload, 3, trace=1, extra=("--out-dir", spans))
        m = (result or {}).get("metrics", {})
        smc = sum(v for k, v in m.items() if k.startswith("core.smc.") and k.endswith(".host_s"))
        rounds = m.get("serve.round_rebuild_s", 0) + m.get("serve.round_resident_s", 0)
        check(code == 0 and result["correct"] and
              abs(smc + m.get("serve.self_s", -1) - rounds) < 1e-6 * (1 + rounds),
              f"{workload} traced: SMC time + serve.self_s covers every round")
        path = os.path.join(spans, f"spans-{workload}.json")
        summary = span_links(path) if os.path.exists(path) else None
        check(summary is not None, f"{workload} traced: request->round->SMC spans ({summary})")


def check_tools(out):
    code, lines, result = harness(out, "fuzz-blind", 1)
    ours = info(lines, "campaign-hash")
    tool = subprocess.run([os.path.join(out, "komodo-fuzz"), "--seed", "1", "--calls", "3000",
                           "--jobs", "2", "--out", out], capture_output=True, text=True)
    theirs = [l.split()[1] for l in tool.stdout.splitlines() if l.startswith("campaign-hash ")]
    check(code == 0 and result["correct"] and theirs == [ours],
          f"fuzz-blind campaign hash matches komodo-fuzz ({ours})")

    code, lines, result = harness(out, "verify-small", 1)
    ours = info(lines, "closure-hash")
    tool = subprocess.run([os.path.join(out, "komodo-verify"), "--world", "small"],
                          capture_output=True, text=True)
    theirs = [l.split()[1] for l in tool.stdout.splitlines() if l.startswith("closure-hash ")]
    check(code == 0 and result["correct"] and result["attempted"] == 1551702 and
          theirs == [ours], f"verify-small closure matches komodo-verify ({ours})")


def check_no_sources(out):
    tmp = tempfile.mkdtemp(dir=out)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-churn",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp,
                              env=env, capture_output=True, text=True, timeout=170)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "fails without the program sources, printing no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    out = run.build(("komodo_perfbench", "komodo-fuzz", "komodo-verify"))
    check_determinism(out)
    check_guards(out)
    check_traced(out)
    check_tools(out)
    check_no_sources(out)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
