#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build). The harness binary runs the
workload in its own process; this script attaches the units declared in
BENCHMARK.json and prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; a per-layer metric that the workload does not
exercise reads 0. Exits non-zero, printing no result, when the build, the
run or the result is broken.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def configured_source(out):
    """The source dir a build dir was configured for, or None."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(targets=("komodo_perfbench",)):
    """Configures (once) and builds the harness; returns the build dir."""
    out = build_dir()
    source = configured_source(out)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(out)  # configured for another checkout
        source = None
    if source is None:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out


def run_harness(out, args, env=None):
    """Runs the harness binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out, "komodo_perfbench"), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    return proc.returncode, proc.stdout.splitlines()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def attach_units(spec, raw, trace):
    """Maps the harness's {name: value} onto the declared metric set."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(raw) - names)
    if extra:
        raise RuntimeError(f"harness reported undeclared metrics: {extra}")
    metrics = {}
    for m in declared:
        if m["name"] not in raw and not trace:
            raise RuntimeError(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": raw.get(m["name"], 0), "unit": m["unit"]}
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")

    try:
        spec = load_spec()
        if a.workload not in {w["name"] for w in spec["workloads"]}:
            p.error(f"unknown workload {a.workload}")
        out = build()
        code, lines = run_harness(out, [
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out-dir", os.path.join(out, "spans")])
        if code != 0 or not lines:
            raise RuntimeError(f"harness exited with code {code}")
        for line in lines[:-1]:
            print(line)
        raw = json.loads(lines[-1])
        result = {
            "correct": bool(raw["correct"]) and raw["failed"] == 0 and raw["attempted"] >= 1,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": attach_units(spec, raw["metrics"], a.trace == 1),
        }
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    for name, m in result["metrics"].items():
        print(f"metric {name:34} {m['value']!r} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
