#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch|yield|serve --seed N \
        --seconds S --trace 0|1 --serve-rates batch=R,yield=R,serve=R

Run from the root of a checkout. The script builds the benchmark from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
characterizes the delay library once into a cache there, then runs the
workload. With --trace 0 it also times 11 fresh-process set-ups and
reports setup_s as the median over them and the run's own set-up.

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it
records the machine. Any build failure, crash, timeout or metric-name
mismatch against BENCHMARK.json exits non-zero without a result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
# A run must finish within 180 s; leave room for the set-up probes.
RUN_TIMEOUT_S = 170.0
# The first run in a checkout builds and characterizes within 900 s.
FIRST_RUN_TIMEOUT_S = 850.0
# Fresh processes whose set-up times join the run's own in setup_s.
SETUP_RUNS = 11


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def build(deadline):
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=remaining(deadline))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, timeout=remaining(deadline))
    return out


def metric_names(kind):
    """Metric names BENCHMARK.json declares for `kind` (end_to_end or per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=10)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(binary, args, env, timeout):
    r = subprocess.run([str(binary)] + args, env=env, stdout=subprocess.PIPE,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise RuntimeError(f"{binary.name} {' '.join(args)} exited {r.returncode}")
    return [line for line in r.stdout.splitlines() if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Pinned in BENCHMARK.json's command; the offered open-loop rate of
    # each workload's serving pass.
    ap.add_argument("--serve-rates", required=True)
    a = ap.parse_args()

    deadline = time.monotonic() + FIRST_RUN_TIMEOUT_S
    out = build(deadline)
    binary = out / "perfbench"
    env = dict(os.environ)
    env["CTSIM_CACHE_DIR"] = str(out / "cache")
    (out / "cache").mkdir(parents=True, exist_ok=True)
    # First run in a checkout characterizes the delay library (~20 s).
    run_binary(binary, ["--prepare"], env, remaining(deadline))
    started = time.monotonic()

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_RUNS):
            line = run_binary(binary, ["--setup-only"], env, 30)[-1]
            setups.append(json.loads(line)["setup_s"])

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace),
            "--serve-rates", a.serve_rates]
    if a.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.json")]
    lines = run_binary(binary, args, env, remaining(started + RUN_TIMEOUT_S))
    machine = json.loads(lines[-2])["machine"]
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if a.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    want = metric_names("per_layer" if a.trace else "end_to_end")
    if list(metrics) != want:
        raise RuntimeError(f"metric names {list(metrics)} differ from BENCHMARK.json {want}")

    machine["commit"] = git_commit()
    machine["setup_runs"] = len(setups)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError,
            IndexError) as e:
        log(f"failed: {e}")
        sys.exit(1)
