#!/usr/bin/env python3
"""Host-time benchmark of the STORM simulator: one workload, one result.

    python3 perfbench/run.py --workload gang_rotation --seed 1 --seconds 30 --trace 0

Run from the root of the repository. It builds the benchmark package in
perfbench/ (into $CARGO_TARGET_DIR, default .bench_build) and runs the
workload in a child process on one simulation thread, with the runtime
knob variables STORM_THREADS, STORM_BATCH and STORM_QUEUE_BACKEND removed
from its environment, so the library defaults are what gets measured.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload untraced and then again traced (same seed), checks that both
reach the same simulated digest, prints the "where the time goes" table
and reports the per-layer metrics of BENCHMARK.json; the spans are written
to perfbench/out/.

The seed drives every generated input (job mix, job stream, fault schedule,
cluster RNG). Seed 1 is the default; seed 20021117 is held out: use it only
to confirm a gain claimed on other seeds, never while tuning a change.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any failed correctness check exits non-zero without printing it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KNOB_ENV = ("STORM_THREADS", "STORM_BATCH", "STORM_QUEUE_BACKEND")
BUILD_TIMEOUT_S = 700
TRACED_TIMEOUT_S = 75


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in KNOB_ENV}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("build timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "storm-perfbench")


def run_child(cmd, env, timeout):
    """Run one workload process; echo its report, return its JSON line."""
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} timed out after {timeout} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{cmd[1]} failed a check (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    env = child_env()
    binary = build(env)
    base = [binary, args.workload, "--seed", str(args.seed)]
    plain = run_child(base + ["--seconds", str(args.seconds), "--mode", "plain"],
                      env, timeout=args.seconds + 60)
    result = plain
    wanted = spec["end_to_end"]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl")
        traced = run_child(base + ["--mode", "traced", "--spans", spans],
                           env, timeout=TRACED_TIMEOUT_S)
        if traced["digest"] != plain["digest"]:
            raise BenchError(f"traced run's simulated digest {traced['digest']} "
                             f"differs from the untraced run's {plain['digest']}")
        m = traced["metrics"]
        m["trace.overhead"] = {
            "value": m.pop("trace.sim_wall_s")["value"]
            / plain["metrics"]["run_wall_s"]["value"],
            "unit": "ratio",
        }
        result = traced
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        wanted = spec["per_layer"]

    missing = [w["name"] for w in wanted if w["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not reported: {missing}")
    metrics = {w["name"]: result["metrics"][w["name"]] for w in wanted}
    print(f"digest {args.workload} seed {args.seed}: simulated {plain['digest']} "
          f"checkpoint {plain['checkpoint_digest']}")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)
