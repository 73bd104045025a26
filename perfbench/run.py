#!/usr/bin/env python3
"""Paper-shape benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 10 --trace 0

Builds `pdeml` and the benchmark binary from source (into $CARGO_TARGET_DIR,
default .bench_build), runs one workload, and prints the benchmark's own
lines followed by one JSON result line checked against BENCHMARK.json:
every end-to-end metric with --trace 0, every per-layer metric with
--trace 1 (a layer the workload does not exercise reads 0). Exits non-zero
without a result line if the build or the run fails, and with code 1 after
the result line if an output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

# Every run, builds excluded, must end well inside the 180 s budget.
RUN_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds pdeml (the program under test) and the benchmark binary."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pde-ml-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_bench(argv):
    """Runs the benchmark in its own process group, so a timeout can stop
    it together with any server it started."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    code, out = run_bench([
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--pdeml", os.path.join(release, "pdeml"),
        "--out-dir", OUT_DIR,
    ])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {code}")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = set(result["metrics"]) - names
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        if not args.trace and not got["value"] > 0:
            fail(f"end-to-end metric {m['name']} = {got['value']} is not positive")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
