#!/usr/bin/env python3
"""Co-scheduler benchmark: builds the `perfbench` binary and runs one workload.

    python3 perfbench/run.py --workload <fleet-greedy|fleet-mip|table1> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`). Each invocation starts two
fresh processes, so each workload's peak RSS is its own:

* `perfbench measure` times the layered pipeline for --seconds and
  checks its invariants, its repeatability and (with --trace 1) that the
  traced run matches the untraced one;
* `perfbench gate` runs the public end-to-end API at 2 workers; its
  summary digest must equal the measured run's.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `metrics` holds what
BENCHMARK.json lists, `end_to_end` with --trace 0 and `per_layer` with
--trace 1. The exit code is 0 only when the correctness gate passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "perfbench")


def run_child(args):
    """Run the binary, echo its report lines, and parse its last line."""
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args[1]} did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not lines:
        fail(f"{args[1]} exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{args[1]} printed no result: {e}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fleet-greedy", "fleet-mip", "table1"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be a non-negative integer")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    trace_out = os.path.join(target_dir, "perfbench-traces", f"{a.workload}-seed{a.seed}.trace.json")
    measured = run_child(
        [binary, "measure", *common, "--seconds", str(a.seconds), "--trace", str(a.trace)]
        + (["--trace-out", trace_out] if a.trace else [])
    )
    gate = run_child([binary, "gate", *common])

    # The result carries exactly the metrics BENCHMARK.json lists for this
    # mode; the binary prints a few more (see README.md).
    with open(SPEC) as f:
        listed = [m["name"] for m in json.load(f)["per_layer" if a.trace else "end_to_end"]]
    missing = [n for n in listed if n not in measured["metrics"]]
    if missing:
        fail(f"measure did not report {', '.join(missing)}")
    metrics = {n: measured["metrics"][n] for n in listed}

    same = gate["digest"] == measured["digest"]
    print(
        f"gate: layered run at 1 worker {'matches' if same else 'DIFFERS FROM'} "
        f"the public API at {gate['workers']} workers ({measured['digest']} vs {gate['digest']})"
    )
    correct = bool(measured["correct"]) and same
    failed = measured["failed"] + (0 if correct else 1)
    print(f"workload {a.workload} seed {a.seed}: correct={correct} "
          f"attempted={measured['attempted']} failed={failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
