#!/usr/bin/env python3
"""Benchmark of record for flexdist.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the harness in perfbench/harness (a Cargo package of its own that
calls the crates' public functions), runs one workload, checks that the
metric names and units it printed are exactly those BENCHMARK.json lists
for the mode (end-to-end with --trace 0, per-layer with --trace 1), and
prints the harness's report followed, as the last line, by the JSON
result. Exits non-zero when the build fails, the harness fails, a
correctness check fails, or the metric names do not match.

Build outputs, UDS sockets and span files go under $CARGO_TARGET_DIR
(default .bench_build), inside the checkout.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HARNESS = os.path.join("perfbench", "harness", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Build the harness; return its executable and the scratch directory
    for sockets and span files."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", HARNESS],
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        fail(f"harness build failed (cargo exit {r.returncode})")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"harness build left no executable at {exe}")
    scratch = os.path.join(target, "perfbench")
    os.makedirs(scratch, exist_ok=True)
    # UDS paths are limited to ~108 bytes: prefer the shorter spelling.
    rel = os.path.relpath(scratch)
    return exe, rel if len(rel) < len(os.path.abspath(scratch)) else os.path.abspath(scratch)


def run_harness(exe, args):
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    return r.returncode, r.stdout.splitlines()


def check_result(result, spec, trace):
    """Problems with the result's shape and metric names, or []."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed is not a non-negative integer")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"metrics missing: {missing}")
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        elif not trace and v == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def run_one(exe, scratch, spec, workload, seed, seconds, trace):
    """Run one workload; return (exit code, result object or None)."""
    code, lines = run_harness(
        exe,
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
            "--scratch", scratch,
        ],
    )
    if not lines:
        return code or 1, None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return code or 1, None
    problems = check_result(result, spec, trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        return 1, None
    return code, result


def self_test(exe, scratch, spec):
    """The harness's own checks, then a short run of every workload in
    both modes with the printed metric names held to BENCHMARK.json."""
    code, lines = run_harness(exe, ["self-test"])
    print("\n".join(lines))
    ok = code == 0
    for w in spec["workloads"]:
        for trace in (False, True):
            c, result = run_one(exe, scratch, spec, w["name"], 1, 1, trace)
            status = "ok" if c == 0 and result is not None else "FAILED"
            print(f"self-test {w['name']} trace {int(trace)}: {status}")
            ok = ok and status == "ok"
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    if not a.self_test:
        names = [w["name"] for w in spec["workloads"]]
        if a.workload not in names:
            fail(f"--workload must be one of {names}")
        if a.seed < 0:
            fail("--seed must be non-negative")
    exe, scratch = build()
    if a.self_test:
        sys.exit(self_test(exe, scratch, spec))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    code, result = run_one(exe, scratch, spec, a.workload, a.seed, seconds, a.trace == 1)
    if result is None:
        sys.exit(code or 1)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
