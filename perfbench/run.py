#!/usr/bin/env python3
"""Builds and runs the TreeServer benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cls_exact_rows --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds perfbench/ (and the library from
src/) into .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr. The harness binary then runs the workload
and this script prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics, where
metrics holds exactly the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). The line before it
stamps the host, build and source.

Exits non-zero without printing a result when the build fails, the
harness fails, or a named metric is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_stamp():
    """Git commit when run inside a clone, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return {"git_commit": out.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_commit": "unknown", "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if raw["correct"]:
                fail(f"metric {m['name']} missing")
            continue  # latency is withheld from a run with a wrong answer
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, want {m['unit']}")
        metrics[m["name"]] = got

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, **raw["host"],
             **source_stamp()}
    print(json.dumps({"meta": stamp}))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
