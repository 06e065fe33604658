#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload cls_exact_rows --seeds 1-10

For every end-to-end metric (or per-layer metric with --trace 1) it
prints the median of the per-seed values and the distance between their
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound is flagged with '!'. Every run must be
correct with no failed operation; the script exits non-zero otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    values = {m["name"]: [] for m in metrics}
    ok = True
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: run failed ({out.returncode})")
            ok = False
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        good = result["correct"] and result["failed"] == 0
        ok &= good
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = m.get("bound")
        flag = "!" if bound is not None and spread > bound / 3 else " "
        print(f"{flag} {m['name']:32s} median {median:14.6g} {m['unit']:7s} "
              f"spread {spread:7.3f}"
              + (f"  bound {bound}" if bound is not None else "")
              + ("  values " + " ".join(f"{x:.4g}" for x in v)
                 if flag == "!" else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
