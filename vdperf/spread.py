#!/usr/bin/env python3
"""Spread report: repeats one benchmark workload and prints, for every
end-to-end metric, the median and quartiles of its values next to the
bound BENCHMARK.json fixes for it.

    python3 vdperf/spread.py --workload campaign --runs 10

Run from the repository root. Each run gets its own seed (first seed +
run index). The spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median; a metric is steady when its spread stays within its bound, and
comfortably steady below a third of it. Exits 1 when a run fails or
reports incorrect output, or when a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"run {i} (seed {seed}): exit {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            ok = False
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"run {i} (seed {seed}): correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{name}={values[name][-1]:.6g}" for name in bounds),
            flush=True,
        )
        # The runner's summary line: sample counts and stolen CPU time.
        summary = [l for l in proc.stderr.splitlines() if l.startswith("vdperf ")]
        if summary:
            print("    " + summary[0], flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<14} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, spec in bounds.items():
        vals = values[name]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec["bound"]
        if spread > bound:
            verdict = "WIDER THAN BOUND"
            ok = False
        elif spread > bound / 3:
            verdict = "within bound"
        else:
            verdict = "steady (< bound/3)"
        print(f"{name:<14} {spec['unit']:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.2%} {bound:>6.0%}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
