"""Steadiness check: run one workload N times and report each metric's spread.

    python3 bench/steady.py --workload search-serial --runs 10

Run from the repository root. Runs 1..N use seeds 1..N, so every run has
other inputs. For each metric the script prints the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median, and flags
an end-to-end metric whose spread exceeds its bound in BENCHMARK.json. The
last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    run_py = str(Path(__file__).resolve().parent / "run.py")
    values, correct = {}, True
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, run_py, "--workload", args.workload,
               "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    summary, flagged = {}, []
    print(f"{'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} bound")
    for name, vals in values.items():
        q1, median, q3, spread = _spread(vals)
        bound = bounds.get(name)
        over = bound is not None and spread > bound
        if over:
            flagged.append(name)
        summary[name] = {"q1": q1, "median": median, "q3": q3,
                         "spread": spread, "bound": bound, "values": vals}
        mark = "  OVER BOUND" if over else ""
        print(f"{name:40s} {q1:12.6g} {median:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound}{mark}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "correct": correct, "flagged": flagged,
                      "metrics": summary}))
    return 1 if flagged or not correct else 0


if __name__ == "__main__":
    sys.exit(main())
