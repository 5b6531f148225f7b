#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, summarised per end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --first-seed S

Pair i, for i below PAIRS, runs
`perfbench/run.py --workload W --seed S+i --seconds T --trace 0` from the
root of PARENT and of CHANGE, one after the other: PARENT first on even i,
CHANGE first on odd i.  T is the `run_seconds` of CHANGE's BENCHMARK.json.
Each run's metrics are printed as it ends.
A run that exits nonzero, reads `correct: false` or reports failed operations
stops the script with exit 1, naming the run.

Then, for each end-to-end metric of CHANGE's BENCHMARK.json, one line gives
both medians, the parent's interquartile range (`statistics.quantiles(n=4)`),
the pairs the change wins by the metric's `better` direction (ties count for
neither), and whether the change's median is worse than the parent's by more
than the metric's relative `bound`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


# The fewest pairs that the comparison of two checkouts accepts.
PAIRS = 10


class RunFailed(Exception):
    """A benchmark run that exited nonzero, read incorrect or failed operations."""


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metric values of one untraced run in checkout `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    name = f"{root} --workload {workload} --seed {seed}"
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"{name}: correct {result['correct']}, "
                        f"{result['failed']} of {result['attempted']} operations failed")
    return {key: m["value"] for key, m in result["metrics"].items()}


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, the parent's IQR, the change's wins and the bound flag of one
    metric, from its BENCHMARK.json entry and the runs' values in pair order."""
    higher = metric["better"] == "higher"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    limit = p_med * (1 - metric["bound"] if higher else 1 + metric["bound"])
    return {"parent": p_med, "change": c_med, "parent_iqr": q3 - q1, "wins": wins,
            "pairs": len(parent), "worse_than_bound": c_med < limit if higher else c_med > limit}


def format_summary(metric: dict, s: dict) -> str:
    return (f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"parent {s['parent']:.4g}, change {s['change']:.4g}, "
            f"parent IQR {s['parent_iqr']:.4g}, change wins {s['wins']}/{s['pairs']}, "
            f"worse than bound {metric['bound']:g}: {'YES' if s['worse_than_bound'] else 'no'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    try:
        for i in range(PAIRS):
            seed = args.first_seed + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                values = run_once(getattr(args, side), args.workload, seed, seconds)
                runs[side].append(values)
                print(f"pair {i} seed {seed} {side}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in sorted(values.items())), flush=True)
    except RunFailed as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {PAIRS} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + PAIRS - 1}, {seconds:g} s per run")
    for m in bench["end_to_end"]:
        s = summarize(m, [r[m["name"]] for r in runs["parent"]],
                      [r[m["name"]] for r in runs["change"]])
        print(format_summary(m, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
