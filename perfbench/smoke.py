#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny pair counts.

    python3 perfbench/smoke.py

For every workload it runs `run.py` untraced and traced, with 2 pairs per
round and a 1 s window, and checks that:
- every metric BENCHMARK.json names appears with its unit, and is finite;
- the run is correct, with no failed operation;
- the traced run's round-0 artifact digests equal the untraced run's.
It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--pairs", "2"]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_output(bench: dict, workload: str, trace: int, proc) -> tuple[list[str], dict]:
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"], {}
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}")
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errors.append(f"{where}: metric names differ: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} value {value!r} is not finite")
    for key in ("nproc", "loadavg_start", "python", "numpy", "scipy", "blas_name",
                "blas_version", "blas_threads"):
        if key not in detail.get("machine", {}):
            errors.append(f"{where}: machine record lacks {key}")
    return errors, detail


def check_bare() -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "toy-train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in (w["name"] for w in bench["workloads"]):
        e0, d0 = check_output(bench, w, 0, run(ROOT, w, 0))
        e1, d1 = check_output(bench, w, 1, run(ROOT, w, 1))
        errors += e0 + e1
        if d0 and d1 and d0["digests"] != d1["digests"]:
            errors.append(f"{w}: traced digests {d1['digests']} != untraced {d0['digests']}")
        print(f"{w}: {'ok' if not (e0 or e1) else 'FAILED'}", flush=True)
    errors += check_bare()
    for e in errors:
        print("FAIL:", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
