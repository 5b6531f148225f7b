"""tools/bench_pairs.py on fixed numbers and stand-in benchmarks: no real run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "pairs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize("metric, parent, change, want", [
    # one tie, two wins, one loss; medians equal
    (HIGHER, [10.0, 11.0, 12.0, 13.0], [10.0, 12.0, 11.0, 14.0],
     {"parent": 11.5, "change": 11.5, "parent_iqr": 2.5, "wins": 2, "worse_than_bound": False}),
    # below parent median * (1 - 0.25) = 8.625
    (HIGHER, [10.0, 11.0, 12.0, 13.0], [5.0, 5.0, 5.0, 5.0],
     {"parent": 11.5, "change": 5.0, "parent_iqr": 2.5, "wins": 0, "worse_than_bound": True}),
    # exactly at the bound is not beyond it
    (HIGHER, [100.0] * 4, [75.0] * 4,
     {"parent": 100.0, "change": 75.0, "parent_iqr": 0.0, "wins": 0, "worse_than_bound": False}),
    # lower is better: 0.9 and 0.8 win, 1.0 ties
    (LOWER, [1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.2, 0.8],
     {"parent": 1.0, "change": 0.95, "parent_iqr": 0.0, "wins": 2, "worse_than_bound": False}),
    # above parent median * (1 + 0.1)
    (LOWER, [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.0, 1.2],
     {"parent": 1.0, "change": 1.2, "parent_iqr": 0.0, "wins": 0, "worse_than_bound": True}),
], ids=["higher-ties", "higher-worse", "higher-at-bound", "lower-ties", "lower-worse"])
def test_summarize_counts_wins_and_flags_the_bound(metric, parent, change, want):
    got = bench_pairs.summarize(metric, parent, change)
    assert got == pytest.approx({**want, "pairs": len(parent)})
    line = bench_pairs.format_summary(metric, got)
    assert line.startswith(f"{metric['name']} ") and line.endswith(
        "YES" if want["worse_than_bound"] else "no")


def _checkout(root: Path, result: dict, code: int = 0) -> Path:
    """A stand-in checkout whose benchmark prints `result` and exits `code`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [HIGHER]}))
    (root / "perfbench" / "run.py").write_text(
        f"import sys\nprint({json.dumps(json.dumps(result))})\nsys.exit({code})\n")
    return root


def _result(value, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"pairs_per_s": {"value": value, "unit": "1/s"}}}


def test_main_alternates_and_prints_one_line_per_metric(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _result(10.0))
    change = _checkout(tmp_path / "change", _result(12.0))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--first-seed", "7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:2 * bench_pairs.PAIRS]] == [
        f"pair {i} seed {7 + i} {side}" for i in range(bench_pairs.PAIRS)
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert out[-2] == "w: 10 pairs, seeds 7-16, 1 s per run"
    assert out[-1].startswith("pairs_per_s (1/s, higher is better): parent 10, change 12,")
    assert "change wins 10/10" in out[-1] and out[-1].endswith("no")


@pytest.mark.parametrize("result, code, why", [
    (_result(10.0), 2, "exit 2"),
    (_result(10.0, correct=False), 0, "correct False"),
    (_result(10.0, failed=1), 0, "1 of 3 operations failed"),
], ids=["nonzero-exit", "incorrect", "failed-operations"])
def test_a_bad_run_stops_with_exit_1_naming_it(tmp_path, capsys, result, code, why):
    parent = _checkout(tmp_path / "parent", _result(10.0))
    change = _checkout(tmp_path / "change", result, code)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--first-seed", "7"]) == 1
    err = capsys.readouterr().err
    assert f"{change} --workload w --seed 7" in err and why in err
