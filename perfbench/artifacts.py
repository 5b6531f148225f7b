"""Digests, output checks and quality readers for the CLI artifacts.

A check raises `ArtifactError` when a stage wrote something the format does
not allow: a missing file, a wrong row count, a keypoint outside its image,
or a non-finite value in a field that has no non-finite sentinel.  The
corner error in `per_pair.csv` may be inf (no RANSAC model) and fields that
do not apply to a pair kind are nan, so those two are exempt.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path


class ArtifactError(Exception):
    pass


def digest_dir(path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    root = Path(path)
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        data = p.read_bytes()
        h.update(f"{p.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _csv(path) -> tuple[list[str], list[list[str]]]:
    p = Path(path)
    if not p.is_file():
        raise ArtifactError(f"missing {p}")
    lines = p.read_text().strip().splitlines()
    if not lines:
        raise ArtifactError(f"empty {p}")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _column(path, name: str, finite: bool = True) -> list[float]:
    header, rows = _csv(path)
    if name not in header:
        raise ArtifactError(f"{path}: no column {name!r}")
    i = header.index(name)
    try:
        vals = [float(r[i]) for r in rows]
    except (ValueError, IndexError) as e:
        raise ArtifactError(f"{path}: bad {name!r} field: {e}") from None
    if finite and not all(math.isfinite(v) for v in vals):
        raise ArtifactError(f"{path}: non-finite {name!r} value")
    return vals


def _pair_dirs(root) -> list[Path]:
    return sorted(p for p in Path(root).iterdir() if p.is_dir() and p.name.startswith("pair_"))


def _expect_pairs(root, n: int) -> list[Path]:
    dirs = _pair_dirs(root)
    if len(dirs) != n:
        raise ArtifactError(f"{root}: {len(dirs)} pair directories, expected {n}")
    return dirs


def _expect_file(path) -> None:
    if not Path(path).is_file():
        raise ArtifactError(f"missing {path}")


def check_synth(out, n: int) -> None:
    for d in _expect_pairs(out, n):
        for name in ("a.pgm", "b.pgm", "mask_a.pgm", "mask_b.pgm"):
            _expect_file(d / name)
        for name in ("gt_a.csv", "gt_b.csv"):
            for col in ("x", "y", "score"):
                _column(d / name, col)
        h = (d / "h.txt").read_text().split()
        if len(h) != 9 or not all(math.isfinite(float(v)) for v in h):
            raise ArtifactError(f"{d / 'h.txt'}: expected 9 finite values")


def check_train(out, n: int) -> None:
    _expect_file(Path(out) / "weights.dadw")
    header, rows = _csv(Path(out) / "loss.csv")
    if len(rows) != n:
        raise ArtifactError(f"{out}/loss.csv: {len(rows)} rows, expected {n}")
    for col in header:
        _column(Path(out) / "loss.csv", col)


def check_detect(out, n: int, size: int) -> None:
    for d in _expect_pairs(out, n):
        for name in ("a.csv", "b.csv"):
            xs, ys = _column(d / name, "x"), _column(d / name, "y")
            _column(d / name, "score")
            if not xs or not all(0 <= v <= size - 1 for v in xs + ys):
                raise ArtifactError(f"{d / name}: no keypoints or one outside the image")


def read_report(out) -> dict[str, float]:
    p = Path(out) / "report.txt"
    _expect_file(p)
    report = {}
    for line in p.read_text().splitlines():
        key, _, val = line.partition("=")
        report[key] = float(val)
    return report


def check_eval(out, n: int) -> None:
    report = read_report(out)
    for key in ("num_pairs", "auc_epe", "mean_repeatability", "mean_matches"):
        if not math.isfinite(report.get(key, math.nan)):
            raise ArtifactError(f"{out}/report.txt: {key} missing or non-finite")
    if report["num_pairs"] != n:
        raise ArtifactError(f"{out}/report.txt: num_pairs={report['num_pairs']}, expected {n}")
    per_pair = Path(out) / "per_pair.csv"
    for col in ("index", "repeatability", "num_covisible", "num_matches"):
        if len(_column(per_pair, col)) != n:
            raise ArtifactError(f"{per_pair}: expected {n} rows")
    _column(per_pair, "corner_epe", finite=False)


def check_distill(out, n: int) -> None:
    _expect_file(Path(out) / "student.dadw")
    if len(_column(Path(out) / "loss.csv", "loss")) != 2 * n:
        raise ArtifactError(f"{out}/loss.csv: expected {2 * n} rows")


def tail_mean(path, column: str, rows: int) -> float:
    vals = _column(path, column)
    tail = vals[-min(rows, len(vals)):]
    return sum(tail) / len(tail)


def count_no_model(out) -> int:
    """Rows of per_pair.csv whose RANSAC found no model (corner_epe=inf)."""
    return sum(1 for v in _column(Path(out) / "per_pair.csv", "corner_epe", finite=False)
               if math.isinf(v))


def loss_counters(out) -> tuple[int, float]:
    """(steps with zero mean reward, mean matches per step) from a train loss.csv."""
    rewards = _column(Path(out) / "loss.csv", "mean_raw_reward")
    matches = _column(Path(out) / "loss.csv", "num_matches")
    return sum(1 for r in rewards if r == 0), sum(matches) / len(matches)
