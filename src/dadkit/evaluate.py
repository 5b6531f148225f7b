"""Geometric evaluation: repeatability, robust homography fit, error metrics.

Detections are scored against exact ground-truth transfers: repeatability
counts re-detected covisible keypoints, a normalized DLT plus RANSAC
re-estimates the homography from matched detections, corner end-point error
compares it against ground truth at a resolution-normalized scale, and AUC
integrates the empirical accuracy curve exactly.  A small harness runs all
of it over a dataset and returns summary plus per-pair rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateTransferError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
)
from .geometry import HomographyTransfer, covisible, match_mutual_nn, transfer_points
from .sampler import KeypointSet
from .synth import PairSample, classify_polarity, toy_pair_hits


@dataclass(frozen=True)
class ErrorCurve:
    """Per-pair nonnegative errors plus the integration threshold."""

    errors: tuple[float, ...]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "errors", tuple(float(e) for e in self.errors))
        if not (self.threshold > 0) or not np.isfinite(self.threshold):
            raise InvalidParameterError("threshold must be positive and finite")
        for e in self.errors:
            if math.isnan(e) or e < 0:
                raise InvalidInputError("errors must be >= 0 (inf sentinel allowed)")


def repeatability(ka: KeypointSet, kb: KeypointSet, t: HomographyTransfer,
                  threshold: float) -> float:
    """Fraction of covisible A keypoints re-found in B within threshold.

    Transfers every A keypoint into the B plane, keeps those landing inside
    B's bounds, and greedily assigns them one-to-one to B keypoints in order
    of increasing distance.  Returns NaN when nothing is covisible.
    """
    if not (threshold > 0):
        raise InvalidParameterError("threshold must be positive")
    if len(ka) == 0:
        return float("nan")
    moved, inside = covisible(t, ka.xy(), kb.source_shape)
    n = int(inside.sum())
    if n == 0:
        return float("nan")
    if len(kb) == 0:
        return 0.0
    src = moved[inside]
    dst = kb.xy()
    d = np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2))
    order = np.argsort(d, axis=None, kind="stable")
    used_a = np.zeros(len(src), dtype=bool)
    used_b = np.zeros(len(dst), dtype=bool)
    hits = 0
    for flat in order:
        i, j = divmod(int(flat), len(dst))
        if d[i, j] > threshold:
            break
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        hits += 1
    return hits / n


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    centroid = pts.mean(axis=0)
    spread = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if spread < 1e-12:
        raise DegenerateInputError("points are (nearly) coincident")
    s = math.sqrt(2.0) / spread
    return np.array([
        [s, 0.0, -s * centroid[0]],
        [0.0, s, -s * centroid[1]],
        [0.0, 0.0, 1.0],
    ])


def dlt_homography(src, dst) -> HomographyTransfer:
    """Least-squares homography via the normalized direct linear transform.

    Both point sets are translated to their centroid and scaled to mean
    norm sqrt(2) before solving; needs >= 4 correspondences with no three
    source points collinear.
    """
    s = np.asarray(src, dtype=np.float64)
    d = np.asarray(dst, dtype=np.float64)
    if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
        raise InvalidInputError("src and dst must both be (N, 2)")
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise InvalidInputError("correspondences contain NaN/Inf")
    n = s.shape[0]
    if n < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {n}")
    ts, td = _hartley_normalization(s), _hartley_normalization(d)
    sn = (np.hstack([s, np.ones((n, 1))]) @ ts.T)[:, :2]
    dn = (np.hstack([d, np.ones((n, 1))]) @ td.T)[:, :2]
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0], a[0::2, 1], a[0::2, 2] = -x, -y, -1.0
    a[0::2, 6], a[0::2, 7], a[0::2, 8] = u * x, u * y, u
    a[1::2, 3], a[1::2, 4], a[1::2, 5] = -x, -y, -1.0
    a[1::2, 6], a[1::2, 7], a[1::2, 8] = v * x, v * y, v
    _, sv, vt = np.linalg.svd(a)
    if sv[0] > 0 and sv[-2] / sv[0] < 1e-10:
        raise DegenerateInputError("correspondence configuration is degenerate")
    hn = vt[-1].reshape(3, 3)
    try:
        return HomographyTransfer(np.linalg.inv(td) @ hn @ ts)
    except Exception as exc:
        raise DegenerateInputError(f"DLT produced a singular homography: {exc}") from exc


def _symmetric_errors(h: HomographyTransfer, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    fwd, vf = transfer_points(h, src)
    bwd, vb = transfer_points(h.inverse(), dst)
    e_f = np.where(vf, np.sqrt(((fwd - dst) ** 2).sum(axis=1)), np.inf)
    e_b = np.where(vb, np.sqrt(((bwd - src) ** 2).sum(axis=1)), np.inf)
    return np.maximum(e_f, e_b)


def ransac_homography(src, dst, inlier_threshold: float = 2.0,
                      iterations: int = 200,
                      rng=None) -> tuple[HomographyTransfer, np.ndarray]:
    """4-point RANSAC with symmetric transfer error and an inlier refit.

    Deterministic given the rng (a Generator or a seed).  The refit is kept
    only if it does not reduce the inlier count; otherwise the best sampled
    model is returned.
    """
    s = np.asarray(src, dtype=np.float64)
    d = np.asarray(dst, dtype=np.float64)
    if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
        raise InvalidInputError("src and dst must both be (N, 2)")
    n = s.shape[0]
    if n < 4:
        raise InsufficientDataError(f"need >= 4 matches, got {n}")
    if not (inlier_threshold > 0) or iterations < 1:
        raise InvalidParameterError("bad RANSAC parameters")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    best_h: HomographyTransfer | None = None
    best_in = np.zeros(n, dtype=bool)
    best_score = (-1, np.inf)
    for _ in range(iterations):
        idx = gen.choice(n, size=4, replace=False)
        try:
            h = dlt_homography(s[idx], d[idx])
            # scoring inverts h; a barely nonsingular sample can fail there
            err = _symmetric_errors(h, s, d)
        except (DegenerateInputError, InsufficientDataError, DegenerateTransferError):
            continue
        inl = err <= inlier_threshold
        count = int(inl.sum())
        mean_err = float(err[inl].mean()) if count else np.inf
        if (-count, mean_err) < best_score:
            best_score = (-count, mean_err)
            best_h, best_in = h, inl
    if best_h is None or not best_in.any():
        raise DegenerateInputError("RANSAC found no valid model")
    if best_in.sum() >= 4:
        try:
            refit = dlt_homography(s[best_in], d[best_in])
            inl2 = _symmetric_errors(refit, s, d) <= inlier_threshold
            if inl2.sum() >= best_in.sum():
                return refit, inl2
        except (DegenerateInputError, InsufficientDataError, DegenerateTransferError):
            pass
    return best_h, best_in


def corner_epe(h_hat: HomographyTransfer, h_gt: HomographyTransfer, shape) -> float:
    """Mean corner transfer discrepancy, normalized by 480/min(H, W).

    Averages the distance between the two transfers of the four image
    corners; a corner sent to infinity by either map yields the inf
    sentinel.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise InvalidInputError("shape must be positive")
    corners = np.array([
        [0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0], [w - 1.0, h - 1.0],
    ])
    a, va = transfer_points(h_hat, corners)
    b, vb = transfer_points(h_gt, corners)
    if not (va.all() and vb.all()):
        return float("inf")
    dist = np.sqrt(((a - b) ** 2).sum(axis=1)).mean()
    return float(dist * 480.0 / min(h, w))


def auc(curve: ErrorCurve) -> float:
    """Exact area under the cumulative accuracy curve on [0, threshold].

    acc(tau) = fraction of errors <= tau is piecewise constant, so the
    integral is sum(max(threshold - e, 0)) / (n * threshold).
    """
    e = np.asarray(curve.errors, dtype=np.float64)
    if e.size == 0:
        raise InsufficientDataError("cannot integrate an empty error list")
    return float(np.maximum(curve.threshold - e, 0.0).sum() / (e.size * curve.threshold))


def detection_recall(kps: KeypointSet, gt: KeypointSet, radius: float) -> float:
    """Fraction of gt points with a detection within radius; NaN if gt empty."""
    if not (radius > 0):
        raise InvalidParameterError("radius must be positive")
    if len(gt) == 0:
        return float("nan")
    if len(kps) == 0:
        return 0.0
    d2 = ((gt.xy()[:, None, :] - kps.xy()[None, :, :]) ** 2).sum(axis=2)
    return float((d2.min(axis=1) <= radius * radius).mean())


def polarity_recall(kps: KeypointSet, gt: KeypointSet, polarity: tuple[str, ...],
                    radius: float) -> dict[str, float]:
    """detection_recall split by gt polarity label; NaN for absent labels."""
    out = {}
    for label in ("light", "dark"):
        keep = tuple(i for i, p in enumerate(polarity) if p == label)
        sub = KeypointSet(tuple(gt.keypoints[i] for i in keep), gt.source_shape)
        out[label] = detection_recall(kps, sub, radius)
    return out


@dataclass(frozen=True)
class EvalConfig:
    """Thresholds for the harness; pixel units, desk-scale defaults."""

    match_threshold: float = 2.0
    ransac_threshold: float = 2.0
    ransac_iterations: int = 200
    auc_threshold: float = 3.0
    recall_radius: float = 2.0
    hit_radius: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if min(self.match_threshold, self.ransac_threshold, self.auc_threshold,
               self.recall_radius, self.hit_radius) <= 0:
            raise InvalidParameterError("thresholds must be positive")
        if self.ransac_iterations < 1:
            raise InvalidParameterError("ransac_iterations must be >= 1")


PER_PAIR_FIELDS = (
    "index", "kind", "repeatability", "num_covisible", "num_matches",
    "corner_epe", "toy_hits", "recall_light", "recall_dark", "frac_light", "frac_dark",
)


def _toy_row(pair: PairSample, ka: KeypointSet, kb: KeypointSet, cfg: EvalConfig) -> dict:
    hits = toy_pair_hits(pair, ka, kb, cfg.hit_radius)
    labels = (classify_polarity(ka, pair.gt_keypoints_a, pair.polarity_a, cfg.hit_radius)
              + classify_polarity(kb, pair.gt_keypoints_b, pair.polarity_b, cfg.hit_radius))
    total = max(len(labels), 1)
    ra = polarity_recall(ka, pair.gt_keypoints_a, pair.polarity_a, cfg.hit_radius)
    rb = polarity_recall(kb, pair.gt_keypoints_b, pair.polarity_b, cfg.hit_radius)
    return {
        "toy_hits": float(hits),
        "frac_light": labels.count("light") / total,
        "frac_dark": labels.count("dark") / total,
        "recall_light": np.nanmean([ra["light"], rb["light"]]),
        "recall_dark": np.nanmean([ra["dark"], rb["dark"]]),
    }


def _scene_row(pair: PairSample, ka: KeypointSet, kb: KeypointSet, cfg: EvalConfig,
               rng: np.random.Generator) -> dict:
    rep = repeatability(ka, kb, pair.transfer, cfg.match_threshold)
    covis = int(covisible(pair.transfer, ka.xy(), pair.image_b.shape)[1].sum())
    mab, _ = match_mutual_nn(ka, kb, pair.transfer, cfg.match_threshold * 2)
    epe = float("inf")
    if len(mab) >= 4:
        src = ka.xy()[[ia for ia, _, _ in mab.pairs]]
        dst = kb.xy()[[ib for _, ib, _ in mab.pairs]]
        try:
            h_hat, _ = ransac_homography(src, dst, cfg.ransac_threshold,
                                         cfg.ransac_iterations, rng)
            epe = corner_epe(h_hat, pair.transfer, pair.image_a.shape)
        except (DegenerateInputError, InsufficientDataError):
            pass
    ra = polarity_recall(ka, pair.gt_keypoints_a, pair.polarity_a, cfg.recall_radius)
    rb = polarity_recall(kb, pair.gt_keypoints_b, pair.polarity_b, cfg.recall_radius)
    return {
        "repeatability": rep,
        "num_covisible": float(covis),
        "num_matches": float(len(mab)),
        "corner_epe": epe,
        "recall_light": np.nanmean([ra["light"], rb["light"]]),
        "recall_dark": np.nanmean([ra["dark"], rb["dark"]]),
    }


def evaluate_detections(samples, detections, cfg: EvalConfig | None = None
                        ) -> tuple[dict[str, float], list[dict]]:
    """Score detections for a list of pairs.

    samples: PairSamples; detections: matching list of (ka, kb).  Scene
    pairs get repeatability / RANSAC / corner-EPE metrics, toy pairs get
    identity-hit and polarity metrics; missing metrics are NaN in the rows.
    Returns (summary, per-pair rows).
    """
    cfg = cfg or EvalConfig()
    samples = list(samples)
    detections = list(detections)
    if len(samples) != len(detections):
        raise InvalidInputError("samples and detections must align")
    if not samples:
        raise InsufficientDataError("nothing to evaluate")
    rows: list[dict] = []
    rng = np.random.default_rng(cfg.seed)
    for i, (pair, (ka, kb)) in enumerate(zip(samples, detections)):
        row = {f: float("nan") for f in PER_PAIR_FIELDS}
        row["index"] = float(i)
        row["kind"] = pair.kind
        if pair.kind == "toy":
            row.update(_toy_row(pair, ka, kb, cfg))
        else:
            row.update(_scene_row(pair, ka, kb, cfg, rng))
        rows.append(row)

    summary: dict[str, float] = {"num_pairs": float(len(rows))}
    scene_rows = [r for r in rows if r["kind"] == "scene"]
    toy_rows = [r for r in rows if r["kind"] == "toy"]
    if scene_rows:
        reps = np.array([r["repeatability"] for r in scene_rows])
        summary["mean_repeatability"] = float(np.nanmean(reps)) if not np.isnan(reps).all() else float("nan")
        summary["repeatability_pairs"] = float(np.count_nonzero(~np.isnan(reps)))
        epes = [r["corner_epe"] for r in scene_rows]
        summary["auc_epe"] = auc(ErrorCurve(tuple(epes), cfg.auc_threshold))
        summary["median_epe"] = float(np.median(epes))
        summary["mean_matches"] = float(np.mean([r["num_matches"] for r in scene_rows]))
    if toy_rows:
        summary["toy_mean_hits"] = float(np.mean([r["toy_hits"] for r in toy_rows]))
        for key in ("frac_light", "frac_dark"):
            summary[f"toy_{key}"] = float(np.mean([r[key] for r in toy_rows]))
    for key in ("recall_light", "recall_dark"):
        vals = np.array([r[key] for r in rows], dtype=np.float64)
        if not np.isnan(vals).all():
            summary[key] = float(np.nanmean(vals))
    return summary, rows


def write_report(report_path, csv_path, summary: dict, rows: list[dict]) -> None:
    """Text key=value summary plus a per-pair CSV."""
    lines = [f"{k}={summary[k]:.9g}" for k in sorted(summary)]
    with open(report_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(csv_path, "w") as f:
        f.write(",".join(PER_PAIR_FIELDS) + "\n")
        for row in rows:
            cells = []
            for field in PER_PAIR_FIELDS:
                v = row[field]
                cells.append(v if isinstance(v, str) else f"{v:.9g}")
            f.write(",".join(cells) + "\n")
