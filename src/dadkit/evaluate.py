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
from .geometry import (HomographyTransfer, _covered, _homography_rule, _sq_dist, _sq_dists,
                       _transfer, covisible, match_mutual_nn, transfer_points)
from .sampler import KeypointSet
from .synth import POLARITIES, PairSample, classify_polarity, toy_pair_hits


def repeatability(ka: KeypointSet, kb: KeypointSet, t: HomographyTransfer,
                  threshold: float) -> float:
    """Fraction of covisible A keypoints re-found in B within threshold.

    Transfers every A keypoint into the B plane, keeps those landing inside
    B's bounds, and greedily assigns them one-to-one to B keypoints in order
    of increasing distance (ties in row-major order), among the pairs within
    threshold.  Returns NaN when nothing is covisible.
    """
    if not (threshold > 0):
        raise InvalidParameterError("threshold must be positive")
    if len(ka) == 0:
        return float("nan")
    moved, inside = covisible(t, ka.xy, kb.source_shape)
    n = int(inside.sum())
    if n == 0:
        return float("nan")
    if len(kb) == 0:
        return 0.0
    src = moved[inside]
    dst = kb.xy
    d = np.sqrt(_sq_dists(src, dst)).ravel()
    cand = np.flatnonzero(d <= threshold)
    used_a = np.zeros(len(src), dtype=bool)
    used_b = np.zeros(len(dst), dtype=bool)
    hits = 0
    for flat in cand[np.argsort(d[cand], kind="stable")]:
        i, j = divmod(int(flat), len(dst))
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        hits += 1
    return hits / n


def _hartley_normalization(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point set of a (B, n, 2) stack: the similarity taking it to centroid 0
    and mean norm sqrt(2), and whether its points are spread (not all coincident)."""
    centroid = pts.mean(axis=1)
    spread = np.sqrt(_sq_dist(pts, centroid[:, None])).mean(axis=1)
    spread_ok = spread >= 1e-12
    s = math.sqrt(2.0) / np.where(spread_ok, spread, 1.0)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, 0, 2] = -s * centroid[:, 0]
    t[:, 1, 2] = -s * centroid[:, 1]
    t[:, 2, 2] = 1.0
    return t, spread_ok


def _dlt_stack(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized DLT of every correspondence set of a (B, n, 2) stack, in one SVD call.

    Returns the (B, 3, 3) homographies, before the homography rule, and per
    set whether both point sets are spread and whether the system is flat
    (its solution is not unique).  The points must be finite.
    """
    ts, spread_s = _hartley_normalization(s)
    td, spread_d = _hartley_normalization(d)
    sn, _ = _transfer(ts, s)
    dn, _ = _transfer(td, d)
    b, n = s.shape[:2]
    a = np.zeros((b, 2 * n, 9))
    x, y = sn[..., 0], sn[..., 1]
    u, v = dn[..., 0], dn[..., 1]
    a[:, 0::2, 0], a[:, 0::2, 1], a[:, 0::2, 2] = -x, -y, -1.0
    a[:, 0::2, 6], a[:, 0::2, 7], a[:, 0::2, 8] = u * x, u * y, u
    a[:, 1::2, 3], a[:, 1::2, 4], a[:, 1::2, 5] = -x, -y, -1.0
    a[:, 1::2, 6], a[:, 1::2, 7], a[:, 1::2, 8] = v * x, v * y, v
    # U is never read.  From 9 rows on, vt is 9x9 either way, so U is reduced;
    # a 4-point system has 8 rows and needs the full vt for its null vector
    _, sv, vt = np.linalg.svd(a, full_matrices=2 * n < 9)
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = (sv[:, 0] > 0) & (sv[:, -2] / sv[:, 0] < 1e-10)
    h = np.linalg.inv(td) @ vt[:, -1].reshape(b, 3, 3) @ ts
    return h, spread_s & spread_d, flat


def _correspondences(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """src and dst as float64 arrays, checked to be (N, 2) each, N >= 4, all finite."""
    s = np.asarray(src, dtype=np.float64)
    d = np.asarray(dst, dtype=np.float64)
    if s.shape != d.shape or s.ndim != 2 or s.shape[1] != 2:
        raise InvalidInputError("src and dst must both be (N, 2)")
    if len(s) < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {len(s)}")
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise InvalidInputError("correspondences contain NaN/Inf")
    return s, d


def dlt_homography(src, dst) -> HomographyTransfer:
    """Least-squares homography via the normalized direct linear transform.

    Both point sets are translated to their centroid and scaled to mean
    norm sqrt(2) before solving; needs >= 4 correspondences with no three
    source points collinear.
    """
    s, d = _correspondences(src, dst)
    h, spread, flat = _dlt_stack(s[None], d[None])
    if not spread[0]:
        raise DegenerateInputError("points are (nearly) coincident")
    if flat[0]:
        raise DegenerateInputError("correspondence configuration is degenerate")
    try:
        return HomographyTransfer(h[0])
    except (InvalidInputError, DegenerateTransferError) as exc:
        raise DegenerateInputError(f"DLT produced a singular homography: {exc}") from exc


def _symmetric_errors(h: np.ndarray, src: np.ndarray, dst: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(B, N) symmetric transfer errors of a (B, 3, 3) stack of valid homographies,
    and per model whether its inverse is regular (a model with a singular inverse
    is unscored)."""
    inv = np.linalg.inv(h)
    bwd, finite, regular = _homography_rule(inv)
    if not finite.all():  # an error, as in HomographyTransfer.inverse
        raise InvalidInputError("homography contains NaN/Inf")
    pf, vf = _transfer(h, src)
    pb, vb = _transfer(bwd, dst)
    e_f = np.where(vf, np.sqrt(_sq_dist(pf, dst)), np.inf)
    e_b = np.where(vb, np.sqrt(_sq_dist(pb, src)), np.inf)
    return np.maximum(e_f, e_b), regular


def ransac_homography(src, dst, inlier_threshold: float = 2.0,
                      iterations: int = 200,
                      rng=None) -> tuple[HomographyTransfer, np.ndarray]:
    """4-point RANSAC with symmetric transfer error and an inlier refit.

    Draws every 4-point sample first, solves all of them in one SVD call and
    scores all models at once.  The best model has the most inliers, then
    the lowest mean inlier error; the earliest sample wins ties.  Any NaN/Inf
    correspondence raises InvalidInputError, whatever the samples.  A sample
    whose DLT fails or whose model or inverse is singular is skipped.
    Deterministic given the rng (a Generator or a seed).  The refit is kept
    only if it does not reduce the inlier count; otherwise the best sampled
    model is returned.
    """
    s, d = _correspondences(src, dst)
    if not (inlier_threshold > 0) or iterations < 1:
        raise InvalidParameterError("bad RANSAC parameters")
    gen = np.random.default_rng(rng)  # a Generator comes back unchanged

    idx = np.array([gen.choice(len(s), size=4, replace=False) for _ in range(iterations)])
    raw, spread, flat = _dlt_stack(s[idx], d[idx])
    fwd, _, regular = _homography_rule(raw)
    keep = np.flatnonzero(spread & ~flat & regular)
    err, scored = _symmetric_errors(fwd[keep], s, d)
    keep, err = keep[scored], err[scored]
    inl = err <= inlier_threshold
    count = inl.sum(axis=1)
    if not count.any():
        raise DegenerateInputError("RANSAC found no valid model")
    top = np.flatnonzero(count == count.max())
    best = top[np.argmin([err[r][inl[r]].mean() for r in top])]
    # built from the unscaled solve, as dlt_homography builds it, so its bits match
    best_h, best_in = HomographyTransfer(raw[keep[best]]), inl[best]
    if best_in.sum() >= 4:
        try:
            refit = dlt_homography(s[best_in], d[best_in])
        except DegenerateInputError:
            return best_h, best_in
        err, scored = _symmetric_errors(refit.h[None], s, d)
        inl2 = err[0] <= inlier_threshold
        if scored[0] and inl2.sum() >= best_in.sum():
            return refit, inl2
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
    dist = np.sqrt(_sq_dist(a, b)).mean()
    return float(dist * 480.0 / min(h, w))


def auc(errors, threshold: float) -> float:
    """Exact area under the cumulative accuracy curve of errors on [0, threshold].

    Errors are >= 0, with inf as the sentinel of a failed pair.  acc(tau) =
    fraction of errors <= tau is piecewise constant, so the integral is
    sum(max(threshold - e, 0)) / (n * threshold).
    """
    if not (threshold > 0) or not math.isfinite(threshold):
        raise InvalidParameterError("threshold must be positive and finite")
    e = np.asarray(errors, dtype=np.float64)
    if not (e >= 0).all():
        raise InvalidInputError("errors must be >= 0 (inf sentinel allowed)")
    if e.size == 0:
        raise InsufficientDataError("cannot integrate an empty error list")
    return float(np.maximum(threshold - e, 0.0).sum() / (e.size * threshold))


def detection_recall(kps: KeypointSet, gt: KeypointSet, radius: float) -> float:
    """Fraction of gt points with a detection within radius; NaN if gt empty."""
    if not (radius > 0):
        raise InvalidParameterError("radius must be positive")
    if len(gt) == 0:
        return float("nan")
    return float(_covered(gt.xy, kps.xy, radius).mean())


def polarity_recall(kps: KeypointSet, gt: KeypointSet, polarity: tuple[str, ...],
                    radius: float) -> dict[str, float]:
    """detection_recall split by gt polarity label; NaN for absent labels."""
    if not (radius > 0):
        raise InvalidParameterError("radius must be positive")
    labels = np.array(polarity, dtype=str)
    if len(labels) != len(gt) or not np.isin(labels, POLARITIES).all():
        raise InvalidInputError("polarity needs one label per gt point, 'light' or 'dark'")
    covered = _covered(gt.xy, kps.xy, radius)
    out = {}
    for label in POLARITIES:
        mine = covered[labels == label]
        out[label] = float(mine.mean()) if len(mine) else float("nan")
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
        for name in ("match_threshold", "ransac_threshold", "auc_threshold", "recall_radius",
                     "hit_radius"):
            if not (getattr(self, name) > 0):
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.auc_threshold):
            raise InvalidParameterError(f"auc_threshold must be finite, got {self.auc_threshold}")
        if self.ransac_iterations < 1:
            raise InvalidParameterError("ransac_iterations must be >= 1")


PER_PAIR_FIELDS = (
    "index", "kind", "repeatability", "num_covisible", "num_matches",
    "corner_epe", "toy_hits", "recall_light", "recall_dark", "frac_light", "frac_dark",
)


def _nanmean(values) -> float:
    """np.nanmean of a 1-D sequence, by its sum and division (so the same bits),
    and NaN with no warning when every value is NaN."""
    v = np.asarray(values, dtype=np.float64)
    nan = np.isnan(v)
    n = v.size - np.count_nonzero(nan)
    return float(np.where(nan, 0.0, v).sum() / n) if n else math.nan


def _toy_row(pair: PairSample, ka: KeypointSet, kb: KeypointSet, cfg: EvalConfig) -> dict:
    hits = toy_pair_hits(pair, ka, kb, cfg.hit_radius)
    labels = (classify_polarity(ka, pair.gt_keypoints_a, pair.polarity_a, cfg.hit_radius)
              + classify_polarity(kb, pair.gt_keypoints_b, pair.polarity_b, cfg.hit_radius))
    total = max(len(labels), 1)
    return {
        "toy_hits": float(hits),
        "frac_light": labels.count("light") / total,
        "frac_dark": labels.count("dark") / total,
    }


def _scene_row(pair: PairSample, ka: KeypointSet, kb: KeypointSet, cfg: EvalConfig,
               rng: np.random.Generator) -> dict:
    rep = repeatability(ka, kb, pair.transfer, cfg.match_threshold)
    covis = int(covisible(pair.transfer, ka.xy, pair.image_b.shape)[1].sum())
    mab, _ = match_mutual_nn(ka, kb, pair.transfer, cfg.match_threshold * 2)
    epe = float("inf")
    if len(mab) >= 4:
        try:
            h_hat, _ = ransac_homography(ka.xy[mab.ia], kb.xy[mab.ib],
                                         cfg.ransac_threshold, cfg.ransac_iterations, rng)
            epe = corner_epe(h_hat, pair.transfer, pair.image_a.shape)
        except (DegenerateInputError, InsufficientDataError):
            pass
    return {
        "repeatability": rep,
        "num_covisible": float(covis),
        "num_matches": float(len(mab)),
        "corner_epe": epe,
    }


def evaluate_detections(samples, detections, cfg: EvalConfig | None = None
                        ) -> tuple[dict[str, float], list[dict]]:
    """Score detections for a list of pairs.

    samples: PairSamples; detections: matching list of (ka, kb).  Scene
    pairs get repeatability / RANSAC / corner-EPE metrics, toy pairs get
    identity-hit and polarity metrics, and every pair gets the polarity
    recall of A and B averaged (within hit_radius on toy pairs, recall_radius
    on scenes); missing metrics are NaN in the rows.
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
            radius = cfg.hit_radius
        else:
            row.update(_scene_row(pair, ka, kb, cfg, rng))
            radius = cfg.recall_radius
        ra = polarity_recall(ka, pair.gt_keypoints_a, pair.polarity_a, radius)
        rb = polarity_recall(kb, pair.gt_keypoints_b, pair.polarity_b, radius)
        for label in POLARITIES:
            row[f"recall_{label}"] = _nanmean([ra[label], rb[label]])
        rows.append(row)

    summary: dict[str, float] = {"num_pairs": float(len(rows))}
    scene_rows = [r for r in rows if r["kind"] == "scene"]
    toy_rows = [r for r in rows if r["kind"] == "toy"]
    if scene_rows:
        reps = [r["repeatability"] for r in scene_rows]
        summary["mean_repeatability"] = _nanmean(reps)
        summary["repeatability_pairs"] = float(np.count_nonzero(~np.isnan(reps)))
        epes = [r["corner_epe"] for r in scene_rows]
        summary["auc_epe"] = auc(epes, cfg.auc_threshold)
        summary["median_epe"] = float(np.median(epes))
        summary["mean_matches"] = float(np.mean([r["num_matches"] for r in scene_rows]))
    if toy_rows:
        summary["toy_mean_hits"] = float(np.mean([r["toy_hits"] for r in toy_rows]))
        for key in ("frac_light", "frac_dark"):
            summary[f"toy_{key}"] = float(np.mean([r[key] for r in toy_rows]))
    for label in POLARITIES:
        mean = _nanmean([r[f"recall_{label}"] for r in rows])
        if not math.isnan(mean):  # absent when no pair holds the label
            summary[f"recall_{label}"] = mean
    return summary, rows
