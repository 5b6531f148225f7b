"""Merging two detectors into one student.

A light-sensitive and a dark-sensitive detector are combined by taking a
generalized mean of their probability maps (the r = infinity case is the
pointwise maximum), renormalizing, and training a fresh network to match
that target under a KL objective.  The module also ships an executable
account of why the maximum is the right merge: local-maxima extraction with
an explicit plateau rule, and a checker that classifies two unimodal bumps
as partners or subsumed and verifies that their pointwise max never grows
new maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .core import ProbMap, _probs_of, kl_divergence, shifted, softmax_2d
from .errors import InvalidInputError, InvalidParameterError
from .model import (
    AdamW,
    ArchConfig,
    DetectorParams,
    OptState,
    backward,
    forward,
    init_params,
    optimizer_step,
)
from .synth import SceneConfig, make_pair

MERGE_EXPONENTS = (1, 2, math.inf)


def _check_exponent(r) -> None:
    if r not in MERGE_EXPONENTS:
        raise InvalidParameterError(f"r must be one of {MERGE_EXPONENTS}, got {r}")


def generalized_mean(a, b, r) -> np.ndarray:
    """Pointwise M_r(a, b) = ((a^r + b^r)/2)^(1/r); r = inf is the maximum."""
    _check_exponent(r)
    pa = _probs_of(a, "a")
    pb = _probs_of(b, "b")
    if pa.shape != pb.shape:
        raise InvalidInputError(f"shape mismatch {pa.shape} vs {pb.shape}")
    if r == math.inf:
        return np.maximum(pa, pb)
    if r == 1:
        return 0.5 * (pa + pb)
    return np.sqrt(0.5 * (pa * pa + pb * pb))


def distill_target(p_light, p_dark, r) -> ProbMap:
    """Renormalized generalized mean of two normalized maps."""
    m = generalized_mean(p_light, p_dark, r)
    total = m.sum()
    if total <= 0:
        raise InvalidInputError("merged map sums to zero")
    return ProbMap(m / total)


def distill_loss_and_grad(target, s) -> tuple[float, np.ndarray]:
    """KL(target || softmax(s)) and its exact logit gradient softmax(s) - target."""
    t = _probs_of(target, "target")
    p = softmax_2d(s)
    if t.shape != p.probs.shape:
        raise InvalidInputError(f"shape mismatch {t.shape} vs {p.probs.shape}")
    loss = kl_divergence(t, p)
    return loss, p.probs - t


def _maxima_candidates(v: np.ndarray) -> np.ndarray:
    """Pixels >= all existing 8-neighbors and > at least one of them."""
    ge_all = np.ones(v.shape, dtype=bool)
    gt_any = np.zeros(v.shape, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            ge_all &= v >= shifted(v, dy, dx, -np.inf)
            gt_any |= v > shifted(v, dy, dx, np.inf)
    return ge_all & gt_any


def local_maxima(grid) -> set[tuple[int, int]]:
    """Strict-ish local maxima of a 2-D map as a set of (y, x) pixels.

    A pixel qualifies when it is >= all its 8-neighbors and > at least one
    of them (so plateau interiors and constant maps yield nothing).  Within
    a connected plateau of qualifying pixels, only the raster-first pixel is
    reported.  Adjacent qualifying pixels are necessarily equal-valued, so
    8-connected components of the qualifying mask are exactly the plateaus.
    """
    v = np.asarray(grid, dtype=np.float64)
    if v.ndim != 2:
        raise InvalidInputError(f"grid must be 2-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInputError("grid contains NaN/Inf")
    cand = _maxima_candidates(v)
    if not cand.any():
        return set()
    labels, _ = ndimage.label(cand, structure=np.ones((3, 3), dtype=int))
    flat = labels.ravel()
    ids, first = np.unique(flat, return_index=True)
    w = v.shape[1]
    return {(int(i // w), int(i % w)) for lab, i in zip(ids, first) if lab != 0}


@dataclass(frozen=True)
class KeypointFunction:
    """A discretized smooth bump: nonnegative, compact support, one peak.

    `values` must vanish on the grid border (compact support inside the
    grid) and have exactly one local maximum, its mode.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] < 3:
            raise InvalidInputError("keypoint function needs a 2-D grid of at least 3x3")
        if not np.isfinite(v).all() or v.min() < 0:
            raise InvalidInputError("keypoint function values must be finite and >= 0")
        if v.max() <= 0:
            raise InvalidInputError("keypoint function must be positive somewhere")
        border = np.concatenate([v[0], v[-1], v[:, 0], v[:, -1]])
        if border.max() > 0:
            raise InvalidInputError("support must not touch the grid border")
        peaks = local_maxima(v)
        if len(peaks) != 1:
            raise InvalidInputError(f"keypoint function must be unimodal, found {len(peaks)} peaks")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def mode(self) -> tuple[int, int]:
        """(y, x) of the peak; raster-first on an exact tie."""
        idx = int(np.argmax(self.values))
        w = self.values.shape[1]
        return (idx // w, idx % w)

    @property
    def support(self) -> np.ndarray:
        return self.values > 0


def make_bump(shape, cx: float, cy: float, radius: float, height: float = 1.0) -> KeypointFunction:
    """Smooth compact bump height*(1 - (d/radius)^2)^3 centered at (cx, cy)."""
    h, w = int(shape[0]), int(shape[1])
    if radius <= 0 or height <= 0:
        raise InvalidParameterError("radius and height must be positive")
    ys, xs = np.mgrid[0:h, 0:w]
    d2 = (xs - cx) ** 2 + (ys - cy) ** 2
    t = np.maximum(0.0, 1.0 - d2 / (radius * radius))
    return KeypointFunction(height * t ** 3)


def _dominates_at(mode: tuple[int, int], f: np.ndarray, g: np.ndarray) -> bool:
    """f >= g on the 3x3 pixel neighborhood of the mode (clipped to grid)."""
    y, x = mode
    ys = slice(max(y - 1, 0), min(y + 2, f.shape[0]))
    xs = slice(max(x - 1, 0), min(x + 2, f.shape[1]))
    return bool((f[ys, xs] >= g[ys, xs]).all())


def check_partner_merge(f: KeypointFunction, g: KeypointFunction) -> str:
    """Classify a bump pair and verify the merge theorems on it.

    Verdicts: "partner" (each function dominates the 3x3 neighborhood of
    its own mode, the smallest discrete neighborhood), "f-subsumed" /
    "g-subsumed" (only one does), "mutual" (neither does).  Afterwards the
    pointwise max is checked: its maxima are always a subset of the two
    functions' maxima, and for partners exactly the two modes.  A violation
    raises AssertionError, since those are theorem statements.
    """
    if not isinstance(f, KeypointFunction) or not isinstance(g, KeypointFunction):
        raise InvalidInputError("check_partner_merge expects two KeypointFunctions")
    if f.values.shape != g.values.shape:
        raise InvalidInputError("keypoint functions must share a grid")
    f_ok = _dominates_at(f.mode, f.values, g.values)
    g_ok = _dominates_at(g.mode, g.values, f.values)
    if f_ok and g_ok:
        verdict = "partner"
    elif g_ok:
        verdict = "f-subsumed"
    elif f_ok:
        verdict = "g-subsumed"
    else:
        verdict = "mutual"

    merged_maxima = local_maxima(np.maximum(f.values, g.values))
    allowed = local_maxima(f.values) | local_maxima(g.values)
    if not merged_maxima <= allowed:
        raise AssertionError(
            f"max grew new maxima: {sorted(merged_maxima - allowed)} not in {sorted(allowed)}"
        )
    if verdict == "partner" and merged_maxima != {f.mode, g.mode}:
        raise AssertionError(
            f"partner merge lost a mode: got {sorted(merged_maxima)}, "
            f"expected {sorted({f.mode, g.mode})}"
        )
    return verdict


@dataclass(frozen=True)
class DistillConfig:
    """Student training setup: data source (pairs 0..num_pairs-1 of stream
    `seed` under `scene`), merge exponent r, optimizer."""

    scene: SceneConfig = field(default_factory=SceneConfig.scenes)
    r: float = math.inf
    arch: ArchConfig = field(default_factory=ArchConfig)
    num_pairs: int = 400
    seed: int = 0
    opt: AdamW = field(default_factory=AdamW)

    def __post_init__(self):
        _check_exponent(self.r)
        if self.num_pairs < 1:
            raise InvalidParameterError("num_pairs must be >= 1")


def _student_step(student: DetectorParams, image, target) -> tuple[float, DetectorParams]:
    """One student image: (KL loss against the merged target, parameter gradients)."""
    s, cache = forward(student, image)
    loss, grad = distill_loss_and_grad(target, s)
    return loss, backward(cache, grad)


def train_distilled(light: DetectorParams, dark: DetectorParams,
                    cfg: DistillConfig) -> tuple[DetectorParams, list[float]]:
    """Train a fresh student against the merged teacher target.

    Each generated pair contributes two optimizer steps, one per image.
    Teacher maps are rendered on the fly; everything is deterministic given
    the config.  Returns the student and the per-image loss trace.
    """
    student = init_params(cfg.arch)
    state = OptState.init(student, cfg.opt)
    losses: list[float] = []
    for i in range(cfg.num_pairs):
        pair = make_pair(cfg.scene, cfg.seed, i)
        for image in (pair.image_a, pair.image_b):
            s_light, _ = forward(light, image)
            s_dark, _ = forward(dark, image)
            target = distill_target(softmax_2d(s_light), softmax_2d(s_dark), cfg.r)
            loss, grads = _student_step(student, image, target)
            student, state = optimizer_step(student, grads, state)
            losses.append(loss)
    return student, losses
