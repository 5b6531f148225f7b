"""Probability machinery on 2-D image grids.

Scoremaps hold per-pixel detection logits; a softmax over *all* pixels turns
them into a keypoint distribution.  Everything downstream (sampling, losses,
distillation) builds on the four operations here: stable softmax, masked
log-softmax, separable Gaussian smoothing, and KL divergence.

All arithmetic is float64.  Smoothing reflects at borders (half-sample
reflection), which makes it preserve constants, conserve total mass, and act
as an exactly self-adjoint operator; several gradient derivations downstream
rely on those three facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .errors import DegenerateMaskError, InvalidInputError, InvalidParameterError

KL_FLOOR = 1e-12


def _as_grid(x, name: str = "grid") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 2-D grid, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ScoreMap:
    """Per-pixel detection logits for one image (finite, at least 8x8)."""

    logits: np.ndarray

    def __post_init__(self):
        a = _as_grid(self.logits, "logits")
        if a.shape[0] < 8 or a.shape[1] < 8:
            raise InvalidInputError(f"scoremap smaller than 8x8: {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError("scoremap logits contain NaN/Inf")
        object.__setattr__(self, "logits", a)

    @property
    def height(self) -> int:
        return int(self.logits.shape[0])

    @property
    def width(self) -> int:
        return int(self.logits.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)


@dataclass(frozen=True)
class ProbMap:
    """Probability distribution over the pixel grid."""

    probs: np.ndarray

    def __post_init__(self):
        a = _as_grid(self.probs, "probs")
        if not np.isfinite(a).all():
            raise InvalidInputError("probabilities contain NaN/Inf")
        if np.any(a < 0):
            raise InvalidInputError("probabilities must be nonnegative")
        if abs(float(a.sum()) - 1.0) > 1e-9:
            raise InvalidInputError(f"probabilities sum to {a.sum()!r}, expected 1")
        object.__setattr__(self, "probs", a)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.probs.shape[0]), int(self.probs.shape[1]))


@dataclass(frozen=True)
class Mask:
    """Boolean pixel mask, True where a pixel participates."""

    bits: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.bits)
        if a.ndim != 2 or a.size == 0:
            raise InvalidInputError(f"mask must be a non-empty 2-D grid, got shape {a.shape}")
        object.__setattr__(self, "bits", a.astype(bool))

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.bits.shape[0]), int(self.bits.shape[1]))

    def count(self) -> int:
        return int(self.bits.sum())

    @classmethod
    def full(cls, shape) -> "Mask":
        return cls(np.ones(shape, dtype=bool))


@dataclass(frozen=True)
class LogProbMap:
    """Log-probabilities over masked pixels; -inf outside the mask."""

    logprobs: np.ndarray
    mask: Mask

    def __post_init__(self):
        a = np.asarray(self.logprobs, dtype=np.float64)
        if a.shape != self.mask.bits.shape:
            raise InvalidInputError("logprob grid and mask shapes differ")
        total = float(np.exp(a[self.mask.bits]).sum()) if self.mask.count() else 0.0
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"masked probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "logprobs", a)

    def probs(self) -> np.ndarray:
        """Probabilities with exact zeros outside the mask."""
        out = np.exp(self.logprobs)
        out[~self.mask.bits] = 0.0
        return out


def _logits_of(scoremap, name: str = "logits") -> np.ndarray:
    if isinstance(scoremap, ScoreMap):
        return scoremap.logits
    a = _as_grid(scoremap, name)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contain NaN/Inf")
    return a


def _probs_of(p, name: str = "probs") -> np.ndarray:
    if isinstance(p, ProbMap):
        return p.probs
    a = _as_grid(p, name)
    if not np.isfinite(a).all() or np.any(a < 0):
        raise InvalidInputError(f"{name} must be finite and nonnegative")
    return a


def softmax_2d(scoremap) -> ProbMap:
    """Softmax over all pixels, shifted by the max logit for stability."""
    z = _logits_of(scoremap)
    e = np.exp(z - z.max())
    return ProbMap(e / e.sum())


def masked_log_softmax(scoremap, mask) -> LogProbMap:
    """Log-softmax restricted to mask-true pixels; -inf elsewhere."""
    z = _logits_of(scoremap)
    bits = mask.bits if isinstance(mask, Mask) else np.asarray(mask, dtype=bool)
    if bits.shape != z.shape:
        raise InvalidInputError(f"mask shape {bits.shape} != logits shape {z.shape}")
    if not bits.any():
        raise DegenerateMaskError("mask has no true pixels")
    zm = z[bits]
    m = zm.max()
    lse = m + math.log(float(np.exp(zm - m).sum()))
    out = np.full(z.shape, -np.inf)
    out[bits] = z[bits] - lse
    return LogProbMap(out, Mask(bits))


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel truncated at radius ceil(3*sigma)."""
    if not (sigma > 0) or not math.isfinite(sigma):
        raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_blur(grid, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with reflecting borders.

    Preserves constants, conserves total mass, and is self-adjoint; those
    properties are load-bearing for the regularizer gradient.
    """
    a = _as_grid(grid)
    k = gaussian_kernel_1d(sigma)
    out = correlate1d(a, k, axis=0, mode="reflect")
    return correlate1d(out, k, axis=1, mode="reflect")


def kl_divergence(target, p, eps_floor: float = KL_FLOOR) -> float:
    """KL(target || p) with p floored at eps_floor; 0*log(0/x) taken as 0."""
    t = _probs_of(target, "target")
    q = _probs_of(p, "p")
    if t.shape != q.shape:
        raise InvalidInputError(f"shape mismatch {t.shape} vs {q.shape}")
    if not (eps_floor > 0):
        raise InvalidParameterError("eps_floor must be positive")
    pos = t > 0
    qf = np.maximum(q[pos], eps_floor)
    return float(np.sum(t[pos] * (np.log(t[pos]) - np.log(qf))))


def shifted(a: np.ndarray, dy: int, dx: int, fill: float) -> np.ndarray:
    """out[y, x] = a[y+dy, x+dx] where that index exists, else fill."""
    h, w = a.shape
    out = np.full_like(a, fill)
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    if ys.start < ys.stop and xs.start < xs.stop:
        out[ys, xs] = a[max(0, dy):min(h, h + dy), max(0, dx):min(w, w + dx)]
    return out
