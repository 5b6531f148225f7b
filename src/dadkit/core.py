"""Probability machinery on 2-D image grids.

Scoremaps hold per-pixel detection logits; a softmax over *all* pixels turns
them into a keypoint distribution.  Everything downstream (sampling, losses,
distillation) builds on the four operations here: stable softmax, masked
log-softmax, separable Gaussian smoothing, and KL divergence.

Grids are plain 2-D arrays: float64 for logits and probabilities, bool for
pixel masks.  The functions here check a grid they are handed (shape, and
finite logits or finite nonnegative probabilities) and return arrays.

All arithmetic is float64.  Smoothing reflects at borders (half-sample
reflection), which makes it preserve constants, conserve total mass, and act
as an exactly self-adjoint operator; several gradient derivations downstream
rely on those three facts.

The blur's summation order is part of its contract, because every artifact
downstream depends on its bits.  Each output pixel along an axis is
x[i] * k[r], then (x[i-j] + x[i+j]) * k[r-j] added for j = r down to 1,
outermost pair first: the order of the reference 1-D correlation with a
symmetric kernel, which the tests compare bit for bit.  Taking the same sum
innermost first changes the last bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, check_range

KL_FLOOR = 1e-12
# Below this width the outer taps, exp(-1 / (2 sigma^2)) < exp(-800), are 0: the
# kernel is the delta, returned as such, as 2 sigma^2 may underflow to 0.
_DELTA_SIGMA = 0.025


def _as_grid(x, name: str = "grid") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 2-D grid, got shape {a.shape}")
    return a


def _logits_of(z, name: str = "logits") -> np.ndarray:
    a = _as_grid(z, name)
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contain NaN/Inf")
    return a


def _probs_of(p, name: str = "probs") -> np.ndarray:
    a = _as_grid(p, name)
    if not np.isfinite(a).all() or np.any(a < 0):
        raise InvalidInputError(f"{name} must be finite and nonnegative")
    return a


def softmax_2d(z) -> np.ndarray:
    """Softmax over all pixels, shifted by the max logit for stability."""
    z = _logits_of(z)
    e = np.exp(z - z.max())
    return e / e.sum()


def masked_log_softmax(z, mask) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax restricted to mask-true pixels, -inf elsewhere, and its
    exponential: (logp, p), with p exactly 0 outside the mask.

    Huge logits can make the masked mass miss 1 (the log-sum-exp absorbs the
    log of the count of tied maxima); that raises InvalidInputError.
    """
    z = _logits_of(z)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != z.shape:
        raise InvalidInputError(f"mask shape {mask.shape} != logits shape {z.shape}")
    if not mask.any():
        raise InvalidInputError("mask has no true pixels")
    zm = z[mask]
    m = zm.max()
    lse = m + math.log(float(np.exp(zm - m).sum()))
    logp = np.full(z.shape, -np.inf)
    logp[mask] = zm - lse
    p = np.exp(logp)
    total = float(p[mask].sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidInputError(f"masked probabilities sum to {total!r}, expected 1")
    return logp, p


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel truncated at radius ceil(3*sigma)."""
    check_range("sigma", sigma, gt=0, lt=math.inf)
    if sigma < _DELTA_SIGMA:
        return np.array([0.0, 1.0, 0.0])
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
    out = _correlate_columns(a, k)
    return np.ascontiguousarray(_correlate_columns(out.T, k).T)


def _correlate_columns(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Correlate each column of `a` with the odd symmetric kernel `k`,
    reflecting half-sample at the borders, summed in the module's order."""
    r = len(k) // 2
    n = a.shape[0]
    # Folding modulo 2n reflects as often as a grid shorter than r needs.
    i = np.mod(np.arange(-r, n + r), 2 * n)
    p = a[np.where(i < n, i, 2 * n - 1 - i)]
    out = p[r:r + n] * k[r]
    for j in range(r, 0, -1):
        out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * k[r - j]
    return out


def kl_divergence(target, p) -> float:
    """KL(target || p) with p floored at KL_FLOOR; 0*log(0/x) taken as 0."""
    t = _probs_of(target, "target")
    q = _probs_of(p, "p")
    if t.shape != q.shape:
        raise InvalidInputError(f"shape mismatch {t.shape} vs {q.shape}")
    pos = t > 0
    qf = np.maximum(q[pos], KL_FLOOR)
    return float(np.sum(t[pos] * (np.log(t[pos]) - np.log(qf))))


def _window_offsets(r: int) -> list[tuple[int, int]]:
    """(dy, dx) of each neighbour in a (2r+1)-square window, in raster order."""
    return [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1) if dy or dx]


def shifted(a: np.ndarray, dy: int, dx: int, fill: float) -> np.ndarray:
    """out[y, x] = a[y+dy, x+dx] where that index exists, else fill."""
    h, w = a.shape
    out = np.full_like(a, fill)
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    if ys.start < ys.stop and xs.start < xs.stop:
        out[ys, xs] = a[max(0, dy):min(h, h + dy), max(0, dx):min(w, w + dx)]
    return out
