"""Balanced top-K keypoint selection from scoremaps.

Training-time selection softmaxes the scoremap, flattens dense clusters with
a kernel-density balance, suppresses non-maxima, and keeps the K best pixels.
Inference drops the balancing and can refine each keypoint to a subpixel
position via a tempered local softmax expectation.  Selection is entirely
deterministic: score ties are broken by raster order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _logits_of, _window_offsets, gaussian_blur, shifted, softmax_2d
from .errors import InvalidInputError, InvalidParameterError, check_range

DENSITY_FLOOR = 1e-12


def border_depth(xy: np.ndarray, shape) -> np.ndarray:
    """How far each (x, y) row of xy lies inside 0 <= x <= W-1, 0 <= y <= H-1
    for a grid of shape (H, W): >= 0 exactly when inside, negative or NaN outside."""
    h, w = shape
    return np.minimum.reduce([xy[:, 0], w - 1 - xy[:, 0], xy[:, 1], h - 1 - xy[:, 1]])


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Keypoints of one image, ordered by descending score, raster tie-break.

    xy holds the (N, 2) positions (x right, y down, pixel centers integer)
    and scores the (N,) scores; both are read-only float64 arrays.
    """

    xy: np.ndarray
    scores: np.ndarray
    source_shape: tuple[int, int]

    def __post_init__(self):
        if min(self.source_shape) < 1:
            raise InvalidInputError(f"bad source shape {self.source_shape}")
        xy = np.array(self.xy, dtype=np.float64)
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        scores = np.array(self.scores, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2 or scores.shape != (len(xy),):
            raise InvalidInputError(
                f"need (N, 2) positions and N scores, got {xy.shape} and {scores.shape}")
        outside = ~(border_depth(xy, self.source_shape) >= 0)
        if outside.any():
            x, y = xy[np.argmax(outside)]
            raise InvalidInputError(f"keypoint ({x}, {y}) outside {self.source_shape}")
        if not np.isfinite(scores).all():
            raise InvalidInputError("keypoint score must be finite")
        if np.any(scores[1:] > scores[:-1]):
            raise InvalidInputError("keypoints must be ordered by descending score")
        xy.flags.writeable = scores.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.xy)

    @property
    def pixels(self) -> np.ndarray:
        """(N, 2) integer pixel of each keypoint, xy rounded half to even."""
        return np.rint(self.xy).astype(np.intp)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for sample_keypoints; defaults are the inference-scale ones."""

    k: int = 512
    nms_window: int = 3
    use_kde: bool = True
    kde_sigma_frac: float = 0.02
    subpixel: bool = False
    subpixel_temp: float = 0.5
    subpixel_window: int = 3

    def __post_init__(self):
        check_range("k", self.k, ge=1)
        for name in ("nms_window", "subpixel_window"):
            _check_window(name, getattr(self, name))
        check_range("kde_sigma_frac", self.kde_sigma_frac, gt=0, le=1)
        check_range("subpixel_temp", self.subpixel_temp, gt=0)


def _check_window(name: str, window: int) -> None:
    """The window rule: odd and >= 3."""
    check_range(name, window, ge=3)
    if window % 2 == 0:
        raise InvalidParameterError(f"{name} must be odd and >= 3, got {window}")


def kde_balance(p, sigma: float) -> np.ndarray:
    """Divide probabilities by the square root of their local smoothed density.

    Dense clusters are flattened toward sparse ones: scaling a region's mass
    by c scales its balanced score by sqrt(c) only.  Output is unnormalized.
    """
    pa = np.asarray(p, dtype=np.float64)
    dens = gaussian_blur(pa, sigma)
    return pa / np.sqrt(np.maximum(dens, DENSITY_FLOOR))


def nms(scores, window: int = 3) -> np.ndarray:
    """Keep pixels that win their window neighborhood, zero the rest.

    A pixel survives iff every neighbor in the window is strictly smaller, or
    equal but later in raster order (so exactly one of any tied group wins).
    """
    _check_window("window", window)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise InvalidInputError(f"scores must be 2-D, got shape {s.shape}")
    keep = np.ones(s.shape, dtype=bool)
    for dy, dx in _window_offsets(window // 2):
        nb = shifted(s, dy, dx, -np.inf)
        keep &= (nb < s) if (dy, dx) < (0, 0) else (nb <= s)  # a raster-earlier neighbor wins ties
    return np.where(keep, s, 0.0)


def top_k(scores, k: int) -> KeypointSet:
    """Select min(k, #nonzero) highest-scoring pixels, raster tie-break."""
    check_range("k", k, ge=1)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise InvalidInputError(f"scores must be 2-D, got shape {s.shape}")
    h, w = s.shape
    flat = s.ravel()
    nz = np.flatnonzero(flat)
    order = nz[np.argsort(-flat[nz], kind="stable")]  # stable keeps raster order on ties
    chosen = order[:k]
    return KeypointSet(np.stack([chosen % w, chosen // w], axis=1), flat[chosen], (h, w))


def subpixel_refine(scoremap, kps: KeypointSet, temp: float = 0.5, window: int = 3) -> KeypointSet:
    """Move each keypoint to the local softmax expectation of logits/temp.

    The window is clipped at image borders; the displacement is bounded by
    the window radius by construction.  Scores and ordering are unchanged.
    A window whose tempered logits overflow is shifted by its maximum logit
    before the division, so any positive temperature gives a finite position.
    """
    check_range("temp", temp, gt=0)
    _check_window("window", window)
    z = _logits_of(scoremap)
    h, w = z.shape
    r = window // 2
    out = np.empty_like(kps.xy)
    with np.errstate(over="ignore"):  # a quotient or difference that overflows to -inf weighs 0
        tempered = z / temp
        overflow = not np.isfinite(tempered).all()
        for n, (xi, yi) in enumerate(kps.pixels.tolist()):
            y0, y1 = max(0, yi - r), min(h, yi + r + 1)
            x0, x1 = max(0, xi - r), min(w, xi + r + 1)
            patch = tempered[y0:y1, x0:x1]
            if overflow and not np.isfinite(patch).all():  # take the max out before dividing
                zw = z[y0:y1, x0:x1]
                patch = (zw - zw.max()) / temp
            wgt = np.exp(patch - patch.max())
            wgt /= wgt.sum()
            dy = float(wgt.sum(axis=1) @ (np.arange(y0, y1) - yi))
            dx = float(wgt.sum(axis=0) @ (np.arange(x0, x1) - xi))
            out[n] = (xi + dx, yi + dy)
    return KeypointSet(out, kps.scores, kps.source_shape)


def _rescore(kps: KeypointSet, probs: np.ndarray) -> KeypointSet:
    """Report raw probabilities as scores and restore score ordering."""
    w = kps.source_shape[1]
    px = kps.pixels
    scores = probs[px[:, 1], px[:, 0]]
    order = np.lexsort((px[:, 1] * w + px[:, 0], -scores))
    return KeypointSet(px[order], scores[order], kps.source_shape)


def sample_keypoints(scoremap, cfg: SamplerConfig, mode: str = "inference") -> KeypointSet:
    """Full selection pipeline: softmax [-> KDE balance] -> NMS -> top-K [-> subpixel].

    mode "train" applies the density balance (when cfg.use_kde) and never
    refines; mode "inference" skips the balance and refines when configured.
    Scores always report the raw softmax probability of the selected pixel.
    """
    if mode not in ("train", "inference"):
        raise InvalidParameterError(f"mode must be 'train' or 'inference', got {mode!r}")
    p = softmax_2d(scoremap)
    h, w = p.shape
    balanced = mode == "train" and cfg.use_kde
    q = kde_balance(p, cfg.kde_sigma_frac * min(h, w)) if balanced else p
    kps = top_k(nms(q, cfg.nms_window), cfg.k)
    if balanced:
        kps = _rescore(kps, p)
    if mode == "inference" and cfg.subpixel:
        kps = subpixel_refine(scoremap, kps, cfg.subpixel_temp, cfg.subpixel_window)
    return kps
