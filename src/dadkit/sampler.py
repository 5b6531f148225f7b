"""Balanced top-K keypoint selection from scoremaps.

Training-time selection softmaxes the scoremap, flattens dense clusters with
a kernel-density balance, suppresses non-maxima, and keeps the K best pixels.
Inference drops the balancing and can refine each keypoint to a subpixel
position via a tempered local softmax expectation.  Selection is entirely
deterministic: score ties are broken by raster order everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProbMap, _logits_of, gaussian_blur, shifted, softmax_2d
from .errors import InvalidInputError, InvalidParameterError

DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class Keypoint:
    """One detection: position (x right, y down, pixel centers integer) and score."""

    x: float
    y: float
    score: float


@dataclass(frozen=True)
class KeypointSet:
    """Keypoints of one image, ordered by descending score, raster tie-break."""

    keypoints: tuple[Keypoint, ...]
    source_shape: tuple[int, int]

    def __post_init__(self):
        h, w = self.source_shape
        if h < 1 or w < 1:
            raise InvalidInputError(f"bad source shape {self.source_shape}")
        prev = np.inf
        for kp in self.keypoints:
            if not (0 <= kp.x <= w - 1 and 0 <= kp.y <= h - 1):
                raise InvalidInputError(f"keypoint ({kp.x}, {kp.y}) outside {self.source_shape}")
            if not np.isfinite(kp.score):
                raise InvalidInputError("keypoint score must be finite")
            if kp.score > prev:
                raise InvalidInputError("keypoints must be ordered by descending score")
            prev = kp.score

    def __len__(self) -> int:
        return len(self.keypoints)

    def xy(self) -> np.ndarray:
        """Positions as an (N, 2) array of (x, y)."""
        if not self.keypoints:
            return np.zeros((0, 2))
        return np.array([(kp.x, kp.y) for kp in self.keypoints], dtype=np.float64)

    def scores(self) -> np.ndarray:
        return np.array([kp.score for kp in self.keypoints], dtype=np.float64)


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
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        for name in ("nms_window", "subpixel_window"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise InvalidParameterError(f"{name} must be odd and >= 3, got {v}")
        if not (self.kde_sigma_frac > 0):
            raise InvalidParameterError("kde_sigma_frac must be positive")
        if not (self.subpixel_temp > 0):
            raise InvalidParameterError("subpixel_temp must be positive")


def kde_balance(p, sigma: float, density_floor: float = DENSITY_FLOOR) -> np.ndarray:
    """Divide probabilities by the square root of their local smoothed density.

    Dense clusters are flattened toward sparse ones: scaling a region's mass
    by c scales its balanced score by sqrt(c) only.  Output is unnormalized.
    """
    pa = p.probs if isinstance(p, ProbMap) else np.asarray(p, dtype=np.float64)
    if not (density_floor > 0):
        raise InvalidParameterError("density_floor must be positive")
    dens = gaussian_blur(pa, sigma)
    return pa / np.sqrt(np.maximum(dens, density_floor))


def nms(scores, window: int = 3) -> np.ndarray:
    """Keep pixels that win their window neighborhood, zero the rest.

    A pixel survives iff every neighbor in the window is strictly smaller, or
    equal but later in raster order (so exactly one of any tied group wins).
    """
    if window < 3 or window % 2 == 0:
        raise InvalidParameterError(f"window must be odd and >= 3, got {window}")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise InvalidInputError(f"scores must be 2-D, got shape {s.shape}")
    r = window // 2
    keep = np.ones(s.shape, dtype=bool)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            nb = shifted(s, dy, dx, -np.inf)
            if dy < 0 or (dy == 0 and dx < 0):  # neighbor is raster-earlier
                keep &= nb < s
            else:
                keep &= nb <= s
    return np.where(keep, s, 0.0)


def top_k(scores, k: int) -> KeypointSet:
    """Select min(k, #nonzero) highest-scoring pixels, raster tie-break."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise InvalidInputError(f"scores must be 2-D, got shape {s.shape}")
    h, w = s.shape
    flat = s.ravel()
    nz = np.flatnonzero(flat)
    order = nz[np.argsort(-flat[nz], kind="stable")]  # stable keeps raster order on ties
    chosen = order[:k]
    kps = tuple(Keypoint(float(i % w), float(i // w), float(flat[i])) for i in chosen)
    return KeypointSet(kps, (h, w))


def subpixel_refine(scoremap, kps: KeypointSet, temp: float = 0.5, window: int = 3) -> KeypointSet:
    """Move each keypoint to the local softmax expectation of logits/temp.

    The window is clipped at image borders; the displacement is bounded by
    the window radius by construction.  Scores and ordering are unchanged.
    """
    if not (temp > 0):
        raise InvalidParameterError("temp must be positive")
    if window < 3 or window % 2 == 0:
        raise InvalidParameterError(f"window must be odd and >= 3, got {window}")
    z = _logits_of(scoremap)
    h, w = z.shape
    r = window // 2
    out = []
    for kp in kps.keypoints:
        xi, yi = int(round(kp.x)), int(round(kp.y))
        y0, y1 = max(0, yi - r), min(h, yi + r + 1)
        x0, x1 = max(0, xi - r), min(w, xi + r + 1)
        patch = z[y0:y1, x0:x1] / temp
        wgt = np.exp(patch - patch.max())
        wgt /= wgt.sum()
        dy = float(wgt.sum(axis=1) @ (np.arange(y0, y1) - yi))
        dx = float(wgt.sum(axis=0) @ (np.arange(x0, x1) - xi))
        out.append(Keypoint(xi + dx, yi + dy, kp.score))
    return KeypointSet(tuple(out), kps.source_shape)


def _rescore(kps: KeypointSet, probs: np.ndarray) -> KeypointSet:
    """Report raw probabilities as scores and restore score ordering."""
    h, w = kps.source_shape
    rows = []
    for kp in kps.keypoints:
        xi, yi = int(round(kp.x)), int(round(kp.y))
        rows.append((float(xi), float(yi), float(probs[yi, xi])))
    rows.sort(key=lambda t: (-t[2], t[1] * w + t[0]))
    return KeypointSet(tuple(Keypoint(*row) for row in rows), kps.source_shape)


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
    if balanced:
        q = kde_balance(p, cfg.kde_sigma_frac * min(h, w))
    else:
        q = p.probs
    kept = nms(q, cfg.nms_window)
    kps = top_k(kept, cfg.k)
    if balanced:
        kps = _rescore(kps, p.probs)
    if mode == "inference" and cfg.subpixel:
        kps = subpixel_refine(scoremap, kps, cfg.subpixel_temp, cfg.subpixel_window)
    return kps


def write_keypoints_csv(path, kps: KeypointSet) -> None:
    """Write 'x,y,score' rows with six fractional digits (bit-stable text)."""
    lines = ["x,y,score"]
    lines += [f"{kp.x:.6f},{kp.y:.6f},{kp.score:.6f}" for kp in kps.keypoints]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keypoints_csv(path, source_shape) -> KeypointSet:
    """Read a keypoint CSV written by write_keypoints_csv (extra columns ignored)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("x,y,score"):
        raise InvalidInputError(f"{path}: missing keypoint CSV header")
    kps = []
    for line in lines[1:]:
        try:
            x, y, score = (float(v) for v in line.split(",")[:3])
        except ValueError:
            raise InvalidInputError(f"{path}: malformed row {line!r}") from None
        kps.append(Keypoint(x, y, score))
    return KeypointSet(tuple(kps), tuple(source_shape))
