"""Planar geometry: homography transfer, covisibility, mutual-NN matching."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Mask
from .errors import DegenerateTransferError, InvalidInputError, InvalidParameterError
from .sampler import KeypointSet


@dataclass(frozen=True)
class HomographyTransfer:
    """3x3 projective map between image planes, scaled so h[2,2] == 1."""

    h: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.h, dtype=np.float64)
        if a.shape != (3, 3):
            raise InvalidInputError(f"homography must be 3x3, got {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError("homography contains NaN/Inf")
        scale = np.abs(a).max()
        if scale == 0 or abs(np.linalg.det(a)) <= 1e-12 * scale**3:
            raise DegenerateTransferError("homography is singular")
        if a[2, 2] != 0:
            a = a / a[2, 2]
        object.__setattr__(self, "h", a)

    @classmethod
    def identity(cls) -> "HomographyTransfer":
        return cls(np.eye(3))

    def inverse(self) -> "HomographyTransfer":
        return HomographyTransfer(np.linalg.inv(self.h))

    def compose(self, other: "HomographyTransfer") -> "HomographyTransfer":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return HomographyTransfer(self.h @ other.h)


def apply_transfer(t: HomographyTransfer, pt) -> tuple[float, float] | None:
    """Map one (x, y) point; None when it lands on the plane at infinity."""
    x, y = float(pt[0]), float(pt[1])
    v = t.h @ np.array([x, y, 1.0])
    if abs(v[2]) < 1e-12 or not np.isfinite(v).all():
        return None
    return (float(v[0] / v[2]), float(v[1] / v[2]))


def transfer_points(t: HomographyTransfer, pts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized transfer of an (N, 2) array; returns (points, valid)."""
    p = np.asarray(pts, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InvalidInputError(f"points must be (N, 2), got {p.shape}")
    ones = np.ones((p.shape[0], 1))
    v = np.hstack([p, ones]) @ t.h.T
    w = v[:, 2]
    valid = np.isfinite(v).all(axis=1) & (np.abs(w) >= 1e-12)
    out = np.full_like(p, np.nan)
    out[valid] = v[valid, :2] / w[valid, None]
    valid &= np.isfinite(out).all(axis=1)
    return out, valid


def covisible(t: HomographyTransfer, pts, shape_dst) -> tuple[np.ndarray, np.ndarray]:
    """Transfer (N, 2) points; returns (points, inside).

    "Inside" means the transfer is valid and lands at 0 <= x <= W-1 and
    0 <= y <= H-1 in a destination of shape (H, W).
    """
    moved, valid = transfer_points(t, pts)
    h, w = int(shape_dst[0]), int(shape_dst[1])
    inside = valid & (moved[:, 0] >= 0) & (moved[:, 0] <= w - 1) \
        & (moved[:, 1] >= 0) & (moved[:, 1] <= h - 1)
    return moved, inside


def covisibility_mask(t: HomographyTransfer, shape_src, shape_dst) -> Mask:
    """True where a source pixel center is covisible in the destination."""
    hs, ws = int(shape_src[0]), int(shape_src[1])
    if min(hs, ws, int(shape_dst[0]), int(shape_dst[1])) < 1:
        raise InvalidInputError("image shapes must be positive")
    ys, xs = np.mgrid[0:hs, 0:ws]
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    return Mask(covisible(t, pts, shape_dst)[1].reshape(hs, ws))


@dataclass(frozen=True)
class MatchSet:
    """Index pairs (a_idx, b_idx, distance) for one match direction."""

    pairs: tuple[tuple[int, int, float], ...]
    direction: str  # "a_to_b" | "b_to_a"

    def __post_init__(self):
        if self.direction not in ("a_to_b", "b_to_a"):
            raise InvalidInputError(f"bad direction {self.direction!r}")
        seen_b = set()
        for ia, ib, d in self.pairs:
            if d < 0 or not np.isfinite(d):
                raise InvalidInputError(f"match distance must be finite and >= 0, got {d}")
            if ib in seen_b:
                raise InvalidInputError(f"duplicate matched index {ib}")
            seen_b.add(ib)

    def __len__(self) -> int:
        return len(self.pairs)

    def distances(self) -> np.ndarray:
        return np.array([d for _, _, d in self.pairs], dtype=np.float64)


def _nearest(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per src row: index of nearest dst row (first on ties) and its distance."""
    d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(src)), idx])


def match_mutual_nn(
    ka: KeypointSet, kb: KeypointSet, t: HomographyTransfer, threshold: float
) -> tuple[MatchSet, MatchSet]:
    """Mutual nearest-neighbor matching under a transfer, both directions.

    A->B keeps (a, b) where b is nearest to t(a), the distance in the B plane
    is within threshold, and a is nearest to t^-1(b) back in the A plane.
    B->A is built symmetrically; distances are measured in the query plane,
    so the two sets need not mirror each other.
    """
    if not (threshold > 0):
        raise InvalidParameterError("threshold must be positive")
    if len(ka) == 0 or len(kb) == 0:
        return MatchSet((), "a_to_b"), MatchSet((), "b_to_a")
    pa, pb = ka.xy(), kb.xy()
    fa, va = transfer_points(t, pa)
    fb, vb = transfer_points(t.inverse(), pb)

    nn_ab = np.full(len(ka), -1)
    d_ab = np.full(len(ka), np.inf)
    if va.any():
        idx, d = _nearest(fa[va], pb)
        nn_ab[va], d_ab[va] = idx, d
    nn_ba = np.full(len(kb), -1)
    d_ba = np.full(len(kb), np.inf)
    if vb.any():
        idx, d = _nearest(fb[vb], pa)
        nn_ba[vb], d_ba[vb] = idx, d

    ab = tuple(
        (int(i), int(nn_ab[i]), float(d_ab[i]))
        for i in range(len(ka))
        if nn_ab[i] >= 0 and d_ab[i] <= threshold and nn_ba[nn_ab[i]] == i
    )
    ba = tuple(
        (int(nn_ba[j]), int(j), float(d_ba[j]))
        for j in range(len(kb))
        if nn_ba[j] >= 0 and d_ba[j] <= threshold and nn_ab[nn_ba[j]] == j
    )
    return MatchSet(ab, "a_to_b"), MatchSet(ba, "b_to_a")


def write_homography(path, t: HomographyTransfer) -> None:
    """Write nine row-major floats, three per line."""
    rows = [" ".join(f"{v:.17g}" for v in row) for row in t.h]
    Path(path).write_text("\n".join(rows) + "\n")


def read_homography(path) -> HomographyTransfer:
    vals = [float(v) for v in Path(path).read_text().split()]
    if len(vals) != 9:
        raise InvalidInputError(f"{path}: expected 9 floats, got {len(vals)}")
    return HomographyTransfer(np.array(vals).reshape(3, 3))
