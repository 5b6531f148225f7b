"""Planar geometry: homography transfer, covisibility, point proximity, mutual-NN matching."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransferError, InvalidInputError, check_range
from .sampler import KeypointSet, border_depth


def _homography_rule(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The homography rule on a (B, 3, 3) stack: (scaled, finite, regular).

    A matrix is finite when it holds no NaN/Inf, and regular when it is also
    nonsingular: max|h| > 0 and |det(h / max|h|)| > 1e-12, which holds at any
    scale.  Each matrix is scaled so h[2,2] == 1, unless that entry is 0.
    """
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, np.eye(3))  # keeps det off NaN/Inf rows
    scale = np.abs(a).max(axis=(1, 2))
    unit = a / np.where(scale != 0, scale, 1.0)[:, None, None]
    regular = finite & (scale != 0) & (np.abs(np.linalg.det(unit)) > 1e-12)
    a22 = a[:, 2, 2]
    return a / np.where(a22 != 0, a22, 1.0)[:, None, None], finite, regular


@dataclass(frozen=True)
class HomographyTransfer:
    """3x3 projective map between image planes, scaled so h[2,2] == 1."""

    h: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.h, dtype=np.float64)
        if a.shape != (3, 3):
            raise InvalidInputError(f"homography must be 3x3, got {a.shape}")
        scaled, finite, regular = _homography_rule(a[None])
        if not finite[0]:
            raise InvalidInputError("homography contains NaN/Inf")
        if not regular[0]:
            raise DegenerateTransferError("homography is singular")
        object.__setattr__(self, "h", scaled[0])

    @classmethod
    def identity(cls) -> "HomographyTransfer":
        return cls(np.eye(3))

    def inverse(self) -> "HomographyTransfer":
        return HomographyTransfer(np.linalg.inv(self.h))

    def compose(self, other: "HomographyTransfer") -> "HomographyTransfer":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return HomographyTransfer(self.h @ other.h)


def apply_transfer(t: HomographyTransfer, pt) -> tuple[float, float] | None:
    """Map one (x, y) point; None where `_transfer` calls the transfer invalid."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, w = (t.h @ np.array([float(pt[0]), float(pt[1]), 1.0])).tolist()
    if not (math.isfinite(w) and abs(w) >= 1e-12):
        return None
    x, y = x / w, y / w  # Python float division: inf or NaN, never a warning
    return (x, y) if math.isfinite(x) and math.isfinite(y) else None


def _transfer(h: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transfer (N, 2) or (B, N, 2) points by a (B, 3, 3) stack: (B, N, 2) points, (B, N) valid.

    A transfer is valid when it is finite and does not land on the plane at
    infinity (|w| >= 1e-12); invalid points are NaN, and no input warns.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1) @ h.swapaxes(1, 2)
        w = v[..., 2]
        out = np.empty(w.shape + (2,))
        x, y = out[..., 0], out[..., 1]
        np.divide(v[..., 0], w, out=x)
        np.divide(v[..., 1], w, out=y)
    # over a finite w with |w| >= 1e-12, a non-finite v[..., 0] or v[..., 1]
    # gives a non-finite quotient, so the quotients' check covers them
    valid = np.isfinite(w) & (np.abs(w) >= 1e-12) & np.isfinite(x) & np.isfinite(y)
    out[~valid] = np.nan
    return out, valid


def transfer_points(t: HomographyTransfer, pts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized transfer of an (N, 2) array; returns (points, valid)."""
    p = np.asarray(pts, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InvalidInputError(f"points must be (N, 2), got {p.shape}")
    out, valid = _transfer(t.h[None], p)
    return out[0], valid[0]


def covisible(t: HomographyTransfer, pts, shape_dst) -> tuple[np.ndarray, np.ndarray]:
    """Transfer (N, 2) points; returns (points, inside).

    "Inside" means the transfer is valid and lands at 0 <= x <= W-1 and
    0 <= y <= H-1 in a destination of shape (H, W).
    """
    moved, valid = transfer_points(t, pts)
    return moved, valid & (border_depth(moved, shape_dst) >= 0)


def _pixel_centers(h: int, w: int) -> np.ndarray:
    """The (H*W, 2) float (x, y) centers of an (H, W) grid's pixels, in raster order."""
    ys, xs = np.mgrid[0:h, 0:w]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def covisibility_mask(t: HomographyTransfer, shape_src, shape_dst) -> np.ndarray:
    """Read-only bool grid, True where a source pixel center is covisible in
    the destination."""
    hs, ws = int(shape_src[0]), int(shape_src[1])
    if min(hs, ws, int(shape_dst[0]), int(shape_dst[1])) < 1:
        raise InvalidInputError("image shapes must be positive")
    mask = covisible(t, _pixel_centers(hs, ws), shape_dst)[1].reshape(hs, ws)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class MatchSet:
    """Matches of one direction: keypoint ia[m] of A with ib[m] of B at dist[m]."""

    ia: np.ndarray
    ib: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        ia = np.array(self.ia, dtype=np.intp)
        ib = np.array(self.ib, dtype=np.intp)
        dist = np.array(self.dist, dtype=np.float64)
        if not (ia.ndim == 1 and ia.shape == ib.shape == dist.shape):
            raise InvalidInputError(
                f"ia, ib and dist must be equal-length vectors, got "
                f"{ia.shape}, {ib.shape} and {dist.shape}")
        bad = ~(np.isfinite(dist) & (dist >= 0))
        if bad.any():
            raise InvalidInputError(f"match distance must be finite and >= 0, got {dist[bad][0]}")
        values, counts = np.unique(ib, return_counts=True)
        if (counts > 1).any():
            raise InvalidInputError(f"duplicate matched index {values[counts > 1][0]}")
        for name, a in (("ia", ia), ("ib", ib), ("dist", dist)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.dist)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the points of two broadcastable (..., 2) arrays.

    Computed as dx * dx + dy * dy, which is ((a - b) ** 2).sum(axis=-1) bit for
    bit (numpy adds a length-2 axis as a0 + a1), without a (..., 2) temporary.
    """
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _sq_dists(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The (N, M) squared distances between the rows of src and of dst."""
    return _sq_dist(src[:, None], dst[None])


def _nearest(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per src row: index of nearest dst row (first on ties) and its distance."""
    d2 = _sq_dists(src, dst)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(src)), idx])


def _covered(gt: np.ndarray, pts: np.ndarray, radius: float) -> np.ndarray:
    """Per gt row: whether some pts row lies within radius (squared distance <= radius**2)."""
    if len(pts) == 0:
        return np.zeros(len(gt), dtype=bool)
    return _sq_dists(gt, pts).min(axis=1) <= radius * radius


def match_mutual_nn(
    ka: KeypointSet, kb: KeypointSet, t: HomographyTransfer, threshold: float
) -> tuple[MatchSet, MatchSet]:
    """Mutual nearest-neighbor matching under a transfer, both directions.

    A->B keeps (a, b) where b is nearest to t(a), the distance in the B plane
    is within threshold, and a is nearest to t^-1(b) back in the A plane.
    B->A is built symmetrically; distances are measured in the query plane,
    so the two sets need not mirror each other.
    """
    check_range("threshold", threshold, gt=0)
    if len(ka) == 0 or len(kb) == 0:
        return MatchSet((), (), ()), MatchSet((), (), ())
    nn_ab, d_ab = _nearest_transferred(t, ka.xy, kb.xy)
    nn_ba, d_ba = _nearest_transferred(t.inverse(), kb.xy, ka.xy)
    qa = _mutual(nn_ab, d_ab, nn_ba, threshold)
    qb = _mutual(nn_ba, d_ba, nn_ab, threshold)
    return MatchSet(qa, nn_ab[qa], d_ab[qa]), MatchSet(nn_ba[qb], qb, d_ba[qb])


def _nearest_transferred(t: HomographyTransfer, src: np.ndarray,
                         dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per src row: the nearest dst row to its transfer by t and that distance;
    -1 and inf where the transfer is not valid."""
    moved, valid = transfer_points(t, src)
    nn = np.full(len(src), -1)
    d = np.full(len(src), np.inf)
    if valid.any():
        nn[valid], d[valid] = _nearest(moved[valid], dst)
    return nn, d


def _mutual(nn: np.ndarray, d: np.ndarray, back: np.ndarray, threshold: float) -> np.ndarray:
    """Query indices with a nearest neighbour within threshold that points back."""
    q = np.flatnonzero((nn >= 0) & (d <= threshold))
    return q[back[nn[q]] == q]
