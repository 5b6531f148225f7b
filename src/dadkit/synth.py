"""Synthetic image pairs with exact ground truth.

Two generators share one sample type.  The toy generator scatters single
light and dark pixels on a gray background twice, and correspondence is by
dot identity rather than geometry.  The scene generator renders an analytic
planar scene (dots, blobs, crosses, corners in both polarities plus a faint
smooth texture) and produces the second view by sampling that scene through
the inverse of a random homography, so ground-truth centers transfer exactly
and pairs are reproducible bit for bit from their seed.  `SceneConfig.kind`
picks the generator, and `make_pair` is the one place that builds pair i of
a stream.  A pair's covisibility masks derive from its transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import takewhile

import numpy as np

from .errors import (DegenerateTransferError, InvalidInputError, InvalidParameterError,
                     PlacementError)
from .geometry import (HomographyTransfer, MatchSet, _covered, _mutual, _nearest, _pixel_centers,
                       _sq_dists, covisibility_mask, covisible, transfer_points)
from .sampler import KeypointSet, border_depth

POLARITIES = ("light", "dark")
SHAPE_KINDS = ("dot", "cross", "blob", "corner")


@dataclass(frozen=True)
class SceneConfig:
    """Layout and augmentation knobs, and `kind`, the generator they feed.

    The `hm_*` fields bound a scene pair's random homography: its projective
    entries (in centered pixels), translation (a fraction of the side),
    uniform scale in [hm_scale_lo, hm_scale_hi] and rotation in degrees; zero
    bounds and unit scale give the identity.  No bound may exceed BOUND_MAX:
    far beyond any map the covisibility test accepts, far below where
    composing overflows.  A toy config takes no setting that only the scene
    generator reads, and no homography bound other than the default, which
    it echoes unread.
    """

    BOUND_MAX = 1e6

    size: int = 64
    num_light: int = 10
    num_dark: int = 10
    shape_palette: tuple[str, ...] = SHAPE_KINDS
    background_gray: float = 0.5
    rotation_aug: bool = False
    negation_aug: str = "off"  # "off" | "rgb"
    min_separation: float = 8.0
    margin: float = 4.0
    noise_sigma: float = 0.01
    hm_perspective_jitter: float = 0.0008
    hm_max_translation: float = 0.12
    hm_scale_lo: float = 0.9
    hm_scale_hi: float = 1.12
    hm_max_rotation_deg: float = 12.0
    kind: str = "scene"  # "scene" | "toy": the generator of every pair

    def __post_init__(self):
        object.__setattr__(self, "shape_palette", tuple(self.shape_palette))
        if self.size < 16:
            raise InvalidParameterError("size must be >= 16")
        if self.num_light < 0 or self.num_dark < 0 or self.num_light + self.num_dark < 1:
            raise InvalidParameterError("need at least one keypoint structure")
        bad = [s for s in self.shape_palette if s not in SHAPE_KINDS]
        if bad or not self.shape_palette:
            raise InvalidParameterError(f"shape_palette must be a nonempty subset of {SHAPE_KINDS}")
        if not (0.0 < self.background_gray < 1.0):
            raise InvalidParameterError("background_gray must be inside (0, 1)")
        if self.negation_aug not in ("off", "rgb"):
            raise InvalidParameterError("negation_aug must be 'off' or 'rgb'")
        # centers must stay >= 2x the NMS window (3 px) apart
        if not (self.min_separation >= 6):
            raise InvalidParameterError("min_separation must be >= 6")
        if not (0 <= self.margin and 2 * self.margin < self.size - 1):
            raise InvalidParameterError("margin leaves no interior")
        if not (0 <= self.noise_sigma < math.inf):
            raise InvalidParameterError("noise_sigma must be finite and >= 0")
        for name in ("hm_perspective_jitter", "hm_max_translation", "hm_max_rotation_deg"):
            if not (0 <= getattr(self, name) <= self.BOUND_MAX):
                raise InvalidParameterError(f"{name} must be in [0, {self.BOUND_MAX:g}]")
        if not (0 < self.hm_scale_lo <= self.BOUND_MAX):
            raise InvalidParameterError(f"hm_scale_lo must be in (0, {self.BOUND_MAX:g}]")
        if not (self.hm_scale_lo <= self.hm_scale_hi <= self.BOUND_MAX):
            raise InvalidParameterError(f"hm_scale_hi must be in [hm_scale_lo, {self.BOUND_MAX:g}]")
        if self.kind not in ("toy", "scene"):
            raise InvalidParameterError(f"kind must be 'toy' or 'scene', got {self.kind!r}")
        if self.kind == "toy":  # settings the toy generator never reads
            for name, unread in (("rotation_aug", False), ("negation_aug", "off"),
                                 ("shape_palette", ("dot",)), ("noise_sigma", 0.0),
                                 *((f.name, f.default) for f in fields(self)
                                   if f.name.startswith("hm_"))):
                if getattr(self, name) != unread:
                    raise InvalidParameterError(f"{name} does not apply to toy pairs")

    @classmethod
    def toy(cls, **changes) -> "SceneConfig":
        """Single-pixel dot task: clean gray background, identity pairing."""
        return cls(**{"shape_palette": ("dot",), "noise_sigma": 0.0, "kind": "toy", **changes})

    @classmethod
    def scenes(cls, **changes) -> "SceneConfig":
        return cls(**{"num_light": 6, "num_dark": 6, **changes})


@dataclass(frozen=True)
class PairSample:
    """One training/evaluation pair with exact ground truth.

    gt_keypoints_a/b carry one entry per labeled structure center, scored
    1.0; polarity_a/b are parallel tuples of "light"/"dark".  For toy pairs
    correspondence is by index (identity pairing) and `transfer` is the
    identity placeholder; for scene pairs gt_keypoints_b holds the transfers
    of exactly the covisible entries of gt_keypoints_a, in the same order.
    The covisibility masks mask_a/mask_b are derived on first use, unless
    the generator hands over the ones it accepted the transfer with.
    """

    image_a: np.ndarray
    image_b: np.ndarray
    transfer: HomographyTransfer
    gt_keypoints_a: KeypointSet
    gt_keypoints_b: KeypointSet
    polarity_a: tuple[str, ...]
    polarity_b: tuple[str, ...]
    kind: str
    seed: int = 0

    def __post_init__(self):
        for name in ("image_a", "image_b"):
            img = np.asarray(getattr(self, name), dtype=np.float64)
            if img.ndim != 2:
                raise InvalidInputError(f"{name} must be 2-D")
            if not np.isfinite(img).all() or img.min() < 0 or img.max() > 1:
                raise InvalidInputError(f"{name} values must be finite and in [0, 1]")
            img.flags.writeable = False
            object.__setattr__(self, name, img)
        if self.kind not in ("toy", "scene"):
            raise InvalidInputError(f"bad pair kind {self.kind!r}")
        for kps, pol, shape in (
            (self.gt_keypoints_a, self.polarity_a, self.image_a.shape),
            (self.gt_keypoints_b, self.polarity_b, self.image_b.shape),
        ):
            if kps.source_shape != shape:
                raise InvalidInputError("gt keypoints carry a different source shape")
            if len(pol) != len(kps):
                raise InvalidInputError("polarity labels misaligned with gt keypoints")
            if any(p not in POLARITIES for p in pol):
                raise InvalidInputError("polarity labels must be 'light' or 'dark'")
        if self.kind == "toy" and len(self.gt_keypoints_a) != len(self.gt_keypoints_b):
            raise InvalidInputError("toy pairs pair dots by index; counts must agree")

    @property
    def shape(self) -> tuple[int, int]:
        return self.image_a.shape

    @cached_property
    def mask_a(self) -> np.ndarray:
        """Read-only bool grid of the pixels of A covisible in B: all of them
        for a toy pair."""
        if self.kind == "toy":
            return np.broadcast_to(True, self.image_a.shape)
        return covisibility_mask(self.transfer, self.image_a.shape, self.image_b.shape)

    @cached_property
    def mask_b(self) -> np.ndarray:
        """Pixels of B covisible in A, through the inverse transfer."""
        if self.kind == "toy":
            return np.broadcast_to(True, self.image_b.shape)
        return covisibility_mask(self.transfer.inverse(), self.image_b.shape, self.image_a.shape)


def check_pair_consistency(pair: PairSample, tol: float = 1e-6) -> None:
    """Self-check: gt centers agree with the stored transfer to within tol px.

    Scene pairs: gt_b holds, in order, the transfers of the gt_a centers
    that land inside image B (and nothing else); a center whose transfer
    lies within tol of B's border may be present or absent, since rounding
    can move it across.  Toy pairs: identity pairing needs equal counts and
    matching polarity multisets; negation is never applied to toys, so
    labels must agree index-wise.
    """
    if pair.kind == "toy":
        if pair.polarity_a != pair.polarity_b:
            raise InvalidInputError("toy polarity labels must match index-wise")
        return
    moved, valid = transfer_points(pair.transfer, pair.gt_keypoints_a.xy)
    depth = border_depth(moved, pair.image_b.shape)
    got = pair.gt_keypoints_b.xy
    expect = moved[valid & ((depth >= tol) | ((depth >= -tol) & _covered(moved, got, tol)))]
    if len(expect) != len(got):
        raise InvalidInputError(
            f"gt_b holds {len(got)} points, transfer predicts {len(expect)} covisible"
        )
    if len(expect) and np.abs(expect - got).max() > tol:
        raise InvalidInputError("gt keypoints disagree with the transfer")


# A layout whose next point finds no room is redrawn from scratch, up to this
# many times: an early point can leave no room for a later one.
_LAYOUT_ATTEMPTS = 50


def _place_points(rng: np.random.Generator, cfg: SceneConfig, count: int,
                  on_grid: bool) -> np.ndarray:
    """Rejection-sample `count` centers with pairwise min separation."""
    lo, hi = cfg.margin, cfg.size - 1 - cfg.margin
    min2 = cfg.min_separation ** 2
    for _ in range(_LAYOUT_ATTEMPTS):
        placed: list[tuple[float, float]] = []
        for _ in range(count):
            for _ in range(1000):
                if on_grid:
                    x = float(rng.integers(int(math.ceil(lo)), int(math.floor(hi)) + 1))
                    y = float(rng.integers(int(math.ceil(lo)), int(math.floor(hi)) + 1))
                else:
                    x = float(rng.uniform(lo, hi))
                    y = float(rng.uniform(lo, hi))
                if all((x - px) ** 2 + (y - py) ** 2 >= min2 for px, py in placed):
                    placed.append((x, y))
                    break
            else:
                break
        if len(placed) == count:
            return np.array(placed, dtype=np.float64).reshape(count, 2)
    raise PlacementError(f"could not place {count} points with separation {cfg.min_separation}")


def _gt_set(centers: np.ndarray, shape: tuple[int, int]) -> KeypointSet:
    return KeypointSet(centers, np.ones(len(centers)), shape)


def _polarity_labels(cfg: SceneConfig) -> tuple[str, ...]:
    return ("light",) * cfg.num_light + ("dark",) * cfg.num_dark


def gen_toy_pair(rng: np.random.Generator, cfg: SceneConfig, seed: int = 0) -> PairSample:
    """Two independent random layouts of the same labeled dots.

    Each dot is a single pixel, white (1.0) for light and black (0.0) for
    dark, on the gray background.  Correspondence is dot identity: row i of
    gt_keypoints_a corresponds to row i of gt_keypoints_b.  Covisibility is
    all-true and the stored transfer is the identity placeholder.
    """
    n = cfg.num_light + cfg.num_dark
    shape = (cfg.size, cfg.size)
    labels = _polarity_labels(cfg)
    images, gts = [], []
    for _ in range(2):
        centers = _place_points(rng, cfg, n, on_grid=True)
        img = np.full(shape, cfg.background_gray)
        for (x, y), pol in zip(centers, labels):
            img[int(y), int(x)] = 1.0 if pol == "light" else 0.0
        images.append(img)
        gts.append(_gt_set(centers, shape))
    pair = PairSample(images[0], images[1], HomographyTransfer.identity(),
                      gts[0], gts[1], labels, labels, kind="toy", seed=seed)
    check_pair_consistency(pair)
    return pair


# analytic structure profiles, all supported in a disk of radius rho

@dataclass(frozen=True)
class _Structure:
    kind: str
    cx: float
    cy: float
    sign: float  # +1 light, -1 dark
    rho: float
    phi: float


_BASE_RHO = {"dot": 1.6, "blob": 3.4, "cross": 3.4, "corner": 3.4}
_CROSS_HALF_WIDTH = 0.9
_NOISE_WAVES = 6


def _profile(st: _Structure, pts: np.ndarray) -> np.ndarray:
    dx = pts[:, 0] - st.cx
    dy = pts[:, 1] - st.cy
    c, s = math.cos(st.phi), math.sin(st.phi)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    r2 = u * u + v * v
    inside = r2 <= st.rho * st.rho
    if st.kind == "dot":
        return inside.astype(np.float64)
    if st.kind == "blob":
        t = np.maximum(0.0, 1.0 - r2 / (st.rho * st.rho))
        return t * t
    if st.kind == "cross":
        bars = (np.abs(u) <= _CROSS_HALF_WIDTH) | (np.abs(v) <= _CROSS_HALF_WIDTH)
        return (inside & bars).astype(np.float64)
    if st.kind == "corner":
        return (inside & (u >= 0) & (v >= 0)).astype(np.float64)
    raise InvalidParameterError(f"unknown structure kind {st.kind!r}")


@dataclass(frozen=True)
class _NoiseField:
    """Smooth analytic texture: a fixed sum of sinusoids with |n| <= 1."""

    amps: np.ndarray
    freq_x: np.ndarray
    freq_y: np.ndarray
    phases: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator) -> "_NoiseField":
        raw = rng.uniform(0.5, 1.0, _NOISE_WAVES)
        amps = raw / raw.sum()
        lam = rng.uniform(8.0, 32.0, _NOISE_WAVES)
        theta = rng.uniform(0.0, math.pi, _NOISE_WAVES)
        k = 2.0 * math.pi / lam
        return cls(amps, k * np.cos(theta), k * np.sin(theta),
                   rng.uniform(0.0, 2.0 * math.pi, _NOISE_WAVES))

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """The texture at (N, 2) points.  The argument is built wave-major, as
        (6, N), where numpy's sin runs faster; BLAS still gets the C-contiguous
        (N, 6) sines, whose sums it rounds as before."""
        arg = np.multiply.outer(self.freq_x, pts[:, 0])
        arg += np.multiply.outer(self.freq_y, pts[:, 1])
        arg += self.phases[:, None]
        return np.sin(arg, out=arg).T.copy() @ self.amps


def _scene_values(pts: np.ndarray, structures, bg: float,
                  noise: _NoiseField | None, noise_sigma: float) -> np.ndarray:
    """The scene at (N, 2) points, clipped to [0, 1].

    Each structure is evaluated only on the points inside its disk's
    bounding box, grown by 1 px.  This is exact: a profile is 0 outside its
    disk, and adding a signed 0 never changes v, which starts at bg > 0 and
    so is never -0.0.
    """
    x, y = pts.T.copy()  # contiguous: the box tests run about 2x faster than on columns
    v = np.full(len(pts), bg)
    for st in structures:
        r = st.rho + 1.0
        idx = np.flatnonzero((x >= st.cx - r) & (x <= st.cx + r)
                             & (y >= st.cy - r) & (y <= st.cy + r))
        v[idx] += st.sign * 0.5 * _profile(st, pts[idx])
    if noise is not None and noise_sigma > 0:
        v += noise_sigma * noise.eval(pts)
    return np.clip(v, 0.0, 1.0)


_SUPERSAMPLE = ((-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25))


def _render(size: int, structures, bg: float, noise, noise_sigma: float,
            inv: HomographyTransfer | None) -> np.ndarray:
    centers = _pixel_centers(size, size)
    acc = np.zeros(size * size)
    for ox, oy in _SUPERSAMPLE:
        pts = centers + (ox, oy)
        if inv is not None:
            pts, valid = transfer_points(inv, pts)
            pts = np.where(valid[:, None], pts, -1e6)  # off-plane: plain background
        acc += _scene_values(pts, structures, bg, noise, noise_sigma)
    return (acc / len(_SUPERSAMPLE)).reshape(size, size)


def _rotation_transfer(k: int, size: int) -> HomographyTransfer:
    """Pixel-exact 90k-degree rotation of a square image, corners to corners:
    k quarter turns (x, y) -> (size - 1 - y, x).  The entries are small
    integers, so the power is exact."""
    quarter = np.array([[0.0, -1.0, size - 1], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return HomographyTransfer(np.linalg.matrix_power(quarter, k % 4))


_MIN_COVISIBLE = 0.4
_HOMOGRAPHY_TRIES = 200


def sample_homography(rng: np.random.Generator, cfg: SceneConfig,
                      shape: tuple[int, int]) -> HomographyTransfer:
    """Centered scale * rotation * translation * perspective composition.

    Parameters are uniform within cfg's `hm_*` bounds; candidates are
    rejected until at least _MIN_COVISIBLE of the pixels stay covisible in
    both directions, and so is one that the homography rule calls singular,
    for at most _HOMOGRAPHY_TRIES candidates.
    """
    return _covisible_homography(rng, cfg, shape)[0]


def _covisible_homography(rng: np.random.Generator, cfg: SceneConfig, shape: tuple[int, int]):
    """`sample_homography`'s transfer, with its and its inverse's covisibility masks."""
    h, w = int(shape[0]), int(shape[1])
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    t_c = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
    t_ic = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    total = h * w
    for _ in range(_HOMOGRAPHY_TRIES):
        s = rng.uniform(cfg.hm_scale_lo, cfg.hm_scale_hi)
        ang = math.radians(rng.uniform(-cfg.hm_max_rotation_deg, cfg.hm_max_rotation_deg))
        tx = rng.uniform(-1, 1) * cfg.hm_max_translation * (w - 1)
        ty = rng.uniform(-1, 1) * cfg.hm_max_translation * (h - 1)
        px = rng.uniform(-1, 1) * cfg.hm_perspective_jitter
        py = rng.uniform(-1, 1) * cfg.hm_perspective_jitter
        scale = np.diag([s, s, 1.0])
        ca, sa = math.cos(ang), math.sin(ang)
        rot = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
        tra = np.array([[1, 0, tx], [0, 1, ty], [0, 0, 1]], dtype=np.float64)
        per = np.array([[1, 0, 0], [0, 1, 0], [px, py, 1]], dtype=np.float64)
        try:
            t = HomographyTransfer(t_c @ scale @ rot @ tra @ per @ t_ic)
            both = (t, t.inverse())
        except DegenerateTransferError:
            continue
        masks = tuple(takewhile(lambda mask: mask.sum() >= _MIN_COVISIBLE * total,
                                (covisibility_mask(m, shape, shape) for m in both)))
        if len(masks) == 2:
            return t, masks
    raise DegenerateTransferError(
        f"no homography with >= {_MIN_COVISIBLE:.0%} covisibility in {_HOMOGRAPHY_TRIES} tries"
    )


def gen_scene_pair(rng: np.random.Generator, cfg: SceneConfig, seed: int = 0) -> PairSample:
    """Analytic planar scene under a random homography.

    Image A samples the scene at pixel centers; image B samples it through
    the inverse transfer, both with 2x2 supersampling.  rotation_aug composes
    a random 90k-degree rotation into the transfer; negation_aug="rgb" maps
    image B to 1 - image B and flips its polarity labels.
    """
    n = cfg.num_light + cfg.num_dark
    shape = (cfg.size, cfg.size)
    labels = _polarity_labels(cfg)
    centers = _place_points(rng, cfg, n, on_grid=False)
    structures = []
    for (x, y), pol in zip(centers, labels):
        kind = cfg.shape_palette[int(rng.integers(len(cfg.shape_palette)))]
        phi = float(rng.uniform(0.0, 2.0 * math.pi)) if kind in ("cross", "corner") else 0.0
        rho = _BASE_RHO[kind] * float(rng.uniform(0.85, 1.15))
        structures.append(_Structure(kind, float(x), float(y),
                                     1.0 if pol == "light" else -1.0, rho, phi))
    noise = _NoiseField.draw(rng) if cfg.noise_sigma > 0 else None

    transfer, masks = _covisible_homography(rng, cfg, shape)
    if cfg.rotation_aug:
        k = int(rng.integers(4))
        transfer = _rotation_transfer(k, cfg.size).compose(transfer)

    image_a = _render(cfg.size, structures, cfg.background_gray, noise,
                      cfg.noise_sigma, inv=None)
    image_b = _render(cfg.size, structures, cfg.background_gray, noise,
                      cfg.noise_sigma, inv=transfer.inverse())

    moved, inside = covisible(transfer, centers, shape)
    gt_b = _gt_set(moved[inside], shape)
    labels_b = tuple(l for l, keep in zip(labels, inside) if keep)

    if cfg.negation_aug == "rgb":
        image_b = 1.0 - image_b
        labels_b = tuple("dark" if l == "light" else "light" for l in labels_b)

    pair = PairSample(image_a, image_b, transfer, _gt_set(centers, shape), gt_b,
                      labels, labels_b, kind="scene", seed=seed)
    if not cfg.rotation_aug:  # seed the cached properties with the masks already made
        vars(pair).update(mask_a=masks[0], mask_b=masks[1])
    check_pair_consistency(pair)
    return pair


def toy_matches(ka: KeypointSet, kb: KeypointSet, pair: PairSample,
                assign_radius: float = 4.0,
                match_threshold: float = np.inf) -> tuple[MatchSet, MatchSet]:
    """Identity-based matching for toy pairs.

    Each selected keypoint is assigned to its nearest ground-truth dot
    within assign_radius (everything else stays unmatched).  Within one dot
    identity the two selections are compared by their offsets from the dot,
    so a detector that fires consistently off-center still scores distance
    zero.  At most one match per identity is kept (the offset-closest mutual
    pair), which caps the raw reward per pair at the number of dots.
    """
    if pair.kind != "toy":
        raise InvalidInputError("toy_matches requires a toy pair")
    if not (assign_radius > 0):
        raise InvalidParameterError("assign_radius must be positive")
    if len(ka) == 0 or len(kb) == 0:
        return MatchSet((), (), ()), MatchSet((), (), ())
    ga, gb = pair.gt_keypoints_a.xy, pair.gt_keypoints_b.xy
    pa, pb = ka.xy, kb.xy

    def assign(points, gt):
        idx, dist = _nearest(points, gt)
        return np.where(dist <= assign_radius, idx, -1)

    owner_a = assign(pa, ga)
    owner_b = assign(pb, gb)
    # offset distances within one identity; inf across identities and for strays
    d = np.sqrt(_sq_dists(pa - ga[owner_a], pb - gb[owner_b]))
    d[(owner_a[:, None] != owner_b[None, :]) | (owner_a[:, None] < 0)] = np.inf
    na, nb = d.argmin(axis=1), d.argmin(axis=0)
    da = d[np.arange(len(pa)), na]
    na[np.isinf(da)] = -1
    q = _mutual(na, da, nb, match_threshold)
    # per identity, in identity order: the closest match, the first `a` on ties
    q = q[np.lexsort((q, da[q], owner_a[q]))]
    q = q[np.unique(owner_a[q], return_index=True)[1]]
    matches = MatchSet(q, na[q], da[q])
    return matches, matches


def toy_pair_hits(pair: PairSample, ka: KeypointSet, kb: KeypointSet,
                  hit_radius: float = 4.0) -> int:
    """Dot identities with a selected keypoint within hit_radius in BOTH images."""
    if pair.kind != "toy":
        raise InvalidInputError("toy_pair_hits requires a toy pair")
    return int((_covered(pair.gt_keypoints_a.xy, ka.xy, hit_radius)
                & _covered(pair.gt_keypoints_b.xy, kb.xy, hit_radius)).sum())


def classify_polarity(kps: KeypointSet, gt: KeypointSet, polarity: tuple[str, ...],
                      radius: float = 4.0) -> tuple[str, ...]:
    """Label each keypoint by its nearest gt structure within radius, else 'none'."""
    if len(kps) == 0:
        return ()
    if len(gt) == 0:
        return ("none",) * len(kps)
    idx, dist = _nearest(kps.xy, gt.xy)
    return tuple(
        polarity[i] if d <= radius else "none" for i, d in zip(idx, dist)
    )


def expected_strategy_reward(strategy: str, cfg: SceneConfig) -> float:
    """Exact expected matched-pair count for a fixed selection policy.

    Both images independently select a budget of (num_light+num_dark)/2
    dots: "light-only"/"dark-only" draw the whole budget from one polarity,
    "mixed-5-5" splits it evenly.  A dot identity scores 1 when selected in
    both images.  Two independent uniform m-subsets of n dots share m*m/n
    dots in expectation: the reward sums that over the polarity groups,
    rounded once (10, 10 and 5 on the default 10+10 layout).
    """
    if strategy not in ("mixed-5-5", "light-only", "dark-only"):
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    budget = (cfg.num_light + cfg.num_dark) // 2
    if strategy == "light-only":
        groups = [(cfg.num_light, min(budget, cfg.num_light))]
    elif strategy == "dark-only":
        groups = [(cfg.num_dark, min(budget, cfg.num_dark))]
    else:
        kl = min(budget // 2, cfg.num_light)
        kd = min(budget - budget // 2, cfg.num_dark)
        groups = [(cfg.num_light, kl), (cfg.num_dark, kd)]
    return float(sum(Fraction(m * m, n) for n, m in groups if m))


def pair_rng(seed: int, index: int) -> np.random.Generator:
    """The per-pair generator: independent streams, stable under count changes."""
    return np.random.default_rng([seed, index])


def make_pair(cfg: SceneConfig, seed: int, index: int) -> PairSample:
    """Pair `index` of stream `seed`, drawn from pair_rng(seed, index) by the
    generator of cfg.kind (looked up at call time, so a rebound name is seen)."""
    gen = gen_toy_pair if cfg.kind == "toy" else gen_scene_pair
    return gen(pair_rng(seed, index), cfg, seed=seed)


def generate_pairs(cfg: SceneConfig, count: int, seed: int) -> list[PairSample]:
    """Pairs 0..count-1 of stream `seed`."""
    return [make_pair(cfg, seed, i) for i in range(count)]
