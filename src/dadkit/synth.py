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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Mask
from .errors import (DegenerateTransferError, InvalidInputError, InvalidParameterError,
                     PlacementError)
from .geometry import (HomographyTransfer, MatchSet, _covered, _mutual, _nearest, _sq_dists,
                       covisibility_mask, covisible, transfer_points)
from .sampler import KeypointSet

POLARITIES = ("light", "dark")
SHAPE_KINDS = ("dot", "cross", "blob", "corner")


@dataclass(frozen=True)
class HomographyMagnitude:
    """Bounds for random homography components.

    max_translation is a fraction of the image side, scale_range bounds a
    uniform isotropic scale, perspective_jitter bounds the two projective
    entries (in centered pixel coordinates).  All zero (and unit scale)
    means the identity map.  No bound may exceed BOUND_MAX: far beyond any
    map the covisibility test accepts, far below where composing overflows.
    """

    BOUND_MAX = 1e6

    perspective_jitter: float = 0.0008
    max_translation: float = 0.12
    scale_range: tuple[float, float] = (0.9, 1.12)
    max_rotation_deg: float = 12.0

    def __post_init__(self):
        lo, hi = self.scale_range
        for name in ("perspective_jitter", "max_translation", "max_rotation_deg"):
            if not (0 <= getattr(self, name) <= self.BOUND_MAX):
                raise InvalidParameterError(f"{name} must be in [0, {self.BOUND_MAX:g}]")
        if not (0 < lo <= hi <= self.BOUND_MAX):
            raise InvalidParameterError(f"bad scale_range {self.scale_range}: "
                                        f"need 0 < lo <= hi <= {self.BOUND_MAX:g}")
        object.__setattr__(self, "scale_range", (float(lo), float(hi)))

    @classmethod
    def none(cls) -> "HomographyMagnitude":
        return cls(0.0, 0.0, (1.0, 1.0), 0.0)


@dataclass(frozen=True)
class SceneConfig:
    """Layout and augmentation knobs, and `kind`, the generator they feed.

    A toy config takes no setting that only the scene generator reads, and
    no homography bound other than the default, which it echoes unread.
    """

    size: int = 64
    num_light: int = 10
    num_dark: int = 10
    shape_palette: tuple[str, ...] = SHAPE_KINDS
    background_gray: float = 0.5
    rotation_aug: bool = False
    negation_aug: str = "off"  # "off" | "rgb"
    homography_magnitude: HomographyMagnitude = field(default_factory=HomographyMagnitude)
    min_separation: float = 8.0
    margin: float = 4.0
    noise_sigma: float = 0.01
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
        if self.kind not in ("toy", "scene"):
            raise InvalidParameterError(f"kind must be 'toy' or 'scene', got {self.kind!r}")
        if self.kind == "toy":  # settings the toy generator never reads
            given = {**vars(self), **magnitude_items(self.homography_magnitude)}
            for name, unread in (("rotation_aug", False), ("negation_aug", "off"),
                                 ("shape_palette", ("dot",)), ("noise_sigma", 0.0),
                                 *magnitude_items(HomographyMagnitude()).items()):
                if given[name] != unread:
                    raise InvalidParameterError(f"{name} does not apply to toy pairs")

    @classmethod
    def toy(cls, size: int = 64, num_light: int = 10, num_dark: int = 10) -> "SceneConfig":
        """Single-pixel dot task: clean gray background, identity pairing."""
        return cls(size=size, num_light=num_light, num_dark=num_dark,
                   shape_palette=("dot",), noise_sigma=0.0, kind="toy")

    @classmethod
    def scenes(cls, size: int = 64, num_light: int = 6, num_dark: int = 6,
               rotation_aug: bool = False, negation_aug: str = "off") -> "SceneConfig":
        return cls(size=size, num_light=num_light, num_dark=num_dark,
                   rotation_aug=rotation_aug, negation_aug=negation_aug)


@dataclass(frozen=True)
class PairSample:
    """One training/evaluation pair with exact ground truth.

    gt_keypoints_a/b carry one entry per labeled structure center, scored
    1.0; polarity_a/b are parallel tuples of "light"/"dark".  For toy pairs
    correspondence is by index (identity pairing) and `transfer` is the
    identity placeholder; for scene pairs gt_keypoints_b holds the transfers
    of exactly the covisible entries of gt_keypoints_a, in the same order.
    The covisibility masks mask_a/mask_b are derived on first use.
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
    def mask_a(self) -> Mask:
        """Pixels of A covisible in B: all of them for a toy pair."""
        if self.kind == "toy":
            return Mask.full(self.image_a.shape)
        return covisibility_mask(self.transfer, self.image_a.shape, self.image_b.shape)

    @cached_property
    def mask_b(self) -> Mask:
        """Pixels of B covisible in A, through the inverse transfer."""
        if self.kind == "toy":
            return Mask.full(self.image_b.shape)
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
    h, w = pair.image_b.shape
    depth = np.minimum.reduce([moved[:, 0], w - 1 - moved[:, 0], moved[:, 1], h - 1 - moved[:, 1]])
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
    def draw(cls, rng: np.random.Generator, waves: int = 6) -> "_NoiseField":
        raw = rng.uniform(0.5, 1.0, waves)
        amps = raw / raw.sum()
        lam = rng.uniform(8.0, 32.0, waves)
        theta = rng.uniform(0.0, math.pi, waves)
        k = 2.0 * math.pi / lam
        return cls(amps, k * np.cos(theta), k * np.sin(theta),
                   rng.uniform(0.0, 2.0 * math.pi, waves))

    def eval(self, pts: np.ndarray) -> np.ndarray:
        arg = pts[:, 0:1] * self.freq_x + pts[:, 1:2] * self.freq_y + self.phases
        return np.sin(arg) @ self.amps


def _scene_values(pts: np.ndarray, structures, bg: float,
                  noise: _NoiseField | None, noise_sigma: float) -> np.ndarray:
    v = np.full(len(pts), bg)
    for st in structures:
        v += st.sign * 0.5 * _profile(st, pts)
    if noise is not None and noise_sigma > 0:
        v += noise_sigma * noise.eval(pts)
    return np.clip(v, 0.0, 1.0)


_SUPERSAMPLE = ((-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25))


def _render(size: int, structures, bg: float, noise, noise_sigma: float,
            inv: HomographyTransfer | None) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    centers = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    acc = np.zeros(size * size)
    for ox, oy in _SUPERSAMPLE:
        pts = centers + (ox, oy)
        if inv is not None:
            pts, valid = transfer_points(inv, pts)
            pts = np.where(valid[:, None], pts, -1e6)  # off-plane: plain background
        acc += _scene_values(pts, structures, bg, noise, noise_sigma)
    return (acc / len(_SUPERSAMPLE)).reshape(size, size)


def _rotation_transfer(k: int, size: int) -> HomographyTransfer:
    """Pixel-exact 90k-degree rotation of a square image, corners to corners."""
    n = size - 1
    mats = {
        0: np.eye(3),
        1: np.array([[0.0, -1.0, n], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        2: np.array([[-1.0, 0.0, n], [0.0, -1.0, n], [0.0, 0.0, 1.0]]),
        3: np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, n], [0.0, 0.0, 1.0]]),
    }
    return HomographyTransfer(mats[k % 4])


def sample_homography(rng: np.random.Generator, magnitude: HomographyMagnitude,
                      shape: tuple[int, int], min_covisible: float = 0.4,
                      max_tries: int = 200) -> HomographyTransfer:
    """Centered scale * rotation * translation * perspective composition.

    Parameters are uniform within the magnitude bounds; candidates are
    rejected until at least `min_covisible` of the pixels stay covisible in
    both directions; so is one that the homography rule calls singular.
    """
    h, w = int(shape[0]), int(shape[1])
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    t_c = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
    t_ic = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    total = h * w
    for _ in range(max_tries):
        s = rng.uniform(*magnitude.scale_range)
        ang = math.radians(rng.uniform(-magnitude.max_rotation_deg,
                                       magnitude.max_rotation_deg))
        tx = rng.uniform(-1, 1) * magnitude.max_translation * (w - 1)
        ty = rng.uniform(-1, 1) * magnitude.max_translation * (h - 1)
        px = rng.uniform(-1, 1) * magnitude.perspective_jitter
        py = rng.uniform(-1, 1) * magnitude.perspective_jitter
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
        if all(covisibility_mask(m, shape, shape).count() >= min_covisible * total for m in both):
            return t
    raise DegenerateTransferError(
        f"no homography with >= {min_covisible:.0%} covisibility in {max_tries} tries"
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

    transfer = sample_homography(rng, cfg.homography_magnitude, shape)
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


def expected_strategy_reward(strategy: str, cfg: SceneConfig,
                             trials: int = 100_000,
                             rng: np.random.Generator | None = None) -> float:
    """Monte Carlo expected matched-pair count for a fixed selection policy.

    Both images independently select a budget of (num_light+num_dark)/2
    dots: "light-only"/"dark-only" draw the whole budget from one polarity,
    "mixed-5-5" splits it evenly.  A dot identity scores 1 when selected in
    both images.  With the default 10+10 layout the single-polarity policies
    select every dot of that polarity, so their reward is exactly 10.
    """
    if strategy not in ("mixed-5-5", "light-only", "dark-only"):
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    budget = (cfg.num_light + cfg.num_dark) // 2
    if strategy == "light-only":
        groups = [(cfg.num_light, min(budget, cfg.num_light))]
    elif strategy == "dark-only":
        groups = [(cfg.num_dark, min(budget, cfg.num_dark))]
    else:
        kl = min(budget // 2, cfg.num_light)
        kd = min(budget - budget // 2, cfg.num_dark)
        groups = [(cfg.num_light, kl), (cfg.num_dark, kd)]
    total = np.zeros(trials)
    for n, m in groups:
        if n == 0 or m == 0:
            continue
        sel = []
        for _ in range(2):
            order = np.argsort(rng.random((trials, n)), axis=1)
            mask = np.zeros((trials, n), dtype=bool)
            np.put_along_axis(mask, order[:, :m], True, axis=1)
            sel.append(mask)
        total += (sel[0] & sel[1]).sum(axis=1)
    return float(total.mean())


# meta.txt and CLI names of a HomographyMagnitude's values, in field order
# (scale_range gives two).
HM_KEYS = ("hm_perspective_jitter", "hm_max_translation", "hm_scale_lo", "hm_scale_hi",
           "hm_max_rotation_deg")


def magnitude_items(m: HomographyMagnitude) -> dict:
    return dict(zip(HM_KEYS, (m.perspective_jitter, m.max_translation, *m.scale_range,
                              m.max_rotation_deg)))


def magnitude_from_items(items: dict) -> HomographyMagnitude:
    jitter, translation, lo, hi, rotation = (items[k] for k in HM_KEYS)
    return HomographyMagnitude(jitter, translation, (lo, hi), rotation)


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
