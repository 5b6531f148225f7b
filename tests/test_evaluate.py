"""Repeatability, robust homography estimation, and metric bookkeeping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dadkit.errors import (DadkitError, DegenerateInputError, DegenerateTransferError,
                           InsufficientDataError, InvalidInputError, InvalidParameterError)
from dadkit.evaluate import (EvalConfig, PER_PAIR_FIELDS, _nanmean, _symmetric_errors, auc,
                             corner_epe, detection_recall, dlt_homography,
                             evaluate_detections, polarity_recall,
                             ransac_homography, repeatability)
from dadkit.formats import write_report
from dadkit.geometry import HomographyTransfer, _sq_dists, _transfer, covisible, transfer_points
from dadkit.sampler import KeypointSet
from dadkit.synth import SceneConfig, gen_scene_pair, gen_toy_pair, pair_rng


def kset(points, shape=(64, 64)):
    return KeypointSet(points, np.ones(len(points)), shape)


def translation(tx, ty):
    return HomographyTransfer(np.array([[1.0, 0, tx], [0, 1.0, ty], [0, 0, 1.0]]))


def nice_homography(rng):
    m = np.eye(3)
    m[:2, :2] += rng.normal(scale=0.05, size=(2, 2))
    m[:2, 2] = rng.normal(scale=3.0, size=2)
    m[2, :2] = rng.normal(scale=1e-3, size=2)
    return HomographyTransfer(m)


# repeatability

def test_repeatability_perfect_on_planted_truth():
    rng = np.random.default_rng(0)
    pts = rng.uniform(5, 58, size=(12, 2))
    t = translation(2.0, -1.0)
    moved, _ = transfer_points(t, pts)
    keep = np.all((moved >= 0) & (moved <= 63), axis=1)
    assert repeatability(kset(pts), kset(moved[keep]), t, 0.5) == 1.0


def test_repeatability_counts_fraction_of_covisible():
    pts = [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)]
    near = [(10.4, 10.0), (20.0, 20.3)]  # two redetected, two missed
    far = [(50.0, 50.0), (55.0, 55.0)]
    t = HomographyTransfer.identity()
    assert repeatability(kset(pts), kset(near + far), t, 1.0) == pytest.approx(0.5)


def test_repeatability_greedy_assignment_is_one_to_one():
    ka = kset([(10.0, 10.0), (10.6, 10.0)])
    kb = kset([(10.1, 10.0)])
    got = repeatability(ka, kb, HomographyTransfer.identity(), 2.0)
    assert got == pytest.approx(0.5)  # one b point can serve only one a point


def test_repeatability_degenerate_cases():
    t = HomographyTransfer.identity()
    assert math.isnan(repeatability(kset([]), kset([(1.0, 1.0)]), t, 1.0))
    # everything transferred outside image b
    off = translation(100.0, 0.0)
    assert math.isnan(repeatability(kset([(10.0, 10.0)]), kset([(1.0, 1.0)]), off, 1.0))
    assert repeatability(kset([(10.0, 10.0)]), kset([]), t, 1.0) == 0.0
    with pytest.raises(InvalidParameterError):
        repeatability(kset([(1.0, 1.0)]), kset([(1.0, 1.0)]), t, 0.0)


def repeatability_oracle(src, dst, threshold):
    d = np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2))
    pairs = sorted((d[i, j], i, j) for i in range(len(src)) for j in range(len(dst)))
    used_a, used_b, hits = set(), set(), 0
    for dist, i, j in pairs:
        if dist > threshold:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        hits += 1
    return hits / len(src)


def test_repeatability_matches_greedy_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        a = rng.uniform(5, 58, size=(rng.integers(2, 10), 2))
        b = rng.uniform(5, 58, size=(rng.integers(2, 10), 2))
        got = repeatability(kset(a), kset(b), HomographyTransfer.identity(), 6.0)
        assert got == pytest.approx(repeatability_oracle(a, b, 6.0))


def _repeatability_reference(ka, kb, t, threshold):
    """repeatability as it was: a stable sort of the whole distance matrix."""
    moved, inside = covisible(t, ka.xy, kb.source_shape)
    n = int(inside.sum())
    src = moved[inside]
    dst = kb.xy
    d = np.sqrt(_sq_dists(src, dst))
    order = np.argsort(d, axis=None, kind="stable")
    used_a = np.zeros(len(src), dtype=bool)
    used_b = np.zeros(len(dst), dtype=bool)
    hits = 0
    for flat in order:
        i, j = divmod(int(flat), len(dst))
        if d[i, j] > threshold:
            break
        if used_a[i] or used_b[j]:
            continue
        used_a[i] = used_b[j] = True
        hits += 1
    return hits / n


# quarter-pixel points within 4 px: many pairs lie at exactly the thresholds below
_QUARTER_SET = st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), min_size=1,
                        max_size=12).map(lambda rows: np.array(rows, dtype=np.float64) / 4)


@settings(deadline=None, max_examples=300)
@given(a=_QUARTER_SET, b=_QUARTER_SET, threshold=st.sampled_from([0.25, 0.5, 1.0, 1.25, 2.0]))
def test_repeatability_equals_the_full_sort_loop(a, b, threshold):
    ka, kb, t = kset(a), kset(b), HomographyTransfer.identity()
    assert repeatability(ka, kb, t, threshold) == _repeatability_reference(ka, kb, t, threshold)


# homography estimation

def test_dlt_recovers_exact_homography():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = nice_homography(rng)
        src = rng.uniform(0, 63, size=(8, 2))
        dst, valid = transfer_points(t, src)
        assert valid.all()
        h = dlt_homography(src, dst)
        probe = rng.uniform(0, 63, size=(20, 2))
        want, _ = transfer_points(t, probe)
        got, _ = transfer_points(h, probe)
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_dlt_minimal_four_points():
    src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    t = nice_homography(np.random.default_rng(42))
    dst, _ = transfer_points(t, src)
    h = dlt_homography(src, dst)
    back, _ = transfer_points(h, src)
    np.testing.assert_allclose(back, dst, atol=1e-8)


def test_dlt_rejects_degenerate_configurations():
    line = np.array([[float(i), 2.0 * i + 1.0] for i in range(6)])
    with pytest.raises(DegenerateInputError):
        dlt_homography(line, line + 1.0)
    same = np.full((5, 2), 3.0)
    with pytest.raises(DegenerateInputError):
        dlt_homography(same, same)
    with pytest.raises(InsufficientDataError):
        dlt_homography(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        dlt_homography(np.zeros((5, 2)), np.zeros((4, 2)))
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        dlt_homography(bad, np.zeros((5, 2)))


def test_ransac_recovers_model_despite_outliers():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = nice_homography(rng)
        src_in = rng.uniform(5, 58, size=(30, 2))
        dst_in, _ = transfer_points(t, src_in)
        src_out = rng.uniform(5, 58, size=(10, 2))
        dst_out = rng.uniform(5, 58, size=(10, 2))
        src = np.vstack([src_in, src_out])
        dst = np.vstack([dst_in, dst_out])
        h, inliers = ransac_homography(src, dst, inlier_threshold=1.0,
                                       iterations=200, rng=seed)
        assert inliers[:30].all()
        assert corner_epe(h, t, (64, 64)) < 1e-6


def test_ransac_handles_noisy_inliers_and_is_deterministic():
    rng = np.random.default_rng(7)
    t = nice_homography(rng)
    src = rng.uniform(5, 58, size=(40, 2))
    dst, _ = transfer_points(t, src)
    dst = dst + rng.normal(scale=0.1, size=dst.shape)
    h1, in1 = ransac_homography(src, dst, 2.0, 100, rng=3)
    h2, in2 = ransac_homography(src, dst, 2.0, 100, rng=3)
    np.testing.assert_array_equal(h1.h, h2.h)
    np.testing.assert_array_equal(in1, in2)
    assert in1.sum() >= 35
    assert corner_epe(h1, t, (64, 64)) < 2.0


def test_ransac_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(InsufficientDataError):
        ransac_homography(pts, pts)
    ok = np.random.default_rng(0).uniform(0, 10, size=(6, 2))
    with pytest.raises(InvalidParameterError):
        ransac_homography(ok, ok, inlier_threshold=0.0)
    with pytest.raises(InvalidParameterError):
        ransac_homography(ok, ok, iterations=0)


# ransac_homography against the per-sample loop it replaced, with the scalar
# homography rule, transfer and DLT that loop called

def _homography_reference(a):
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise InvalidInputError("homography contains NaN/Inf")
    scale = np.abs(a).max()
    if scale == 0 or abs(np.linalg.det(a)) <= 1e-12 * scale**3:
        raise DegenerateTransferError("homography is singular")
    return a / a[2, 2] if a[2, 2] != 0 else a


def _transfer_reference(h, p):
    v = np.hstack([p, np.ones((p.shape[0], 1))]) @ h.T
    w = v[:, 2]
    valid = np.isfinite(v).all(axis=1) & (np.abs(w) >= 1e-12)
    out = np.full_like(p, np.nan)
    out[valid] = v[valid, :2] / w[valid, None]
    valid &= np.isfinite(out).all(axis=1)
    return out, valid


def _hartley_reference(pts):
    centroid = pts.mean(axis=0)
    spread = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    if spread < 1e-12:
        raise DegenerateInputError("points are (nearly) coincident")
    s = math.sqrt(2.0) / spread
    return np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])


def _dlt_reference(s, d):
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise InvalidInputError("correspondences contain NaN/Inf")
    n = s.shape[0]
    if n < 4:
        raise InsufficientDataError(f"need >= 4 correspondences, got {n}")
    ts, td = _hartley_reference(s), _hartley_reference(d)
    sn = (np.hstack([s, np.ones((n, 1))]) @ ts.T)[:, :2]
    dn = (np.hstack([d, np.ones((n, 1))]) @ td.T)[:, :2]
    a = np.zeros((2 * n, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    a[0::2, 0], a[0::2, 1], a[0::2, 2] = -x, -y, -1.0
    a[0::2, 6], a[0::2, 7], a[0::2, 8] = u * x, u * y, u
    a[1::2, 3], a[1::2, 4], a[1::2, 5] = -x, -y, -1.0
    a[1::2, 6], a[1::2, 7], a[1::2, 8] = v * x, v * y, v
    _, sv, vt = np.linalg.svd(a)
    if sv[0] > 0 and sv[-2] / sv[0] < 1e-10:
        raise DegenerateInputError("correspondence configuration is degenerate")
    hn = vt[-1].reshape(3, 3)
    try:
        return _homography_reference(np.linalg.inv(td) @ hn @ ts)
    except Exception as exc:
        raise DegenerateInputError(f"DLT produced a singular homography: {exc}") from exc


def _symmetric_errors_reference(h, src, dst):
    fwd, vf = _transfer_reference(h, src)
    bwd, vb = _transfer_reference(_homography_reference(np.linalg.inv(h)), dst)
    e_f = np.where(vf, np.sqrt(((fwd - dst) ** 2).sum(axis=1)), np.inf)
    e_b = np.where(vb, np.sqrt(((bwd - src) ** 2).sum(axis=1)), np.inf)
    return np.maximum(e_f, e_b)


def _ransac_reference(s, d, inlier_threshold, iterations, rng):
    n = s.shape[0]
    gen = np.random.default_rng(rng)
    best_h = None
    best_in = np.zeros(n, dtype=bool)
    best_score = (-1, np.inf)
    for _ in range(iterations):
        idx = gen.choice(n, size=4, replace=False)
        try:
            h = _dlt_reference(s[idx], d[idx])
            # scoring inverts h; a barely nonsingular sample can fail there
            err = _symmetric_errors_reference(h, s, d)
        except (DegenerateInputError, InsufficientDataError, DegenerateTransferError):
            continue
        inl = err <= inlier_threshold
        count = int(inl.sum())
        mean_err = float(err[inl].mean()) if count else np.inf
        if (-count, mean_err) < best_score:
            best_score = (-count, mean_err)
            best_h, best_in = h, inl
    if best_h is None or not best_in.any():
        raise DegenerateInputError("RANSAC found no valid model")
    if best_in.sum() >= 4:
        try:
            refit = _dlt_reference(s[best_in], d[best_in])
            inl2 = _symmetric_errors_reference(refit, s, d) <= inlier_threshold
            if inl2.sum() >= best_in.sum():
                return refit, inl2
        except (DegenerateInputError, InsufficientDataError, DegenerateTransferError):
            pass
    return best_h, best_in


def _match_set(layout, n, quarter, seed):
    """Matches of one of six layouts; `quarter` rounds both sides to 1/4 px."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0, 63, size=(n, 2))
    if layout == "coincident":
        src = src[rng.integers(0, 3, size=n)]
    elif layout == "collinear":
        src[:, 1] = 0.5 * src[:, 0] + 7.0
        src[: n // 8] = rng.uniform(0, 63, size=(n // 8, 2))
    dst, _ = transfer_points(nice_homography(rng), src)
    wild = {"exact": 0, "outliers": n}.get(layout, n // 2)
    dst[n - wild:] = rng.uniform(0, 63, size=(wild, 2))
    if quarter:
        src, dst = np.round(src * 4) / 4, np.round(dst * 4) / 4
    if layout == "nan":
        src[rng.integers(0, n)] = np.nan
    return src, dst


def _outcome(fn, *args):
    try:
        h, inliers = fn(*args)
    except DadkitError as exc:
        return type(exc)
    return np.asarray(getattr(h, "h", h)).tobytes(), inliers.dtype, inliers.tobytes()


@settings(deadline=None, max_examples=120)
@given(layout=st.sampled_from(["exact", "half", "outliers", "coincident", "collinear", "nan"]),
       n=st.integers(4, 300), quarter=st.booleans(), seed=st.integers(0, 2**32 - 1),
       iterations=st.sampled_from([1, 7, 200]), threshold=st.sampled_from([0.25, 1.0, 2.0]))
def test_ransac_equals_the_per_sample_loop(layout, n, quarter, seed, iterations, threshold):
    src, dst = _match_set(layout, n, quarter, seed)
    args = (src, dst, threshold, iterations, seed)
    if layout == "nan":  # checked on entry, whichever samples are drawn
        assert _outcome(ransac_homography, *args) is InvalidInputError
    else:
        assert _outcome(ransac_homography, *args) == _outcome(_ransac_reference, *args)


def _dlt_outcome(fn, src, dst):
    try:
        h = fn(src, dst)
    except DadkitError as exc:
        return type(exc)
    return np.asarray(getattr(h, "h", h)).tobytes()


@settings(deadline=None, max_examples=150)
@given(layout=st.sampled_from(["exact", "half", "outliers", "coincident", "collinear"]),
       n=st.sampled_from([4, 5]) | st.integers(4, 300), quarter=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dlt_equals_the_full_svd_reference(layout, n, quarter, seed):
    # dlt_homography reduces the SVD from 5 points on; the reference never does
    src, dst = _match_set(layout, n, quarter, seed)
    assert _dlt_outcome(dlt_homography, src, dst) == _dlt_outcome(_dlt_reference, src, dst)


# the geometry kernels against their summed and scalar forms, bit for bit

def _sq_dists_reference(src, dst):
    """_sq_dists as a sum over an (N, M, 2) difference."""
    return ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)


def _same_bits(got, want):
    """Equal shapes, NaN in the same places, and the same bytes everywhere else."""
    nan = np.isnan(want)
    return (got.shape == want.shape and (np.isnan(got) == nan).all()
            and got[~nan].tobytes() == want[~nan].tobytes())


# quarter-pixel coordinates (so distances of exactly 0.25, 1, 2, ... occur), and
# the values where IEEE arithmetic turns: signed zeros, tiny, huge, inf and NaN
COORDS = st.one_of(st.integers(-64, 320).map(lambda k: k / 4),
                   st.sampled_from([0.0, -0.0, 1e-300, 1e154, 1e200, -1e300,
                                    np.inf, -np.inf, np.nan]))


@settings(deadline=None, max_examples=300)
@given(src=st.integers(0, 9).flatmap(lambda n: arrays(np.float64, (n, 2), elements=COORDS)),
       dst=st.integers(0, 9).flatmap(lambda n: arrays(np.float64, (n, 2), elements=COORDS)))
def test_sq_dists_is_bitwise_the_summed_form(src, dst):
    with np.errstate(all="ignore"):
        assert _same_bits(_sq_dists(src, dst), _sq_dists_reference(src, dst))


# a last row [0, 0, w] puts w exactly at, just below and far from the 1e-12 cut
W_ROWS = st.sampled_from([0.0, -0.0, 1e-12, -1e-12, np.nextafter(1e-12, 0), 1e-300, 1.0, 2.0,
                          np.inf]).map(lambda w: np.array([0.0, 0.0, w]))
MATRICES = st.tuples(arrays(np.float64, (3, 3), elements=COORDS | st.floats(-2, 2)),
                     st.none() | W_ROWS).map(
    lambda mw: mw[0] if mw[1] is None else np.vstack([mw[0][:2], mw[1]]))


@settings(deadline=None, max_examples=300)
@given(h=st.lists(MATRICES, min_size=1, max_size=4), n=st.integers(0, 6), data=st.data())
def test_transfer_stack_equals_the_scalar_transfer(h, n, data):
    h = np.stack(h)
    p = data.draw(arrays(np.float64, (len(h), n, 2), elements=COORDS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, valid = _transfer(h, p)
    for b in range(len(h)):
        with np.errstate(all="ignore"):
            want, want_valid = _transfer_reference(h[b], p[b])
        assert valid[b].tolist() == want_valid.tolist()
        assert out[b][valid[b]].tobytes() == want[want_valid].tobytes()
        assert np.isnan(out[b][~valid[b]]).all()


# integer-translation and general models: quarter points then land at exact
# distances such as 2.0, on a threshold
MODELS = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
        lambda t: np.array([[1.0, 0, t[0] / 4], [0, 1.0, t[1] / 4], [0, 0, 1.0]])),
    st.integers(0, 2**32 - 1).map(lambda seed: nice_homography(np.random.default_rng(seed)).h))


@settings(deadline=None, max_examples=200)
@given(h=st.lists(MODELS, min_size=1, max_size=4),
       pts=st.integers(1, 8).flatmap(lambda n: arrays(np.float64, (2, n, 2), elements=COORDS)))
def test_symmetric_errors_equal_the_scalar_errors(h, pts):
    h, (src, dst) = np.stack(h), pts
    with np.errstate(all="ignore"):
        err, regular = _symmetric_errors(h, src, dst)
        for b in range(len(h)):
            assert regular[b]
            assert _same_bits(err[b], _symmetric_errors_reference(h[b], src, dst))


# scalar metrics

def test_corner_epe_zero_translation_and_scale_normalization():
    t = HomographyTransfer.identity()
    assert corner_epe(t, t, (480, 480)) == 0.0
    shifted = translation(1.0, 0.0)
    assert corner_epe(shifted, t, (480, 480)) == pytest.approx(1.0)
    assert corner_epe(shifted, t, (240, 240)) == pytest.approx(2.0)
    assert corner_epe(shifted, t, (960, 1280)) == pytest.approx(0.5)


def test_corner_epe_infinite_when_a_corner_vanishes():
    # vanishing line y = 7 passes through two corners of an 8x8 image
    h = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0.5, 1.0]]))
    bad = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, -1.0 / 7.0, 1.0]]))
    assert corner_epe(h, HomographyTransfer.identity(), (8, 8)) != math.inf
    assert corner_epe(bad, HomographyTransfer.identity(), (8, 8)) == math.inf
    with pytest.raises(InvalidInputError):
        corner_epe(h, h, (0, 8))


def test_auc_closed_form_and_riemann_cross_check():
    assert auc((0.0, 1.5, 3.0, 97.0), 3.0) == pytest.approx(0.375)
    assert auc([0.0, 0.0], 5.0) == 1.0
    assert auc(np.array([5.0, math.inf]), 5.0) == 0.0
    rng = np.random.default_rng(0)
    errs = tuple(rng.uniform(0, 6, size=40))
    taus = np.linspace(0, 3.0, 30001)
    acc = np.array([(np.asarray(errs) <= t).mean() for t in taus])
    riemann = float(np.trapezoid(acc, taus) / 3.0)
    assert auc(errs, 3.0) == pytest.approx(riemann, abs=1e-3)


def test_auc_validation():
    with pytest.raises(InsufficientDataError):
        auc((), 3.0)
    with pytest.raises(InvalidInputError):
        auc((-1.0,), 3.0)
    with pytest.raises(InvalidInputError):
        auc((float("nan"),), 3.0)
    for threshold in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            auc((1.0,), threshold)


# a value that is NaN, or one drawn from a wide range of magnitudes and signs
NANMEAN_VALUES = st.one_of(st.just(math.nan),
                           st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 1.0, 1e-300, 0.1, 1 / 3, 2 / 3]))


@settings(deadline=None, max_examples=300)
@given(values=st.lists(NANMEAN_VALUES, min_size=1, max_size=40))
def test_nanmean_is_bitwise_np_nanmean(values):
    if all(math.isnan(v) for v in values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_nanmean(values))
    else:
        got = _nanmean(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.nanmean(values).tobytes()


def test_detection_recall_counts_covered_gt():
    gt = kset([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)])
    dets = kset([(10.5, 10.0), (20.0, 21.0), (55.0, 55.0)])
    assert detection_recall(dets, gt, 2.0) == pytest.approx(0.5)
    assert math.isnan(detection_recall(dets, kset([]), 2.0))
    assert detection_recall(kset([]), gt, 2.0) == 0.0
    with pytest.raises(InvalidParameterError):
        detection_recall(dets, gt, 0.0)


def test_polarity_recall_splits_by_label():
    gt = kset([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)])
    dets = kset([(10.0, 10.0), (30.0, 30.0)])
    got = polarity_recall(dets, gt, ("light", "light", "dark"), 1.0)
    assert got["light"] == pytest.approx(0.5)
    assert got["dark"] == pytest.approx(1.0)
    none_dark = polarity_recall(dets, gt, ("light", "light", "light"), 1.0)
    assert math.isnan(none_dark["dark"])
    for bad in (("light",), ("light", "light", "grey")):
        with pytest.raises(InvalidInputError):
            polarity_recall(dets, gt, bad, 2.0)


# the harness

def gt_detections(pair):
    return (kset(pair.gt_keypoints_a.xy, pair.shape),
            kset(pair.gt_keypoints_b.xy, pair.shape))


def test_evaluate_detections_toy_rows():
    cfg = SceneConfig.toy(size=48, num_light=3, num_dark=2)
    pairs = [gen_toy_pair(pair_rng(1, i), cfg) for i in range(3)]
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    assert summary["num_pairs"] == 3.0
    assert summary["toy_mean_hits"] == 5.0
    assert summary["toy_frac_light"] + summary["toy_frac_dark"] == pytest.approx(1.0)
    assert summary["recall_light"] == 1.0 and summary["recall_dark"] == 1.0
    assert all(r["kind"] == "toy" and math.isnan(r["repeatability"]) for r in rows)


def test_evaluate_detections_scene_rows_on_ground_truth():
    cfg = SceneConfig.scenes(size=64, num_light=5, num_dark=5)
    pairs = [gen_scene_pair(pair_rng(2, i), cfg) for i in range(4)]
    pairs = [p for p in pairs if len(p.gt_keypoints_b) >= 4]
    assert len(pairs) >= 2
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    assert summary["mean_repeatability"] == pytest.approx(1.0)
    assert summary["auc_epe"] > 0.95
    assert summary["median_epe"] < 0.5
    for row in rows:
        assert row["kind"] == "scene"
        assert row["num_matches"] >= 4
        assert row["corner_epe"] < 0.5
        assert math.isnan(row["toy_hits"])


def test_evaluate_detections_polarity_recall_radius_by_kind():
    # every detection 3 px off its gt point: within hit_radius (4), outside recall_radius (2)
    def shifted(kps, shape):
        xy = kps.xy.copy()
        xy[:, 0] += np.where(xy[:, 0] + 3 <= shape[1] - 1, 3.0, -3.0)
        return kset(xy, shape)

    toy = [gen_toy_pair(pair_rng(4, i), SceneConfig.toy(size=48, num_light=3, num_dark=2))
           for i in range(2)]
    scenes = [gen_scene_pair(pair_rng(4, i), SceneConfig.scenes(size=64, num_light=5, num_dark=5))
              for i in range(2)]
    for pairs, want in ((toy, 1.0), (scenes, 0.0)):
        dets = [(shifted(p.gt_keypoints_a, p.shape), shifted(p.gt_keypoints_b, p.shape))
                for p in pairs]
        summary, rows = evaluate_detections(pairs, dets)
        assert summary["recall_light"] == summary["recall_dark"] == want
        assert all(r["recall_light"] == r["recall_dark"] == want for r in rows)


def test_evaluate_detections_validation():
    cfg = SceneConfig.toy(size=48, num_light=2, num_dark=2)
    pair = gen_toy_pair(pair_rng(0, 0), cfg)
    with pytest.raises(InvalidInputError):
        evaluate_detections([pair], [])
    with pytest.raises(InsufficientDataError):
        evaluate_detections([], [])


def test_write_report_formats(tmp_path):
    cfg = SceneConfig.toy(size=48, num_light=2, num_dark=2)
    pairs = [gen_toy_pair(pair_rng(3, i), cfg) for i in range(2)]
    summary, rows = evaluate_detections(pairs, [gt_detections(p) for p in pairs])
    rp, cp = tmp_path / "report.txt", tmp_path / "per_pair.csv"
    write_report(rp, cp, summary, rows)
    lines = rp.read_text().splitlines()
    assert lines == sorted(lines)
    parsed = dict(l.split("=", 1) for l in lines)
    assert float(parsed["toy_mean_hits"]) == 4.0
    csv_lines = cp.read_text().splitlines()
    assert csv_lines[0] == ",".join(PER_PAIR_FIELDS)
    assert len(csv_lines) == 3
    first = dict(zip(PER_PAIR_FIELDS, csv_lines[1].split(",")))
    assert first["kind"] == "toy"
    assert first["repeatability"] == "nan"


def test_eval_config_validation():
    with pytest.raises(InvalidParameterError):
        EvalConfig(match_threshold=0.0)
    with pytest.raises(InvalidParameterError):
        EvalConfig(ransac_iterations=0)
    for field in ("match_threshold", "ransac_threshold", "auc_threshold", "recall_radius",
                  "hit_radius"):
        for bad in (math.nan, 0.0, -math.inf):
            with pytest.raises(InvalidParameterError, match=f"^{field} must be positive, got "):
                EvalConfig(**{field: bad})
    with pytest.raises(InvalidParameterError, match="auc_threshold"):
        EvalConfig(auc_threshold=math.inf)
