"""Transfer and matching layer against scalar brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.errors import (DegenerateTransferError, InvalidInputError,
                           InvalidParameterError)
from dadkit.formats import read_homography, write_homography
from dadkit.geometry import (HomographyTransfer, MatchSet, _covered, _transfer,
                             apply_transfer, covisibility_mask, covisible, match_mutual_nn,
                             transfer_points)
from dadkit.sampler import KeypointSet


def random_transfer(rng: np.random.Generator) -> HomographyTransfer:
    while True:
        h = np.eye(3) + rng.normal(0.0, 0.05, size=(3, 3))
        h[2, :2] = rng.normal(0.0, 0.002, size=2)
        try:
            return HomographyTransfer(h)
        except DegenerateTransferError:
            continue


def random_kps(rng: np.random.Generator, n: int, shape) -> KeypointSet:
    xs = rng.uniform(0, shape[1] - 1, n)
    ys = rng.uniform(0, shape[0] - 1, n)
    sc = np.sort(rng.random(n))[::-1]
    return KeypointSet(np.stack([xs, ys], axis=1), sc, tuple(shape))


def triples(m: MatchSet) -> list[tuple[int, int, float]]:
    return list(zip(m.ia.tolist(), m.ib.tolist(), m.dist.tolist()))


def test_homography_normalizes_and_validates():
    t = HomographyTransfer(2.0 * np.eye(3))
    assert t.h[2, 2] == 1.0
    np.testing.assert_allclose(t.h, np.eye(3))
    with pytest.raises(InvalidInputError):
        HomographyTransfer(np.eye(2))
    with pytest.raises(DegenerateTransferError):
        HomographyTransfer(np.zeros((3, 3)))
    singular = np.eye(3)
    singular[1, 1] = 0.0
    with pytest.raises(DegenerateTransferError):
        HomographyTransfer(singular)


@pytest.mark.parametrize("scale", [1e110, 1e-110, 1e300, 1e-300])
def test_homography_rule_holds_at_every_scale(scale):
    # the singularity test runs on h / max|h|, so no scale overflows, underflows or warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert HomographyTransfer(np.eye(3) * scale).h.tolist() == np.eye(3).tolist()
        singular = np.eye(3) * scale
        singular[1, 1] = 0.0
        with pytest.raises(DegenerateTransferError):
            HomographyTransfer(singular)


def test_inverse_and_compose_laws():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        a = random_transfer(rng)
        b = random_transfer(rng)
        pt = tuple(rng.uniform(0, 20, size=2))
        there = apply_transfer(a, pt)
        back = apply_transfer(a.inverse(), there)
        assert back == pytest.approx(pt, abs=1e-9)
        lhs = apply_transfer(a.compose(b), pt)
        rhs = apply_transfer(a, apply_transfer(b, pt))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_apply_transfer_matches_homogeneous_arithmetic():
    rng = np.random.default_rng(1)
    t = random_transfer(rng)
    for _ in range(10):
        x, y = rng.uniform(-5, 25, size=2)
        v = t.h @ np.array([x, y, 1.0])
        got = apply_transfer(t, (x, y))
        assert got == pytest.approx((v[0] / v[2], v[1] / v[2]), rel=1e-12)


def test_apply_transfer_returns_none_at_infinity():
    # last row kills the line y = 2
    t = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, -2]]))
    assert apply_transfer(t, (3.0, 2.0)) is None
    assert apply_transfer(t, (3.0, 1.0)) is not None


def test_apply_transfer_rejects_an_overflowing_quotient():
    # w = 1e-10 is finite and >= 1e-12, yet x / w overflows: invalid, as in _transfer
    t = HomographyTransfer([[1.0, 0, 0], [0, 1, 0], [0, 1e-3, 1]])
    pt = (1e300, -999.9999999)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_transfer(t, pt) is None
        # the product itself overflows
        assert apply_transfer(HomographyTransfer(np.diag([10.0, 1, 1])), (1e308, 0.0)) is None
    assert not transfer_points(t, np.array([pt]))[1][0]


def test_transfer_points_agrees_with_scalar_map():
    rng = np.random.default_rng(2)
    t = HomographyTransfer(np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, -2]]))
    pts = np.column_stack([rng.uniform(-3, 3, 30), rng.uniform(-3, 6, 30)])
    pts[5] = (1.0, 2.0)  # exactly on the vanishing line
    out, valid = transfer_points(t, pts)
    for i, p in enumerate(pts):
        scalar = apply_transfer(t, p)
        if scalar is None:
            assert not valid[i]
        else:
            assert valid[i]
            assert out[i] == pytest.approx(scalar, rel=1e-12)


def test_transfer_validity_at_its_boundaries_and_nan_invalid_rows():
    # stack entry i has last row [0, 0, ws[i]], so a finite point gets w = ws[i] exactly
    ws = [0.0, np.nextafter(1e-12, 0), 1e-12, -1e-12, 1.0]
    h = np.stack([np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, w]]) for w in ws])
    out, valid = _transfer(h, np.array([[3.0, 1.0]]))
    assert valid[:, 0].tolist() == [False, False, True, True, True]
    assert out[2:, 0].tolist() == [[3e12, 1e12], [-3e12, -1e12], [3.0, 1.0]]
    # an infinite w (the product overflows) over finite x, y: quotients 0, yet invalid
    inf_w = np.array([[0.0, 0, 1], [0, 0, 1], [1e200, 0, 1]])
    # a finite w whose quotient overflows: invalid, and NaN rather than inf
    overflow = np.array([[1e299, 0, 0], [0, 1, 0], [0, 0, 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, valid = _transfer(np.stack([inf_w, overflow]),
                               np.array([[[1e200, 1.0], [0.0, 1.0]], [[10.0, 1.0], [0.0, 1.0]]]))
        moved, ok = transfer_points(HomographyTransfer.identity(),
                                    np.array([[np.inf, 0.0], [np.nan, 1.0], [1.0, 2.0]]))
    assert valid.tolist() == [[False, True], [False, True]]
    assert np.isnan(out[~valid]).all()
    assert out[0, 1].tolist() == [1.0, 1.0] and out[1, 1].tolist() == [0.0, 1e12]
    assert ok.tolist() == [False, False, True] and np.isnan(moved[:2]).all()


def test_transfer_points_rejects_bad_shape():
    with pytest.raises(InvalidInputError):
        transfer_points(HomographyTransfer.identity(), np.zeros((4, 3)))


def test_covisibility_matches_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = random_transfer(rng)
        shape_src = tuple(int(v) for v in rng.integers(5, 12, size=2))
        shape_dst = tuple(int(v) for v in rng.integers(5, 12, size=2))
        got = covisibility_mask(t, shape_src, shape_dst)
        for y in range(shape_src[0]):
            for x in range(shape_src[1]):
                m = apply_transfer(t, (x, y))
                want = (m is not None and 0 <= m[0] <= shape_dst[1] - 1
                        and 0 <= m[1] <= shape_dst[0] - 1)
                assert got[y, x] == want, (seed, x, y)


def test_covisibility_identity_and_translation():
    assert covisibility_mask(HomographyTransfer.identity(), (6, 8), (6, 8)).sum() == 48
    shift = HomographyTransfer(np.array([[1.0, 0, 3.0], [0, 1, 0], [0, 0, 1]]))
    m = covisibility_mask(shift, (6, 8), (6, 8))
    want = np.broadcast_to(np.arange(8) + 3 <= 7, (6, 8))
    np.testing.assert_array_equal(m, want)


def test_covisible_matches_mask_and_rejects_unmappable_points():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = random_transfer(rng)
        shape_src, shape_dst = (9, 11), (10, 7)
        ys, xs = np.mgrid[0:9, 0:11]
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
        # non-finite inputs and points on the line t sends to infinity
        a, b, c = t.h[2]
        x = np.array([0.0, 5.0])
        bad = np.vstack([[[np.inf, 0.0], [np.nan, 1.0]],
                         np.stack([x, -(a * x + c) / b], axis=1)])
        pts = np.vstack([grid, bad])
        assert not transfer_points(t, pts)[1][len(grid):].any()
        moved, inside = covisible(t, pts, shape_dst)
        mask = covisibility_mask(t, shape_src, shape_dst)
        np.testing.assert_array_equal(inside[:len(grid)], mask.ravel())
        assert not inside[len(grid):].any()
        np.testing.assert_array_equal(moved[inside], transfer_points(t, pts)[0][inside])


def mutual_oracle(ka, kb, t, threshold):
    """Scalar restatement of mutual nearest-neighbor matching."""
    pa, pb = ka.xy, kb.xy

    def nearest(q, pts):
        best, bd = -1, math.inf
        for j in range(len(pts)):
            d = math.hypot(q[0] - pts[j, 0], q[1] - pts[j, 1])
            if d < bd:
                best, bd = j, d
        return best, bd

    fa = [apply_transfer(t, p) for p in pa]
    fb = [apply_transfer(t.inverse(), p) for p in pb]
    ab, ba = [], []
    for i in range(len(pa)):
        if fa[i] is None:
            continue
        j, d = nearest(fa[i], pb)
        if d <= threshold and fb[j] is not None and nearest(fb[j], pa)[0] == i:
            ab.append((i, j, d))
    for j in range(len(pb)):
        if fb[j] is None:
            continue
        i, d = nearest(fb[j], pa)
        if d <= threshold and fa[i] is not None and nearest(fa[i], pb)[0] == j:
            ba.append((i, j, d))
    return ab, ba


def test_match_mutual_nn_matches_brute_force():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        t = random_transfer(rng)
        ka = random_kps(rng, int(rng.integers(1, 12)), (16, 16))
        kb = random_kps(rng, int(rng.integers(1, 12)), (16, 16))
        threshold = float(rng.uniform(0.5, 6.0))
        mab, mba = match_mutual_nn(ka, kb, t, threshold)
        oab, oba = mutual_oracle(ka, kb, t, threshold)
        assert [(i, j) for i, j, _ in triples(mab)] == [(i, j) for i, j, _ in oab]
        assert [(i, j) for i, j, _ in triples(mba)] == [(i, j) for i, j, _ in oba]
        np.testing.assert_allclose(mab.dist, [d for _, _, d in oab], atol=1e-9)
        np.testing.assert_allclose(mba.dist, [d for _, _, d in oba], atol=1e-9)


def test_match_mutual_nn_swap_symmetry():
    # swapping roles and inverting the transfer yields the same unordered
    # pairs with the same query-plane distances
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        t = random_transfer(rng)
        ka = random_kps(rng, 8, (16, 16))
        kb = random_kps(rng, 9, (16, 16))
        _, mba = match_mutual_nn(ka, kb, t, threshold=4.0)
        sab, _ = match_mutual_nn(kb, ka, t.inverse(), threshold=4.0)
        got = {(ia, ib, round(d, 9)) for ia, ib, d in triples(mba)}
        want = {(ia, ib, round(d, 9)) for ib, ia, d in triples(sab)}
        assert got == want


def test_match_mutual_nn_exact_correspondence_matches_everything():
    rng = np.random.default_rng(5)
    ka = random_kps(rng, 10, (20, 20))
    t = random_transfer(rng)
    moved, valid = transfer_points(t, ka.xy)
    assert valid.all()
    # build B as the exact transfers, clipped shape large enough to hold them
    shape = (64, 64)
    ok = (moved[:, 0] >= 0) & (moved[:, 0] <= 63) & (moved[:, 1] >= 0) & (moved[:, 1] <= 63)
    assert ok.all()
    kb = KeypointSet(moved, ka.scores, shape)
    mab, mba = match_mutual_nn(ka, kb, t, threshold=1e-6)
    assert len(mab) == len(ka) and len(mba) == len(ka)
    np.testing.assert_array_equal(mab.ia, mab.ib)
    assert float(mab.dist.max()) < 1e-9


def test_match_mutual_nn_empty_inputs_and_threshold():
    ka = KeypointSet((), (), (8, 8))
    kb = random_kps(np.random.default_rng(0), 3, (8, 8))
    mab, mba = match_mutual_nn(ka, kb, HomographyTransfer.identity(), 2.0)
    assert len(mab) == 0 and len(mba) == 0
    with pytest.raises(InvalidParameterError):
        match_mutual_nn(kb, kb, HomographyTransfer.identity(), 0.0)


# quarter-pixel points within 4 px: squared distances and the squared radii
# below are exact, so points at exactly the radius occur and count as covered
_QUARTER_POINTS = st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)), max_size=10).map(
    lambda rows: np.array(rows, dtype=np.float64).reshape(-1, 2) / 4)


@settings(deadline=None, max_examples=300)
@given(gt=_QUARTER_POINTS, pts=_QUARTER_POINTS, radius=st.sampled_from([0.25, 1.0, 2.0, 4.0]))
def test_covered_equals_a_scalar_check(gt, pts, radius):
    want = [any((gx - x) ** 2 + (gy - y) ** 2 <= radius * radius for x, y in pts.tolist())
            for gx, gy in gt.tolist()]
    got = _covered(gt, pts, radius)
    assert got.dtype == bool and got.tolist() == want


def test_matchset_validation():
    with pytest.raises(InvalidInputError):
        MatchSet([0, 2], [1, 1], [1.0, 0.5])  # b index 1 reused
    with pytest.raises(InvalidInputError):
        MatchSet([0], [1], [-1.0])
    with pytest.raises(InvalidInputError):
        MatchSet([0], [1, 2], [1.0, 0.5])  # lengths differ


def test_homography_io_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(9)
    t = random_transfer(rng)
    p = tmp_path / "h.txt"
    write_homography(p, t)
    back = read_homography(p)
    np.testing.assert_array_equal(back.h, t.h)
    p.write_text("1 2 3\n")
    with pytest.raises(InvalidInputError):
        read_homography(p)
