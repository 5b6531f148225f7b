"""Transfer and matching layer against scalar brute-force oracles."""

import math

import numpy as np
import pytest

from dadkit.errors import (DegenerateTransferError, InvalidInputError,
                           InvalidParameterError)
from dadkit.geometry import (HomographyTransfer, MatchSet, apply_transfer,
                             covisibility_mask, covisible, match_mutual_nn,
                             read_homography, transfer_points,
                             write_homography)
from dadkit.sampler import Keypoint, KeypointSet


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
    return KeypointSet(tuple(Keypoint(float(x), float(y), float(s))
                             for x, y, s in zip(xs, ys, sc)), tuple(shape))


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


def test_transfer_points_rejects_bad_shape():
    with pytest.raises(InvalidInputError):
        transfer_points(HomographyTransfer.identity(), np.zeros((4, 3)))


def test_covisibility_matches_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = random_transfer(rng)
        shape_src = tuple(int(v) for v in rng.integers(5, 12, size=2))
        shape_dst = tuple(int(v) for v in rng.integers(5, 12, size=2))
        got = covisibility_mask(t, shape_src, shape_dst).bits
        for y in range(shape_src[0]):
            for x in range(shape_src[1]):
                m = apply_transfer(t, (x, y))
                want = (m is not None and 0 <= m[0] <= shape_dst[1] - 1
                        and 0 <= m[1] <= shape_dst[0] - 1)
                assert got[y, x] == want, (seed, x, y)


def test_covisibility_identity_and_translation():
    assert covisibility_mask(HomographyTransfer.identity(), (6, 8), (6, 8)).count() == 48
    shift = HomographyTransfer(np.array([[1.0, 0, 3.0], [0, 1, 0], [0, 0, 1]]))
    m = covisibility_mask(shift, (6, 8), (6, 8)).bits
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
        mask = covisibility_mask(t, shape_src, shape_dst).bits
        np.testing.assert_array_equal(inside[:len(grid)], mask.ravel())
        assert not inside[len(grid):].any()
        np.testing.assert_array_equal(moved[inside], transfer_points(t, pts)[0][inside])


def mutual_oracle(ka, kb, t, threshold):
    """Scalar restatement of mutual nearest-neighbor matching."""
    pa, pb = ka.xy(), kb.xy()

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
        assert [(i, j) for i, j, _ in mab.pairs] == [(i, j) for i, j, _ in oab]
        assert [(i, j) for i, j, _ in mba.pairs] == [(i, j) for i, j, _ in oba]
        np.testing.assert_allclose(mab.distances(), [d for _, _, d in oab], atol=1e-9)
        np.testing.assert_allclose(mba.distances(), [d for _, _, d in oba], atol=1e-9)


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
        got = {(ia, ib, round(d, 9)) for ia, ib, d in mba.pairs}
        want = {(ia, ib, round(d, 9)) for ib, ia, d in sab.pairs}
        assert got == want


def test_match_mutual_nn_exact_correspondence_matches_everything():
    rng = np.random.default_rng(5)
    ka = random_kps(rng, 10, (20, 20))
    t = random_transfer(rng)
    moved, valid = transfer_points(t, ka.xy())
    assert valid.all()
    # build B as the exact transfers, clipped shape large enough to hold them
    shape = (64, 64)
    ok = (moved[:, 0] >= 0) & (moved[:, 0] <= 63) & (moved[:, 1] >= 0) & (moved[:, 1] <= 63)
    assert ok.all()
    kb = KeypointSet(tuple(Keypoint(float(x), float(y), float(s))
                           for (x, y), s in zip(moved, ka.scores())), shape)
    mab, mba = match_mutual_nn(ka, kb, t, threshold=1e-6)
    assert len(mab) == len(ka) and len(mba) == len(ka)
    assert all(ia == ib for ia, ib, _ in mab.pairs)
    assert float(mab.distances().max()) < 1e-9


def test_match_mutual_nn_empty_inputs_and_threshold():
    ka = KeypointSet((), (8, 8))
    kb = random_kps(np.random.default_rng(0), 3, (8, 8))
    mab, mba = match_mutual_nn(ka, kb, HomographyTransfer.identity(), 2.0)
    assert len(mab) == 0 and len(mba) == 0
    with pytest.raises(InvalidParameterError):
        match_mutual_nn(kb, kb, HomographyTransfer.identity(), 0.0)


def test_matchset_validation():
    with pytest.raises(InvalidInputError):
        MatchSet(((0, 1, 1.0),), "sideways")
    with pytest.raises(InvalidInputError):
        MatchSet(((0, 1, 1.0), (2, 1, 0.5)), "a_to_b")  # b index 1 reused
    with pytest.raises(InvalidInputError):
        MatchSet(((0, 1, -1.0),), "a_to_b")


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
