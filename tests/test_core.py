"""Grid probability machinery against independent oracles.

Softmax and KL are checked against 50-digit mpmath recomputations; the
separable blur is checked against a dense symmetric-pad convolution written
from scratch here.  The blur's conservation laws (mass, constants,
self-adjointness) get their own property loops because downstream gradients
assume them exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dadkit.core import (GRID_MAGIC, KL_FLOOR, LogProbMap, Mask, ProbMap,
                         ScoreMap, gaussian_blur, gaussian_kernel_1d,
                         kl_divergence, masked_log_softmax, read_dadf,
                         shifted, softmax_2d, write_dadf)
from dadkit.errors import (DegenerateMaskError, InvalidInputError,
                           InvalidParameterError)


def softmax_oracle(z: np.ndarray) -> np.ndarray:
    """Extended-precision softmax, no stabilization tricks needed."""
    with mp.workdps(50):
        vals = [mp.e ** mp.mpf(float(v)) for v in z.ravel()]
        total = mp.fsum(vals)
        out = np.array([float(v / total) for v in vals])
    return out.reshape(z.shape)


def kl_oracle(t: np.ndarray, q: np.ndarray, floor: float) -> float:
    with mp.workdps(50):
        acc = mp.mpf(0)
        for ti, qi in zip(t.ravel(), q.ravel()):
            if ti > 0:
                qf = max(mp.mpf(float(qi)), mp.mpf(floor))
                acc += mp.mpf(float(ti)) * (mp.log(mp.mpf(float(ti))) - mp.log(qf))
        return float(acc)


def blur_oracle(a: np.ndarray, sigma: float) -> np.ndarray:
    """Dense 2-D convolution over an explicitly symmetric-padded copy."""
    k1 = gaussian_kernel_1d(sigma)
    r = len(k1) // 2
    pad = np.pad(a, r, mode="symmetric")
    k2 = np.outer(k1, k1)
    out = np.zeros_like(a, dtype=np.float64)
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            out[y, x] = float((pad[y:y + 2 * r + 1, x:x + 2 * r + 1] * k2).sum())
    return out


def test_softmax_matches_extended_precision_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(8, 13, size=2)
        scale = rng.choice([1.0, 10.0, 50.0])  # stress the stabilization
        z = rng.normal(0.0, scale, size=(h, w))
        got = softmax_2d(z).probs
        want = softmax_oracle(z)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


def test_softmax_sums_to_one_and_is_shift_invariant():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(9, 11))
        p = softmax_2d(z).probs
        assert abs(p.sum() - 1.0) < 1e-12
        q = softmax_2d(z + 123.456).probs
        np.testing.assert_allclose(p, q, rtol=1e-12)


def test_softmax_accepts_scoremap_wrapper():
    z = np.zeros((8, 8))
    p = softmax_2d(ScoreMap(z)).probs
    np.testing.assert_allclose(p, np.full((8, 8), 1.0 / 64.0), rtol=1e-15)


def test_softmax_rejects_nonfinite_logits():
    z = np.zeros((8, 8))
    z[3, 3] = np.nan
    with pytest.raises(InvalidInputError):
        softmax_2d(z)


def test_masked_log_softmax_matches_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 5.0, size=(10, 10))
        bits = rng.random((10, 10)) < 0.6
        bits[0, 0] = True  # never empty
        lp = masked_log_softmax(z, Mask(bits))
        assert np.all(np.isneginf(lp.logprobs[~bits]))
        probs = lp.probs()
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs[~bits] == 0.0)
        with mp.workdps(50):
            total = mp.fsum(mp.e ** mp.mpf(float(v)) for v in z[bits])
            want = np.array([float(mp.log(mp.e ** mp.mpf(float(v)) / total))
                             for v in z[bits]])
        np.testing.assert_allclose(lp.logprobs[bits], want, rtol=1e-12, atol=1e-12)


def test_masked_log_softmax_empty_mask_raises():
    with pytest.raises(DegenerateMaskError):
        masked_log_softmax(np.zeros((8, 8)), Mask(np.zeros((8, 8), dtype=bool)))


def test_masked_log_softmax_shape_mismatch_raises():
    with pytest.raises(InvalidInputError):
        masked_log_softmax(np.zeros((8, 8)), Mask(np.ones((8, 9), dtype=bool)))


def test_gaussian_kernel_matches_formula():
    for sigma in (0.5, 1.0, 1.7, 3.2):
        k = gaussian_kernel_1d(sigma)
        radius = int(np.ceil(3.0 * sigma))
        assert len(k) == 2 * radius + 1
        xs = np.arange(-radius, radius + 1, dtype=np.float64)
        want = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
        want /= want.sum()
        np.testing.assert_allclose(k, want, rtol=1e-15)
        assert abs(k.sum() - 1.0) < 1e-14
        np.testing.assert_array_equal(k, k[::-1])


def test_gaussian_kernel_rejects_bad_sigma():
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidParameterError):
            gaussian_kernel_1d(sigma)


def test_blur_matches_dense_symmetric_pad_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(8, 15, size=2)
        sigma = float(rng.uniform(0.4, 2.0))
        a = rng.normal(size=(h, w))
        np.testing.assert_allclose(gaussian_blur(a, sigma), blur_oracle(a, sigma),
                                   rtol=1e-12, atol=1e-12)


def test_blur_impulse_far_from_border_is_separable_kernel():
    sigma = 1.0
    k = gaussian_kernel_1d(sigma)
    r = len(k) // 2
    a = np.zeros((16, 16))
    a[8, 8] = 1.0
    out = gaussian_blur(a, sigma)
    np.testing.assert_allclose(out[8 - r:8 + r + 1, 8 - r:8 + r + 1],
                               np.outer(k, k), rtol=1e-14, atol=1e-18)


def test_blur_conserves_mass_and_preserves_constants():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        a = rng.random((11, 13))
        sigma = float(rng.uniform(0.4, 2.0))
        out = gaussian_blur(a, sigma)
        assert abs(out.sum() - a.sum()) < 1e-10
        const = gaussian_blur(np.full((9, 9), 0.37), sigma)
        np.testing.assert_allclose(const, 0.37, rtol=1e-13)


def test_blur_is_self_adjoint():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(10, 12))
        b = rng.normal(size=(10, 12))
        sigma = float(rng.uniform(0.4, 2.0))
        lhs = float((gaussian_blur(a, sigma) * b).sum())
        rhs = float((a * gaussian_blur(b, sigma)).sum())
        assert abs(lhs - rhs) < 1e-10


def test_kl_matches_extended_precision_oracle():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        t = rng.random((8, 9)) + 1e-3
        t /= t.sum()
        q = rng.random((8, 9)) + 1e-3
        q /= q.sum()
        got = kl_divergence(t, q)
        want = kl_oracle(t, q, KL_FLOOR)
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_kl_is_zero_on_self_and_nonnegative():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        t = rng.random((8, 8)) + 1e-6
        t /= t.sum()
        assert kl_divergence(t, t) == pytest.approx(0.0, abs=1e-14)
        q = rng.random((8, 8)) + 1e-6
        q /= q.sum()
        assert kl_divergence(t, q) > -1e-14


def test_kl_floors_vanishing_denominator():
    t = np.zeros((8, 8))
    t[0, 0] = 1.0
    q = np.zeros((8, 8))
    q[1, 1] = 1.0  # q is zero exactly where t has mass
    want = float(np.log(1.0 / KL_FLOOR))
    assert kl_divergence(t, q) == pytest.approx(want, rel=1e-12)


def test_kl_rejects_shape_mismatch_and_negatives():
    t = np.full((8, 8), 1.0 / 64.0)
    with pytest.raises(InvalidInputError):
        kl_divergence(t, np.full((8, 9), 1.0 / 72.0))
    bad = t.copy()
    bad[0, 0] = -0.1
    with pytest.raises(InvalidInputError):
        kl_divergence(t, bad)


def test_shifted_matches_index_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 7))
        dy, dx = rng.integers(-8, 9, size=2)
        got = shifted(a, int(dy), int(dx), fill=-5.0)
        want = np.full_like(a, -5.0)
        for y in range(6):
            for x in range(7):
                if 0 <= y + dy < 6 and 0 <= x + dx < 7:
                    want[y, x] = a[y + dy, x + dx]
        np.testing.assert_array_equal(got, want)


def test_dadf_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 14))
    p = tmp_path / "grid.dadf"
    write_dadf(p, a)
    back = read_dadf(p)
    np.testing.assert_array_equal(back, a.astype("<f4").astype(np.float64))
    write_dadf(p, back)  # second trip is exact: values already representable
    np.testing.assert_array_equal(read_dadf(p), back)
    assert p.read_bytes()[:4] == GRID_MAGIC


def test_dadf_rejects_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.dadf"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(InvalidInputError):
        read_dadf(p)
    write_dadf(p, np.zeros((8, 8)))
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(InvalidInputError):
        read_dadf(p)


@settings(deadline=None, max_examples=20)
@given(h=st.integers(1, 5), w=st.integers(1, 5))
def test_dadf_cut_at_every_length_raises_invalid_input(tmp_path_factory, h, w):
    p = tmp_path_factory.mktemp("dadf") / "grid.dadf"
    write_dadf(p, np.arange(h * w, dtype=np.float64).reshape(h, w))
    blob = p.read_bytes()
    for n in range(len(blob)):
        p.write_bytes(blob[:n])
        with pytest.raises(InvalidInputError, match="grid.dadf"):
            read_dadf(p)


def test_scoremap_validation():
    with pytest.raises(InvalidInputError):
        ScoreMap(np.zeros((7, 8)))
    z = np.zeros((8, 8))
    z[0, 0] = np.inf
    with pytest.raises(InvalidInputError):
        ScoreMap(z)
    s = ScoreMap(np.zeros((8, 10)))
    assert s.shape == (8, 10) and s.height == 8 and s.width == 10


def test_probmap_validation():
    with pytest.raises(InvalidInputError):
        ProbMap(np.full((8, 8), 0.1))  # sums to 6.4
    bad = np.full((8, 8), 1.0 / 64.0)
    bad[0, 0] = -bad[0, 0]
    with pytest.raises(InvalidInputError):
        ProbMap(np.abs(bad) * 0 + bad)


def test_mask_count_and_full():
    m = Mask(np.eye(5, dtype=bool))
    assert m.count() == 5 and m.shape == (5, 5)
    assert Mask.full((3, 4)).count() == 12


def test_logprobmap_requires_masked_normalization():
    bits = np.zeros((8, 8), dtype=bool)
    bits[2, 3] = True
    lp = LogProbMap(np.where(bits, 0.0, -np.inf), Mask(bits))
    assert lp.probs()[2, 3] == 1.0
    two = bits.copy()
    two[4, 4] = True  # two pixels at logprob 0 carry mass 2, not 1
    with pytest.raises(InvalidInputError):
        LogProbMap(np.where(two, 0.0, -np.inf), Mask(two))
