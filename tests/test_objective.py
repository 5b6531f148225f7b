"""Reinforcement and coverage losses against manual math and logit-space FD.

The gradient checks here differentiate w.r.t. the scoremap pixels directly
(the conv stack has its own suite); matches are frozen, exactly as the
training loop treats them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.core import gaussian_blur, kl_divergence, masked_log_softmax, softmax_2d
from dadkit.errors import (DadkitError, DegenerateMaskError, InvalidInputError,
                           InvalidParameterError)
from dadkit.geometry import MatchSet
from dadkit.objective import (RewardConfig, normalize_rewards, raw_reward,
                              reg_loss_and_grad, rl_loss_and_grad, total_loss_and_grad)
from dadkit.sampler import KeypointSet


def fd_grad(fn, z: np.ndarray, step: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(z)
    flat = g.ravel()
    for i in range(z.size):
        zp = z.ravel().copy()
        zm = z.ravel().copy()
        zp[i] += step
        zm[i] -= step
        flat[i] = (fn(zp.reshape(z.shape)) - fn(zm.reshape(z.shape))) / (2 * step)
    return g


def random_case(seed: int):
    """Scoremaps, masks, keypoints, and frozen matches for one pair."""
    rng = np.random.default_rng(seed)
    h, w = 10, 11
    sa = rng.normal(size=(h, w))
    sb = rng.normal(size=(h, w))
    bits_a = np.ones((h, w), dtype=bool)
    bits_a[:2, :2] = False
    bits_b = np.ones((h, w), dtype=bool)
    bits_b[-2:, -3:] = False

    def kps(n, bits):
        idx = rng.choice(np.flatnonzero(bits), size=n, replace=False)
        sc = np.sort(rng.random(n))[::-1]
        return KeypointSet(np.stack([idx % w, idx // w], axis=1), sc, (h, w))

    ka, kb = kps(5, bits_a), kps(6, bits_b)
    m = 4
    ia = rng.choice(5, size=m, replace=False)
    ib = rng.choice(6, size=m, replace=False)
    dists = rng.uniform(0.0, 2.0, size=m)
    mab = MatchSet(ia, ib, dists)
    ib2 = rng.choice(6, size=3, replace=False)
    ia2 = rng.integers(0, 5, size=3)
    d2 = rng.uniform(0.0, 2.0, size=3)
    mba = MatchSet(ia2, ib2, d2)
    return sa, sb, bits_a, bits_b, ka, kb, mab, mba


def test_raw_reward_takes_arrays_and_is_strict_at_the_radius():
    cfg = RewardConfig(tau_r=1.0)
    got = raw_reward(np.array([0.0, 0.999999, 1.0, 5.0]), cfg)
    assert got.dtype == np.float64 and got.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert raw_reward(np.empty(0), cfg).shape == (0,)
    assert raw_reward(0.999999, cfg) == 1.0
    assert raw_reward(1.0, cfg) == 0.0
    assert raw_reward(5.0, RewardConfig(tau_r=2.0)) == 0.0
    for shape in (cfg, RewardConfig(tau_r=1.0, linear_decay=True)):
        for bad in (-0.1, np.inf, np.nan, [0.5, -0.1], [0.0, np.inf]):
            with pytest.raises(InvalidInputError):
                raw_reward(bad, shape)
    with pytest.raises(InvalidParameterError):
        RewardConfig(tau_r=0.0)


def test_raw_reward_linear_decay_ramp():
    cfg = RewardConfig(tau_r=2.0, linear_decay=True)
    assert raw_reward(0.0, cfg) == 1.0
    assert raw_reward(1.0, cfg) == pytest.approx(0.5)
    assert raw_reward(2.0, cfg) == 0.0
    assert raw_reward(7.0, cfg) == 0.0
    assert raw_reward([0.0, 1.0, 2.0, 7.0], cfg).tolist() == [1.0, 0.5, 0.0, 0.0]


def test_normalize_rewards_divides_by_mean_plus_eps():
    r = np.array([1.0, 0.0, 1.0, 1.0])
    got = normalize_rewards(r, eps=0.01)
    np.testing.assert_allclose(got, r / (0.75 + 0.01), rtol=1e-15)
    assert normalize_rewards(np.zeros(3), 0.01) == pytest.approx([0, 0, 0])
    assert normalize_rewards([], 0.01).size == 0
    with pytest.raises(InvalidInputError):
        normalize_rewards([-1.0], 0.01)


def test_rl_loss_matches_manual_restatement():
    for seed in range(8):
        sa, sb, mask_a, mask_b, ka, kb, mab, mba = random_case(seed)
        cfg = RewardConfig(tau_r=1.0)
        loss, _, _, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba, cfg)

        raw = np.array([1.0 if d < 1.0 else 0.0 for d in
                        list(mab.dist) + list(mba.dist)])
        rhat = raw / (raw.mean() + 0.01)

        def logp(z, bits):
            zm = np.where(bits, z, -np.inf)
            m = zm.max()
            return zm - (m + np.log(np.exp(zm[bits] - m).sum()))

        lpa, lpb = logp(sa, mask_a), logp(sb, mask_b)
        want = 0.0
        for i, r in zip(mab.ia, rhat[:len(mab)]):
            x, y = ka.xy[i]
            want -= r * lpa[int(y), int(x)]
        for j, r in zip(mba.ib, rhat[len(mab):]):
            x, y = kb.xy[j]
            want -= r * lpb[int(y), int(x)]
        assert loss == pytest.approx(want, rel=1e-12)


def test_rl_gradients_match_logit_finite_differences():
    for seed in range(5):
        sa, sb, mask_a, mask_b, ka, kb, mab, mba = random_case(seed)
        cfg = RewardConfig(tau_r=1.2)
        _, ga, gb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba, cfg)
        fa = fd_grad(lambda z: rl_loss_and_grad(z, sb, mask_a, mask_b,
                                                ka, kb, mab, mba, cfg)[0], sa)
        fb = fd_grad(lambda z: rl_loss_and_grad(sa, z, mask_a, mask_b,
                                                ka, kb, mab, mba, cfg)[0], sb)
        np.testing.assert_allclose(ga, fa, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(gb, fb, rtol=1e-6, atol=1e-9)


def test_rl_gradient_vanishes_outside_mask_and_balances():
    sa, sb, mask_a, mask_b, ka, kb, mab, mba = random_case(3)
    _, ga, gb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba,
                                    RewardConfig())
    assert np.all(ga[~mask_a] == 0.0)
    assert np.all(gb[~mask_b] == 0.0)
    # sum of gradient = coef * sum(p) - coef = 0 per direction
    assert abs(ga.sum()) < 1e-12 and abs(gb.sum()) < 1e-12


def test_rl_each_direction_reinforces_its_query_side():
    sa, sb, mask_a, mask_b, ka, kb, mab, _ = random_case(4)
    empty = MatchSet((), (), ())
    _, ga, gb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, empty,
                                    RewardConfig())
    assert np.abs(ga).max() > 0
    assert np.all(gb == 0.0)


def test_rl_normalization_pools_both_directions():
    # one rewarded A->B match and one unrewarded B->A match: the shared
    # pooled mean is 1/2, so the A->B weight is 1/(0.5+eps)
    sa, sb, mask_a, mask_b, ka, kb, _, _ = random_case(5)
    mab = MatchSet([0], [0], [0.0])
    mba = MatchSet([0], [0], [99.0])
    cfg = RewardConfig(tau_r=1.0, eps=0.01)
    loss, _, _, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba, cfg)
    x, y = ka.xy[0]
    zm = np.where(mask_a, sa, -np.inf)
    m = zm.max()
    lp = zm[int(y), int(x)] - (m + np.log(np.exp(zm[mask_a] - m).sum()))
    assert loss == pytest.approx(-(1.0 / 0.51) * lp, rel=1e-12)


def test_rl_no_matches_gives_zero_loss_and_gradients():
    sa, sb, mask_a, mask_b, ka, kb, _, _ = random_case(6)
    empty = MatchSet((), (), ())
    loss, ga, gb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb,
                                       empty, empty, RewardConfig())
    assert loss == 0.0
    assert np.all(ga == 0.0) and np.all(gb == 0.0)


def test_rl_rejects_matched_pixel_outside_mask():
    sa, sb, mask_a, mask_b, _, kb, _, _ = random_case(7)
    ka = KeypointSet([[0.0, 0.0]], [1.0], (10, 11))  # masked-out corner
    assert not mask_a[0, 0]
    mab = MatchSet([0], [0], [0.0])
    with pytest.raises(InvalidInputError):
        rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab,
                         MatchSet((), (), ()), RewardConfig())



# The per-match loop that rl_loss_and_grad replaced, kept verbatim as the
# reference: rewards one distance at a time, one loop over the matches.

def _reward_threshold_reference(distance: float, tau_r: float) -> float:
    """1.0 strictly inside the radius, 0.0 at and beyond it."""
    if distance < 0 or not np.isfinite(distance):
        raise InvalidInputError(f"distance must be finite and >= 0, got {distance}")
    if not (tau_r > 0):
        raise InvalidParameterError("tau_r must be positive")
    return 1.0 if distance < tau_r else 0.0


def _raw_reward_reference(distance: float, cfg: RewardConfig) -> float:
    """Reward of one match distance under the configured shape."""
    if cfg.linear_decay:
        if distance < 0 or not np.isfinite(distance):
            raise InvalidInputError(f"distance must be finite and >= 0, got {distance}")
        return max(0.0, 1.0 - distance / cfg.tau_r)
    return _reward_threshold_reference(distance, cfg.tau_r)


def _pooled_raw_rewards_reference(mab: MatchSet, mba: MatchSet, cfg: RewardConfig) -> np.ndarray:
    ds = np.concatenate([mab.dist, mba.dist])
    return np.array([_raw_reward_reference(d, cfg) for d in ds], dtype=np.float64)


def _directional_reference(scoremap, mask, kps: KeypointSet, indices, rhat):
    """-sum_m rhat_m log p(x_m) over keypoints kps[indices[m]], and its gradient."""
    logp, p = masked_log_softmax(scoremap, mask)
    h, w = p.shape
    loss = 0.0
    grad = np.zeros_like(p)
    coef = 0.0
    for idx, r in zip(indices.tolist(), rhat):
        if not (0 <= idx < len(kps)):
            raise InvalidInputError(f"match references keypoint {idx} of {len(kps)}")
        x, y = kps.xy[idx].tolist()
        xi, yi = int(round(x)), int(round(y))
        if not (0 <= xi < w and 0 <= yi < h):
            raise InvalidInputError(f"keypoint pixel ({xi}, {yi}) outside grid")
        if not np.asarray(mask, dtype=bool)[yi, xi]:
            raise InvalidInputError(f"matched pixel ({xi}, {yi}) is outside the mask")
        loss -= r * logp[yi, xi]
        grad[yi, xi] -= r
        coef += r
    grad += coef * p
    return loss, grad


def _rl_reference(sa, sb, mask_a, mask_b, ka, kb, mab, mba, cfg):
    raw = _pooled_raw_rewards_reference(mab, mba, cfg)
    rhat = normalize_rewards(raw, cfg.eps)
    rhat_ab, rhat_ba = rhat[: len(mab)], rhat[len(mab):]
    loss_a, grad_a = _directional_reference(sa, mask_a, ka, mab.ia, rhat_ab)
    loss_b, grad_b = _directional_reference(sb, mask_b, kb, mba.ib, rhat_ba)
    return loss_a + loss_b, grad_a, grad_b, raw


def _rl_outcome(fn, *args):
    try:
        loss, ga, gb, raw = fn(*args)
    except DadkitError as exc:
        return type(exc)
    return np.float64(loss).tobytes(), ga.tobytes(), gb.tobytes(), raw.tobytes()


def _loop_case(seed, n_ab, n_ba, rewards, peaked, fault):
    """A pair whose keypoints sit off pixel centers (half-pixel ties included)
    and share pixels, so rounding and repeated pixels are exercised.  `peaked`
    puts a logit of 1e3 under the first match of each direction, whose
    log-probability is then exactly 0.  A fault puts the first A->B match on a
    bad index, off the scoremap grid or off the mask."""
    rng = np.random.default_rng(seed)
    h, w = 9, 10
    sa, sb = rng.normal(size=(h, w)), rng.normal(size=(h, w))
    bits = np.ones((h, w), dtype=bool)
    bits[:2, :2] = False
    shape = (h + 3, w + 3) if fault == "grid" else (h, w)

    def kps(n):
        # centers at x >= 3 stay off the masked corner after rounding
        xy = np.stack([rng.integers(3, w, n), rng.integers(0, h, n)], axis=1)
        xy = np.clip(xy + rng.choice([-0.5, -0.3, 0.0, 0.2, 0.5], size=(n, 2)),
                     0, (w - 1, h - 1))
        if fault == "grid":
            xy[0] = (w + 1, 0)
        elif fault == "mask":
            xy[0] = (0, 0)
        return KeypointSet(xy, np.sort(rng.random(n))[::-1], shape)

    ka, kb = kps(14), kps(16)
    tau_r = 1.0

    def matches(ia, ib):
        dist = rng.uniform(0.0, 2.0, len(ia))
        dist[rng.random(len(ia)) < 0.25] = tau_r  # the radius itself earns nothing
        if rewards == "zero":
            dist = dist + tau_r
        return MatchSet(ia, ib, dist)

    ia = rng.integers(0, 14, n_ab)
    if fault == "index":
        ia[0] = rng.choice([-1, 14])
    elif fault in ("grid", "mask"):
        ia[0] = 0
    mab = matches(ia, rng.choice(16, n_ab, replace=False))
    mba = matches(rng.integers(0, 14, n_ba), rng.choice(16, n_ba, replace=False))
    if peaked and not fault:
        for smap, k, m in ((sa, ka, mab.ia), (sb, kb, mba.ib)):
            if len(m):
                x, y = k.pixels[m[0]]
                smap[y, x] = 1e3
    return sa, sb, bits, bits, ka, kb, mab, mba


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n_ab=st.integers(0, 16), n_ba=st.integers(0, 16),
       rewards=st.sampled_from(["mixed", "zero"]), peaked=st.booleans(),
       linear_decay=st.booleans(), fault=st.sampled_from([None, None, "index", "grid", "mask"]))
def test_rl_loss_equals_the_per_match_loop(seed, n_ab, n_ba, rewards, peaked, linear_decay,
                                           fault):
    n_ab = max(n_ab, 1) if fault else n_ab
    case = _loop_case(seed, n_ab, n_ba, rewards, peaked, fault)
    cfg = RewardConfig(tau_r=1.0, linear_decay=linear_decay)
    got = _rl_outcome(rl_loss_and_grad, *case, cfg)
    assert got == _rl_outcome(_rl_reference, *case, cfg)
    if fault:
        assert got is InvalidInputError
    elif rewards == "zero" or n_ab + n_ba == 0:
        loss, ga, gb, _ = rl_loss_and_grad(*case, cfg)
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0
        assert not ga.any() and not gb.any()


def test_reg_loss_matches_direct_kl():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(12, 12))
        bits = rng.random((12, 12)) < 0.7
        bits[5, 5] = True
        sigma = 1.1
        loss, _ = reg_loss_and_grad(z, bits, sigma)
        target = gaussian_blur(bits / bits.sum(), sigma)
        blurred = gaussian_blur(softmax_2d(z), sigma)
        assert loss == pytest.approx(kl_divergence(target, blurred), rel=1e-12)


def test_reg_gradient_matches_logit_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(10, 10))
        bits = rng.random((10, 10)) < 0.6
        bits[4, 4] = True
        sigma = 0.9
        _, grad = reg_loss_and_grad(z, bits, sigma)
        fd = fd_grad(lambda zz: reg_loss_and_grad(zz, bits, sigma)[0], z)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


def test_reg_gradient_sums_to_zero():
    # invariance to constant logit shifts forces a zero-sum gradient
    rng = np.random.default_rng(11)
    z = rng.normal(size=(10, 10))
    _, grad = reg_loss_and_grad(z, np.ones((10, 10), dtype=bool), sigma=1.3)
    assert abs(grad.sum()) < 1e-14


def test_reg_perfect_coverage_is_minimal():
    # uniform scoremap over a full indicator: target equals blurred exactly
    loss, grad = reg_loss_and_grad(np.zeros((9, 9)), np.ones((9, 9), dtype=bool), sigma=1.0)
    assert loss == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(grad, 0.0, atol=1e-13)


def test_reg_empty_indicator_raises():
    with pytest.raises(DegenerateMaskError):
        reg_loss_and_grad(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool), 1.0)


def test_total_loss_combines_and_reports():
    sa, sb, mask_a, mask_b, ka, kb, mab, mba = random_case(8)
    cfg = RewardConfig(tau_r=1.0)
    sigma = 1.0
    report, ga, gb = total_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb,
                                         mab, mba, cfg, sigma, reg_weight=2.5)
    rl, ra, rb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba, cfg)
    la, gra = reg_loss_and_grad(sa, mask_a, sigma)
    lb, grb = reg_loss_and_grad(sb, mask_b, sigma)
    assert report.rl_loss == pytest.approx(rl, rel=1e-12)
    assert report.reg_loss == pytest.approx(2.5 * (la + lb), rel=1e-12)
    assert report.total == pytest.approx(report.rl_loss + report.reg_loss, rel=1e-12)
    assert report.num_matches == len(mab) + len(mba)
    raw = [1.0 if d < 1.0 else 0.0 for d in list(mab.dist) + list(mba.dist)]
    assert report.mean_raw_reward == pytest.approx(np.mean(raw), rel=1e-12)
    np.testing.assert_allclose(ga, ra + 2.5 * gra, rtol=1e-12)
    np.testing.assert_allclose(gb, rb + 2.5 * grb, rtol=1e-12)


def test_total_loss_zero_weight_skips_regularizer():
    sa, sb, mask_a, mask_b, ka, kb, mab, mba = random_case(9)
    report, ga, gb = total_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb,
                                         mab, mba, RewardConfig(), 1.0, reg_weight=0.0)
    _, ra, rb, _ = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba,
                                    RewardConfig())
    assert report.reg_loss == 0.0
    np.testing.assert_array_equal(ga, ra)
    np.testing.assert_array_equal(gb, rb)
