"""Detector merging: generalized means, maxima bookkeeping, partner checks."""

import math

import numpy as np
import pytest

import dadkit.distill
from dadkit.core import kl_divergence, softmax_2d
from dadkit.distill import (DistillConfig, KeypointFunction,
                            check_partner_merge, distill_loss_and_grad,
                            distill_target, generalized_mean, local_maxima,
                            make_bump, train_distilled)
from dadkit.errors import InvalidInputError, InvalidParameterError
from dadkit.model import (AdamW, ArchConfig, OptState, backward, finite_float32, forward,
                          init_params, optimizer_step)
from dadkit.synth import SceneConfig, make_pair


def rand_probs(rng, shape):
    p = rng.random(shape)
    return p / p.sum()


# generalized means

def test_generalized_mean_closed_forms():
    rng = np.random.default_rng(0)
    a, b = rng.random((6, 7)), rng.random((6, 7))
    np.testing.assert_allclose(generalized_mean(a, b, 1), 0.5 * (a + b), rtol=1e-15)
    np.testing.assert_allclose(generalized_mean(a, b, 2),
                               np.sqrt(0.5 * (a * a + b * b)), rtol=1e-15)
    np.testing.assert_array_equal(generalized_mean(a, b, math.inf), np.maximum(a, b))


def test_generalized_mean_is_monotone_in_r():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        m1 = generalized_mean(a, b, 1)
        m2 = generalized_mean(a, b, 2)
        mi = generalized_mean(a, b, math.inf)
        assert np.all(m1 <= m2 + 1e-15)
        assert np.all(m2 <= mi + 1e-15)


def test_generalized_mean_symmetric_and_idempotent():
    rng = np.random.default_rng(1)
    a, b = rng.random((4, 6)), rng.random((4, 6))
    for r in (1, 2, math.inf):
        np.testing.assert_allclose(generalized_mean(a, b, r),
                                   generalized_mean(b, a, r), rtol=1e-15)
        np.testing.assert_allclose(generalized_mean(a, a, r), a, rtol=1e-14)


def test_generalized_mean_validation():
    a = np.full((4, 4), 0.25)
    with pytest.raises(InvalidParameterError):
        generalized_mean(a, a, 3)
    with pytest.raises(InvalidInputError):
        generalized_mean(a, np.full((4, 5), 0.2), 1)
    with pytest.raises(InvalidInputError):
        generalized_mean(a, np.full((4, 4), -0.1), 1)
    with pytest.raises(InvalidParameterError):
        DistillConfig(r=0.5)


def test_distill_target_renormalizes():
    rng = np.random.default_rng(2)
    pa, pb = rand_probs(rng, (8, 8)), rand_probs(rng, (8, 8))
    for r in (1, 2, math.inf):
        t = distill_target(pa, pb, r)
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        m = generalized_mean(pa, pb, r)
        np.testing.assert_allclose(t, m / m.sum(), rtol=1e-14)
    with pytest.raises(InvalidInputError):
        distill_target(np.zeros((4, 4)), np.zeros((4, 4)), 1)


def test_distill_loss_and_grad_against_definitions():
    rng = np.random.default_rng(3)
    target = rand_probs(rng, (6, 6))
    s = rng.normal(size=(6, 6))
    loss, grad = distill_loss_and_grad(target, s)
    p = softmax_2d(s)
    assert loss == pytest.approx(kl_divergence(target, p), rel=1e-13)
    np.testing.assert_allclose(grad, p - target, rtol=1e-14)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_distill_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    target = rand_probs(rng, (5, 5))
    s = rng.normal(size=(5, 5))
    _, grad = distill_loss_and_grad(target, s)
    step = 1e-5
    for idx in rng.choice(25, size=8, replace=False):
        delta = np.zeros(25)
        delta[idx] = step
        lp, _ = distill_loss_and_grad(target, s + delta.reshape(5, 5))
        lm, _ = distill_loss_and_grad(target, s - delta.reshape(5, 5))
        assert grad.ravel()[idx] == pytest.approx((lp - lm) / (2 * step), rel=1e-5, abs=1e-9)
    with pytest.raises(InvalidInputError):
        distill_loss_and_grad(target, np.zeros((5, 6)))


# local maxima with the plateau rule

def maxima_oracle(v: np.ndarray) -> set[tuple[int, int]]:
    h, w = v.shape
    cand = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            ge_all, gt_any = True, False
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w):
                        continue
                    if v[ny, nx] > v[y, x]:
                        ge_all = False
                    if v[ny, nx] < v[y, x]:
                        gt_any = True
            cand[y, x] = ge_all and gt_any
    seen = np.zeros((h, w), dtype=bool)
    out = set()
    for y in range(h):
        for x in range(w):
            if not cand[y, x] or seen[y, x]:
                continue
            out.add((y, x))
            stack = [(y, x)]
            while stack:
                cy, cx = stack.pop()
                if seen[cy, cx]:
                    continue
                seen[cy, cx] = True
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and cand[ny, nx] and not seen[ny, nx]:
                            stack.append((ny, nx))
    return out


def test_local_maxima_matches_oracle_on_quantized_grids():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 5, size=(10, 12)).astype(np.float64)
        assert local_maxima(v) == maxima_oracle(v)


def test_local_maxima_matches_oracle_on_hard_plateaus():
    # a snake-shaped plateau: its raster-first pixel's label must walk the
    # whole path, the slowest case for label propagation
    snake = np.zeros((13, 13))
    snake[1:12:2, 1:12] = 2.0  # six rows
    snake[2:12:4, 11] = 2.0  # joined at the right end
    snake[4:12:4, 1] = 2.0  # and at the left end, alternately
    # two plateaus that touch only at a corner merge under 8-connectivity
    diagonal = np.zeros((6, 6))
    diagonal[1:3, 1:3] = 1.0
    diagonal[3:5, 3:5] = 1.0
    rng = np.random.default_rng(11)
    grids = [snake, snake[::-1, ::-1], diagonal, diagonal[:, ::-1]]
    for n in (1, 2, 3, 17):
        grids += [rng.integers(0, 3, size=(1, n)).astype(np.float64),
                  rng.integers(0, 3, size=(n, 1)).astype(np.float64)]
    for v in grids:
        assert local_maxima(v) == maxima_oracle(v)
    assert len(maxima_oracle(snake)) == 1
    assert local_maxima(diagonal) == {(1, 1)}
    assert local_maxima(diagonal[:, ::-1]) == {(1, 3)}


def test_local_maxima_edge_cases():
    assert local_maxima(np.zeros((6, 6))) == set()
    single = np.zeros((7, 7))
    single[3, 4] = 1.0
    assert local_maxima(single) == {(3, 4)}
    plateau = np.zeros((8, 8))
    plateau[3:5, 3:5] = 2.0
    assert local_maxima(plateau) == {(3, 3)}
    ridge = np.zeros((5, 9))
    ridge[2, 2:7] = 1.0
    assert local_maxima(ridge) == {(2, 2)}
    with pytest.raises(InvalidInputError):
        local_maxima(np.zeros(9))
    with pytest.raises(InvalidInputError):
        local_maxima(np.full((4, 4), np.nan))


# bump functions and the merge checker

def test_make_bump_shape_and_mode():
    f = make_bump((16, 16), cx=6.0, cy=9.0, radius=4.0, height=2.0)
    assert f.mode == (9, 6)
    assert f.values[9, 6] == pytest.approx(2.0)
    assert f.values[0].max() == 0.0 and f.support[9, 6]
    half = make_bump((16, 16), cx=6.5, cy=9.0, radius=4.0)
    assert half.mode == (9, 6)  # raster-first of the tied pair


def test_keypoint_function_validation():
    with pytest.raises(InvalidParameterError):
        make_bump((16, 16), 8, 8, radius=0.0)
    with pytest.raises(InvalidInputError):
        make_bump((12, 12), 6, 6, radius=7.0)  # support reaches the border
    with pytest.raises(InvalidInputError):
        KeypointFunction(np.zeros((8, 8)))
    with pytest.raises(InvalidInputError):
        KeypointFunction(-make_bump((12, 12), 6, 6, 3.0).values)
    two = make_bump((20, 20), 5, 5, 3.0).values + make_bump((20, 20), 14, 14, 3.0).values
    with pytest.raises(InvalidInputError):
        KeypointFunction(two)
    with pytest.raises(InvalidInputError):
        KeypointFunction(np.zeros((2, 5)))


def test_partner_merge_disjoint_bumps():
    f = make_bump((24, 24), 6, 6, 4.0)
    g = make_bump((24, 24), 17, 17, 4.0)
    assert check_partner_merge(f, g) == "partner"
    merged = local_maxima(np.maximum(f.values, g.values))
    assert merged == {f.mode, g.mode}


def test_partner_merge_subsumed_bumps():
    f = make_bump((20, 20), 9, 9, 4.0, height=1.0)
    g = KeypointFunction(2.0 * f.values)
    assert check_partner_merge(f, g) == "f-subsumed"
    assert check_partner_merge(g, f) == "g-subsumed"
    merged = local_maxima(np.maximum(f.values, g.values))
    assert merged == {g.mode}


def test_partner_merge_overlapping_equal_bumps():
    f = make_bump((24, 24), 10, 12, 4.0)
    g = make_bump((24, 24), 12, 12, 4.0)  # 2 px apart, same height
    assert check_partner_merge(f, g) == "partner"
    assert local_maxima(np.maximum(f.values, g.values)) == {f.mode, g.mode}


def test_partner_merge_mutual_adjacent_modes():
    f = make_bump((20, 20), 9, 9, 3.0)
    g = make_bump((20, 20), 10, 9, 3.0)  # peaks on neighboring pixels
    assert check_partner_merge(f, g) == "mutual"


def test_partner_merge_never_grows_maxima_random_pairs():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        def draw():
            r = rng.uniform(2.0, 5.0)
            c = rng.uniform(r + 1.5, 23 - r - 1.5, size=2)
            return make_bump((24, 24), c[0], c[1], r, height=rng.uniform(0.5, 2.0))
        f, g = draw(), draw()
        check_partner_merge(f, g)  # raises if the max grew a new maximum
        merged = local_maxima(np.maximum(f.values, g.values))
        assert merged <= (local_maxima(f.values) | local_maxima(g.values))


def test_partner_merge_validation():
    f = make_bump((16, 16), 8, 8, 3.0)
    with pytest.raises(InvalidInputError):
        check_partner_merge(f, f.values)
    with pytest.raises(InvalidInputError):
        check_partner_merge(f, make_bump((18, 18), 8, 8, 3.0))


# student training

def test_train_distilled_smoke_and_determinism():
    arch = ArchConfig((4,), 3, seed=0)
    light = init_params(ArchConfig((4,), 3, seed=1))
    dark = init_params(ArchConfig((4,), 3, seed=2))
    cfg = DistillConfig(scene=SceneConfig.toy(size=32, num_light=2, num_dark=2),
                        arch=arch, num_pairs=2, seed=5)
    s1, l1 = train_distilled(light, dark, cfg)
    s2, l2 = train_distilled(light, dark, cfg)
    assert len(l1) == 4 and l1 == l2
    assert all(np.isfinite(l) for l in l1)
    for a, b in zip(s1.layers, s2.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
    init = init_params(arch)
    assert np.any(s1.layers[0].kernel != init.layers[0].kernel)


def _student_step_reference(student, image, target):
    """The student step before `fit`, verbatim."""
    s, cache = forward(student, image)
    loss, grad = distill_loss_and_grad(target, s)
    return loss, backward(cache, grad)


def _train_distilled_reference(light, dark, cfg: DistillConfig):
    """The distillation loop before `fit`, verbatim apart from the step's name."""
    student = init_params(cfg.arch)
    state = OptState.init(student, cfg.opt)
    losses = []
    for i in range(cfg.num_pairs):
        pair = make_pair(cfg.scene, cfg.seed, i)
        for image in (pair.image_a, pair.image_b):
            s_light, _ = forward(light, image)
            s_dark, _ = forward(dark, image)
            target = distill_target(softmax_2d(s_light), softmax_2d(s_dark), cfg.r)
            loss, grads = _student_step_reference(student, image, target)
            student, state = optimizer_step(student, grads, state)
            finite_float32(student, f"distillation diverged at step {state.step_count}")
            losses.append(loss)
    return student, losses


@pytest.mark.parametrize("r", [1, 2, math.inf])
@pytest.mark.parametrize("scene", [SceneConfig.toy(size=32, num_light=2, num_dark=2),
                                   SceneConfig.scenes(size=32, num_light=3, num_dark=3)],
                         ids=["toy", "scenes"])
def test_train_distilled_matches_the_loop_before_fit(scene, r):
    light = init_params(ArchConfig((4,), 3, seed=1))
    dark = init_params(ArchConfig((4,), 3, seed=2))
    cfg = DistillConfig(scene=scene, r=r, arch=ArchConfig((4, 4), 3, seed=0), num_pairs=2,
                        seed=5, opt=AdamW(lr=0.01))
    student, losses = train_distilled(light, dark, cfg)
    ref_student, ref_losses = _train_distilled_reference(light, dark, cfg)
    assert student.flat.tobytes() == ref_student.flat.tobytes()
    assert losses == ref_losses and len(losses) == 4


def _raise_on_call(n, real):
    """`real`, except that its n-th call raises InvalidInputError("boom")."""
    calls = []

    def stub(*args):
        calls.append(args)
        if len(calls) == n:
            raise InvalidInputError("boom")
        return real(*args)
    return stub


@pytest.mark.parametrize("name, call, expected", [
    ("distill_loss_and_grad", 2, "distillation diverged at step 2: boom; lower lr"),
    ("distill_loss_and_grad", 1, "boom"),
    ("distill_target", 2, "boom"),
    ("distill_target", 1, "boom"),
], ids=["student-step-2", "student-step-1", "target-2", "target-1"])
def test_only_a_student_step_error_after_step_one_names_the_step(monkeypatch, name, call,
                                                                 expected):
    # the teachers' merged target is made outside the step, so its errors
    # are never reported as divergence
    monkeypatch.setattr(f"dadkit.distill.{name}",
                        _raise_on_call(call, getattr(dadkit.distill, name)))
    teacher = init_params(ArchConfig((4,), 3, seed=1))
    cfg = DistillConfig(scene=SceneConfig.toy(size=32, num_light=2, num_dark=2),
                        arch=ArchConfig((4,), 3, seed=0), num_pairs=2)
    with pytest.raises(InvalidInputError) as e:
        train_distilled(teacher, teacher, cfg)
    assert str(e.value) == expected


def test_distill_config_validation():
    with pytest.raises(InvalidParameterError):
        DistillConfig(num_pairs=0)
