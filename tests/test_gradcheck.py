"""The randomized finite-difference harness must pass and must catch sabotage."""

import numpy as np
import pytest

import dadkit.distill
import dadkit.model
from dadkit.errors import InvalidParameterError
from dadkit.gradcheck import (FAMILIES, GradCheckResult, fd_param_grads,
                              max_rel_error, normwise_margin, run_gradcheck)
from dadkit.model import ArchConfig, ConvLayer, forward, init_params


def test_run_gradcheck_small_suite_passes():
    result = run_gradcheck(instances=4, seed=0)
    assert result.passed
    assert result.instances == 4
    assert set(result.family_errors) == set(FAMILIES)
    assert result.max_rel_error == max(result.family_errors.values())
    assert result.max_rel_error < 1e-3
    # the real margin shows through the floor of the pass rule
    assert set(result.family_margins) == set(FAMILIES)
    assert all(0.0 < m < 1e-6 for m in result.family_margins.values())
    assert 0.0 < result.min_grad_scale < np.inf


def test_run_gradcheck_redraws_zero_gradient_instances():
    # at seed 0, some of the first instances have an all-zero rl gradient
    assert run_gradcheck(instances=10, seed=0).zero_grad_redraws > 0


def test_run_gradcheck_deterministic():
    r1 = run_gradcheck(instances=2, seed=3)
    r2 = run_gradcheck(instances=2, seed=3)
    assert r1.family_errors == r2.family_errors


def _doubled_second_term(sum_grads):
    return lambda grad_lists: sum_grads([
        grad_lists[0], tuple(ConvLayer(2.0 * g.kernel, 2.0 * g.bias) for g in grad_lists[1]),
        *grad_lists[2:]])


def _doubled_scoremap_grad(backward):
    return lambda cache, grad: backward(cache, 2.0 * grad)


@pytest.mark.parametrize("module, name, sabotage, broken", [
    (dadkit.model, "_sum_grads", _doubled_second_term, {"rl", "full"}),
    (dadkit.distill, "backward", _doubled_scoremap_grad, {"distill"}),
], ids=["training_step", "student_step"])
def test_run_gradcheck_audits_the_training_code(monkeypatch, module, name, sabotage, broken):
    # a fault that only the trainers reach, through their own module globals
    monkeypatch.setattr(module, name, sabotage(getattr(module, name)))
    errors = run_gradcheck(instances=2, seed=0).family_errors
    assert {family for family, err in errors.items() if err > 1e-3} == broken


def test_max_rel_error_detects_sabotage():
    params = init_params(ArchConfig((3,), 3, seed=0))
    rng = np.random.default_rng(0)
    img = rng.random((10, 10))
    g = rng.normal(size=(10, 10))

    def loss_fn(p):
        out, _ = forward(p, img)
        return float((out.logits * g).sum())

    from dadkit.model import backward
    _, cache = forward(params, img)
    analytic = backward(cache, g)
    fd = fd_param_grads(loss_fn, params, step=1e-4)
    clean = max_rel_error(analytic, fd)
    assert clean < 1e-3
    k = analytic[0].kernel.copy()
    k.ravel()[0] *= 1.01  # a 1 percent error must not slip through
    broken = (ConvLayer(k, analytic[0].bias),) + analytic[1:]
    assert max_rel_error(broken, fd) > 5e-3


def test_max_rel_error_abs_floor_ignores_noise():
    a = (ConvLayer(np.array([[[[1.0]]]]), np.array([0.0])),)
    f = (ConvLayer(np.array([[[[1.0 + 5e-9]]]]), np.array([3e-9])),)
    assert max_rel_error(a, f, abs_floor=1e-8) == 0.0
    assert max_rel_error(a, f, abs_floor=1e-10) > 0.0


def test_normwise_margin_is_taken_over_the_whole_gradient():
    a = (ConvLayer(np.array([[[[2.0, -4.0]]]]), np.array([1e-17])),)
    f = (ConvLayer(np.array([[[[2.0, -4.0 + 4e-9]]]]), np.array([0.0])),)
    margin, scale = normwise_margin(a, f)
    assert scale == 4.0
    # the round-off bias, 100% off elementwise, is measured against scale 4
    assert margin == pytest.approx(1e-9, rel=1e-6)


def test_gradcheck_result_pass_threshold():
    r = GradCheckResult(2e-3, {f: 2e-3 for f in FAMILIES}, 1, 1e-3)
    assert not r.passed
    assert GradCheckResult(5e-4, {f: 5e-4 for f in FAMILIES}, 1, 1e-3).passed


def test_run_gradcheck_validation():
    with pytest.raises(InvalidParameterError):
        run_gradcheck(instances=0)
    with pytest.raises(InvalidParameterError):
        run_gradcheck(instances=1, step=0.0)
    with pytest.raises(InvalidParameterError):
        run_gradcheck(instances=1, tolerance=-1.0)
