"""The randomized finite-difference harness must pass and must catch sabotage."""

import numpy as np
import pytest

from dadkit.errors import InvalidParameterError
from dadkit.gradcheck import (FAMILIES, GradCheckResult, fd_param_grads,
                              max_rel_error, run_gradcheck)
from dadkit.model import ArchConfig, ConvLayer, forward, init_params


def test_run_gradcheck_small_suite_passes():
    result = run_gradcheck(instances=4, seed=0)
    assert result.passed
    assert result.instances == 4
    assert set(result.family_errors) == set(FAMILIES)
    assert result.max_rel_error == max(result.family_errors.values())
    assert result.max_rel_error < 1e-3


def test_run_gradcheck_deterministic():
    r1 = run_gradcheck(instances=2, seed=3)
    r2 = run_gradcheck(instances=2, seed=3)
    assert r1.family_errors == r2.family_errors


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
