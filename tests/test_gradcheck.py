"""The randomized finite-difference harness must pass and must catch sabotage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dadkit.distill
import dadkit.model
from dadkit.errors import InvalidParameterError
from dadkit.gradcheck import (FAMILIES, GradCheckResult, fd_param_grads,
                              max_rel_error, normwise_margin, run_gradcheck)
from dadkit.model import ArchConfig, ConvLayer, DetectorParams, forward, init_params


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
    return lambda grads: sum_grads([
        grads[0], DetectorParams(2.0 * grads[1].flat, grads[1].arch), *grads[2:]])


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
        return float((out * g).sum())

    from dadkit.model import backward
    _, cache = forward(params, img)
    analytic = backward(cache, g)
    fd = fd_param_grads(loss_fn, params, step=1e-4)
    clean = max_rel_error(analytic, fd)
    assert clean < 1e-3
    broken = DetectorParams(analytic.flat.copy(), analytic.arch)
    broken.layers[0].kernel.ravel()[0] *= 1.01  # a 1 percent error must not slip through
    assert max_rel_error(broken, fd) > 5e-3


# one 1x1 conv layer and the head: kernel, bias, head kernel, head bias
_TINY = ArchConfig((1,), 1)


def test_max_rel_error_abs_floor_ignores_noise():
    a = DetectorParams(np.array([1.0, 0.0, 0.0, 0.0]), _TINY)
    f = DetectorParams(np.array([1.0 + 5e-9, 3e-9, 0.0, 0.0]), _TINY)
    assert max_rel_error(a, f) == 0.0  # both differences are below the 1e-8 floor
    above = DetectorParams(np.array([1.0 + 5e-9, 3e-8, 0.0, 0.0]), _TINY)
    assert max_rel_error(a, above) == 1.0  # 3e-8 against a zero gradient


def test_normwise_margin_is_taken_over_the_whole_gradient():
    a = DetectorParams(np.array([2.0, 1e-17, -4.0, 0.0]), _TINY)
    f = DetectorParams(np.array([2.0, 0.0, -4.0 + 4e-9, 0.0]), _TINY)
    margin, scale = normwise_margin(a, f)
    assert scale == 4.0
    # the round-off bias, 100% off elementwise, is measured against scale 4
    assert margin == pytest.approx(1e-9, rel=1e-6)


def _with_param_reference(params: DetectorParams, li: int, field: str, idx: int,
                          value: float) -> DetectorParams:
    """The per-layer perturbation, verbatim apart from building the vector
    from the layer tuple."""
    layers = list(params.layers)
    arr = getattr(layers[li], field).copy()
    arr.ravel()[idx] = value
    if field == "kernel":
        layers[li] = ConvLayer(arr, layers[li].bias)
    else:
        layers[li] = ConvLayer(layers[li].kernel, arr)
    return DetectorParams(np.concatenate([a.ravel() for l in layers for a in (l.kernel, l.bias)]),
                          params.arch)


def _fd_param_grads_reference(loss_fn, params: DetectorParams, step: float = 1e-4):
    """Central finite differences over every kernel and bias entry, layer by layer."""
    grads = []
    for li, layer in enumerate(params.layers):
        out = {}
        for field in ("kernel", "bias"):
            base = getattr(layer, field)
            g = np.zeros_like(base)
            flat = g.ravel()
            vals = base.ravel()
            for idx in range(base.size):
                lp = loss_fn(_with_param_reference(params, li, field, idx, vals[idx] + step))
                lm = loss_fn(_with_param_reference(params, li, field, idx, vals[idx] - step))
                flat[idx] = (lp - lm) / (2.0 * step)
            out[field] = g
        grads.append(ConvLayer(out["kernel"], out["bias"]))
    return tuple(grads)


@settings(deadline=None, max_examples=15)
@given(widths=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       k=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_fd_param_grads_equal_the_per_layer_reference(widths, k, seed):
    params = init_params(ArchConfig(tuple(widths), k, seed=seed % 1000))
    rng = np.random.default_rng(seed)
    img = rng.random((8, 9))
    g = rng.normal(size=(8, 9))

    def loss_fn(p):
        return float((forward(p, img)[0] * g).sum())

    got = fd_param_grads(loss_fn, params)
    want = _fd_param_grads_reference(loss_fn, params)
    assert got.flat.tobytes() == b"".join(a.tobytes() for l in want for a in (l.kernel, l.bias))


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
