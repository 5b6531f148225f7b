"""Conv stack forward/backward against loop-level oracles and parameter FD."""

import math
import re
import struct
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.errors import InvalidInputError, InvalidParameterError
from dadkit.model import (AdamW, ArchConfig, ConvLayer, DetectorParams, OptState,
                          TrainConfig, _conv_backward, _conv_same, _fold_axis, _im2col,
                          _pad, _pair_grads, _sum_grads, backward,
                          finite_float32, forward, init_params,
                          load_weights, optimizer_step, save_weights,
                          train_loop)
from dadkit.formats import write_loss_csv
from dadkit.synth import SceneConfig, generate_pairs


def conv_same_oracle(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Nested-loop same convolution over symmetric-padded channels."""
    o, c, kh, kw = layer.kernel.shape
    rh, rw = kh // 2, kw // 2
    h, w = x.shape[1], x.shape[2]
    if rh or rw:
        xp = np.stack([np.pad(x[ci], ((rh, rh), (rw, rw)), mode="symmetric")
                       for ci in range(c)])
    else:
        xp = x
    out = np.zeros((o, h, w))
    for oi in range(o):
        for y in range(h):
            for xx in range(w):
                acc = float(layer.bias[oi])
                for ci in range(c):
                    acc += float((xp[ci, y:y + kh, xx:xx + kw] * layer.kernel[oi, ci]).sum())
                out[oi, y, xx] = acc
    return out


def forward_oracle(params: DetectorParams, image: np.ndarray) -> np.ndarray:
    t = np.asarray(image, dtype=np.float64)[None]
    for layer in params.layers[:-1]:
        t = np.maximum(conv_same_oracle(t, layer), 0.0)
    return conv_same_oracle(t, params.layers[-1])[0]


def fd_param_grad(loss_fn, params: DetectorParams, li: int, field: str,
                  idx: int, step: float = 1e-5) -> float:
    def poke(delta):
        poked = DetectorParams(params.flat.copy(), params.arch)
        getattr(poked.layers[li], field).ravel()[idx] += delta
        return loss_fn(poked)

    return (poke(step) - poke(-step)) / (2 * step)


def test_forward_matches_loop_oracle():
    for arch in (ArchConfig((3,), 3, seed=1), ArchConfig((3, 4), 3, seed=2),
                 ArchConfig((2, 2), 5, seed=3)):
        params = init_params(arch)
        rng = np.random.default_rng(arch.seed)
        img = rng.random((11, 12))
        got, _ = forward(params, img)
        np.testing.assert_allclose(got, forward_oracle(params, img),
                                   rtol=1e-12, atol=1e-12)


def test_forward_constant_image_gives_constant_scoremap():
    params = init_params(ArchConfig((4, 4), 5, seed=0))
    s, _ = forward(params, np.full((16, 16), 0.5))
    assert float(np.ptp(s)) < 1e-12


def test_forward_validates_inputs():
    params = init_params(ArchConfig((3,), 3, seed=0))
    with pytest.raises(InvalidInputError):
        forward(params, np.full((10, 10), 1.5))
    with pytest.raises(InvalidInputError):
        forward(params, np.zeros((4, 10)))  # below the 8x8 floor
    with pytest.raises(InvalidInputError):
        forward(params, np.zeros(100))
    deep = init_params(ArchConfig((2, 2, 2, 2), 5, seed=0))  # rf 17
    with pytest.raises(InvalidInputError):
        forward(deep, np.zeros((16, 16)))


def test_backward_matches_parameter_finite_differences():
    checked = 0
    attempt = 0
    while checked < 3 and attempt < 50:
        attempt += 1
        rng = np.random.default_rng(1000 + attempt)
        arch = ArchConfig((3, 3), 3, seed=attempt)
        params = init_params(arch)
        img = rng.random((10, 10))
        g_score = rng.normal(size=(10, 10))
        s, cache = forward(params, img)
        if min(float(np.abs(p).min()) for p in cache.preacts) < 1e-4:
            continue  # too close to a rectifier kink for clean FD
        grads = backward(cache, g_score)

        def loss_fn(p):
            out, _ = forward(p, img)
            return float((out * g_score).sum())

        for li, layer_grads in enumerate(grads.layers):
            kflat = layer_grads.kernel.ravel()
            for idx in rng.choice(kflat.size, size=min(6, kflat.size), replace=False):
                fd = fd_param_grad(loss_fn, params, li, "kernel", int(idx))
                assert kflat[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            for idx in range(layer_grads.bias.size):
                fd = fd_param_grad(loss_fn, params, li, "bias", int(idx))
                assert layer_grads.bias[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("shape", [(9, 13), (17, 12)])
def test_conv_input_gradient_is_the_adjoint(k, shape):
    # <conv(x), g> = <x, conv^T(g)> for the bias-free, reflect-padded conv
    rng = np.random.default_rng(100 * k + shape[0])
    layer = ConvLayer(rng.normal(size=(4, 3, k, k)), np.zeros(4))
    x = rng.normal(size=(3, *shape))
    g = rng.normal(size=(4, *shape))
    y, xp = _conv_same(x, layer)
    grads, gx = _conv_backward(g, xp, layer, want_input=True)
    assert gx.shape == x.shape
    lhs, rhs = float((y * g).sum()), float((x * gx).sum())
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(y * g).sum())
    assert _conv_backward(g, xp, layer, want_input=False)[1] is None
    assert grads.bias == pytest.approx(g.sum(axis=(1, 2)), rel=1e-12)


@pytest.mark.parametrize("shape", [(9, 13), (17, 12)])
def test_conv_kernel_gradient_matches_finite_differences(shape):
    rng = np.random.default_rng(shape[1])
    layer = ConvLayer(rng.normal(size=(2, 3, 5, 5)), rng.normal(size=2))
    x = rng.normal(size=(3, *shape))
    g = rng.normal(size=(2, *shape))
    grads, _ = _conv_backward(g, _conv_same(x, layer)[1], layer, want_input=False)
    step = 1e-5
    fd = np.zeros_like(layer.kernel)
    for idx in range(layer.kernel.size):
        loss = []
        for delta in (step, -step):
            kernel = layer.kernel.copy()
            kernel.ravel()[idx] += delta
            loss.append(float((_conv_same(x, ConvLayer(kernel, layer.bias))[0] * g).sum()))
        fd.ravel()[idx] = (loss[0] - loss[1]) / (2 * step)
    np.testing.assert_allclose(grads.kernel, fd, rtol=1e-6,
                               atol=1e-8 * float(np.abs(fd).max()))


@dataclass(frozen=True)
class _CacheReference:
    """The activation cache as it was when it held each layer's im2col columns."""

    params: DetectorParams
    image_shape: tuple[int, int]
    cols: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]


def _conv_same_reference(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    o, c, kh, kw = layer.kernel.shape
    r = kh // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="symmetric") if r else x
    cols = _im2col(xp, kh, kw)
    y = layer.kernel.reshape(o, c * kh * kw) @ cols + layer.bias[:, None]
    return y.reshape(o, x.shape[1], x.shape[2]), cols


def _conv_backward_reference(gy: np.ndarray, cols: np.ndarray, layer: ConvLayer,
                             want_input: bool):
    o, c, kh, kw = layer.kernel.shape
    _, h, w = gy.shape
    gy_flat = gy.reshape(o, h * w)
    grads = ConvLayer((gy_flat @ cols.T).reshape(o, c, kh, kw), gy_flat.sum(axis=1))
    if not want_input:
        return grads, None
    # input gradient: full correlation of gy with the spatially flipped kernel
    r = kh // 2
    gp = np.pad(gy, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    wt = np.flip(layer.kernel, axis=(2, 3)).transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
    g_xp = (wt @ _im2col(gp, kh, kw)).reshape(c, h + 2 * r, w + 2 * r)
    if r:
        g_xp = _fold_axis_reference(_fold_axis_reference(g_xp, r, 2), r, 1)
    return grads, g_xp


def _fold_axis_reference(g: np.ndarray, r: int, axis: int) -> np.ndarray:
    """The fold through slice tuples, verbatim from before `_fold_axis` moved
    the axis to the front."""
    n = g.shape[axis] - 2 * r

    def seg(arr, a, b):
        s = [slice(None)] * arr.ndim
        s[axis] = slice(a, b)
        return arr[tuple(s)]

    core = seg(g, r, r + n).copy()
    head = seg(core, 0, r)
    head += np.flip(seg(g, 0, r), axis=axis)
    tail = seg(core, n - r, n)
    tail += np.flip(seg(g, r + n, r + n + r), axis=axis)
    return core


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_fold_axis_equals_the_slice_tuple_fold_bit_for_bit(r, axis):
    rng = np.random.default_rng(10 * r + axis)
    for h, w in ((3 * r, 3 * r), (3 * r + 1, 3 * r + 2), (2 * r + 9, 2 * r + 8)):
        g = rng.normal(size=(3, h, w))
        got = _fold_axis(g, r, axis)
        assert got.flags.c_contiguous
        assert got.shape == _fold_axis_reference(g, r, axis).shape
        assert got.tobytes() == _fold_axis_reference(g, r, axis).tobytes()


def _forward_reference(params: DetectorParams, image) -> tuple[np.ndarray, _CacheReference]:
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError(f"image must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all() or x.min() < -1e-9 or x.max() > 1 + 1e-9:
        raise InvalidInputError("image values must be finite and in [0, 1]")
    rf = params.arch.receptive_field
    if x.shape[0] < max(rf, 8) or x.shape[1] < max(rf, 8):
        raise InvalidInputError(
            f"image {x.shape} smaller than receptive field {rf} (or 8x8 minimum)"
        )
    t = x[None]
    cols_list, preacts = [], []
    for layer in params.layers[:-1]:
        y, cols = _conv_same_reference(t, layer)
        cols_list.append(cols)
        preacts.append(y)
        t = np.maximum(y, 0.0)
    logits, cols = _conv_same_reference(t, params.layers[-1])
    cols_list.append(cols)
    cache = _CacheReference(params, x.shape, tuple(cols_list), tuple(preacts))
    return logits[0], cache


def _backward_reference(cache: _CacheReference, grad_scoremap) -> tuple[ConvLayer, ...]:
    g = np.asarray(grad_scoremap, dtype=np.float64)
    if g.shape != cache.image_shape:
        raise InvalidInputError(f"gradient shape {g.shape} != image shape {cache.image_shape}")
    layers = cache.params.layers
    grads: list[ConvLayer | None] = [None] * len(layers)
    gt = g[None]
    for li in reversed(range(len(layers))):
        grads[li], g_x = _conv_backward_reference(gt, cache.cols[li], layers[li],
                                                  want_input=li > 0)
        if li > 0:
            gt = g_x * (cache.preacts[li - 1] > 0)
    return tuple(grads)  # type: ignore[arg-type]


def _conv_outputs(forward_fn, backward_fn, params, images, grads):
    """Bytes of every logit, preact and layer gradient of a pair of images.

    Both forwards run before either backward, as in a training step, so a
    cache that shares buffers between images shows up.
    """
    runs = [forward_fn(params, image) for image in images]
    out = []
    for (s, cache), g in zip(runs, grads):
        out.append(s.tobytes())
        out.extend(p.tobytes() for p in cache.preacts)
        for layer in backward_fn(cache, g):
            out.extend((layer.kernel.tobytes(), layer.bias.tobytes()))
    return out


@settings(deadline=None, max_examples=60)
@given(data=st.data(), widths=st.lists(st.integers(1, 16), min_size=1, max_size=3),
       k=st.sampled_from([1, 3, 5, 7]), seed=st.integers(0, 2**32 - 1))
def test_forward_and_backward_equal_the_column_cache(data, widths, k, seed):
    arch = ArchConfig(tuple(widths), k, seed=seed % 1000)
    side = st.integers(max(arch.receptive_field, 8), 64)
    shape = (data.draw(side, "h"), data.draw(side, "w"))
    rng = np.random.default_rng(seed)
    params = init_params(arch)
    for layer in params.layers:
        layer.bias[...] = rng.normal(scale=0.1, size=layer.bias.shape)
    images = [rng.random(shape), rng.random(shape)]
    grads = [rng.normal(size=shape), rng.normal(size=shape)]
    got = _conv_outputs(forward, lambda cache, g: backward(cache, g).layers,
                        params, images, grads)
    assert got == _conv_outputs(_forward_reference, _backward_reference, params, images, grads)


@settings(deadline=None, max_examples=100)
@given(c=st.integers(1, 4), h=st.integers(1, 20), w=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_pad_equals_np_pad(c, h, w, seed):
    # forward mirrors by r = k // 2 <= (min(h, w) - 1) / 2, backward zero-pads by 2r
    x = np.random.default_rng(seed).normal(size=(c, h, w))
    for r in range(min(h, w)):
        width = ((0, 0), (r, r), (r, r))
        assert _pad(x, r, mirror=True).tobytes() == np.pad(x, width, mode="symmetric").tobytes()
        assert _pad(x, r, mirror=False).tobytes() == np.pad(x, width).tobytes()
        assert _pad(x, r, mirror=False).shape == (c, h + 2 * r, w + 2 * r)


def _owned_bytes(a: np.ndarray) -> int:
    """Size of the buffer an array keeps alive, through any chain of views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


def test_activation_cache_keeps_no_columns():
    _, cache = forward(init_params(ArchConfig()), np.full((64, 64), 0.5))
    assert sum(_owned_bytes(a) for a in (*cache.inputs, *cache.preacts)) < 3 * 2**20


def test_backward_bias_gradient_is_spatial_sum_on_head():
    # the head is linear, so its bias gradient is just sum(dL/dS)
    params = init_params(ArchConfig((3,), 3, seed=5))
    rng = np.random.default_rng(5)
    img = rng.random((9, 9))
    g = rng.normal(size=(9, 9))
    _, cache = forward(params, img)
    grads = backward(cache, g)
    assert grads.layers[-1].bias[0] == pytest.approx(g.sum(), rel=1e-12)


def test_backward_rejects_wrong_gradient_shape():
    params = init_params(ArchConfig((3,), 3, seed=0))
    _, cache = forward(params, np.zeros((9, 9)))
    with pytest.raises(InvalidInputError):
        backward(cache, np.zeros((9, 8)))


def test_init_params_bounds_and_determinism():
    arch = ArchConfig((8, 16, 16), 5, seed=7)
    params = init_params(arch)
    widths = (1, 8, 16, 16)
    for i, layer in enumerate(params.layers[:-1]):
        a = np.sqrt(6.0 / ((widths[i] + widths[i + 1]) * 25))
        assert float(np.abs(layer.kernel).max()) <= a
        assert np.all(layer.bias == 0.0)
        assert layer.kernel.shape == (widths[i + 1], widths[i], 5, 5)
    head = params.layers[-1]
    assert head.kernel.shape == (1, 16, 1, 1)
    assert float(np.abs(head.kernel).max()) <= np.sqrt(6.0 / 17)
    again = init_params(arch)
    for a, b in zip(params.layers, again.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
    other = init_params(ArchConfig((8, 16, 16), 5, seed=8))
    assert np.any(other.layers[0].kernel != params.layers[0].kernel)


def test_arch_config_validation_and_receptive_field():
    assert ArchConfig((8, 16, 16), 5).receptive_field == 13
    assert ArchConfig((4,), 3).receptive_field == 3
    with pytest.raises(InvalidParameterError):
        ArchConfig((), 5)
    with pytest.raises(InvalidParameterError):
        ArchConfig((8,), 4)
    with pytest.raises(InvalidParameterError):
        ArchConfig((0,), 3)


def test_optimizer_step_matches_manual_formula():
    params = init_params(ArchConfig((2,), 3, seed=0))
    state = OptState.init(params, AdamW(lr=0.01, beta1=0.9, beta2=0.99,
                                        eps=1e-8, weight_decay=0.1))
    rng = np.random.default_rng(0)
    grads = DetectorParams(rng.normal(size=params.flat.shape), params.arch)
    new, ns = optimizer_step(params, grads, state)
    assert ns.step_count == 1
    g = grads.layers[0].kernel
    m = 0.1 * g
    v = 0.01 * g * g
    want = params.layers[0].kernel * (1 - 0.01 * 0.1) \
        - 0.01 * (m / 0.1) / (np.sqrt(v / 0.01) + 1e-8)
    np.testing.assert_allclose(new.layers[0].kernel, want, rtol=1e-12)
    # functional: inputs untouched
    assert state.step_count == 0
    assert np.all(params.layers[0].bias == 0.0)


def test_optimizer_zero_gradient_only_decays():
    params = init_params(ArchConfig((2,), 3, seed=1))
    state = OptState.init(params, AdamW(lr=0.1, weight_decay=0.5))
    zeros = DetectorParams(np.zeros_like(params.flat), params.arch)
    new, _ = optimizer_step(params, zeros, state)
    np.testing.assert_allclose(new.layers[0].kernel,
                               params.layers[0].kernel * (1 - 0.05), rtol=1e-15)


def test_optimizer_state_validation():
    params = init_params(ArchConfig((2,), 3, seed=0))
    with pytest.raises(InvalidParameterError):
        AdamW(lr=0.0)
    for name, bad in (("beta1", 1.0), ("beta2", -0.5), ("beta2", math.nan)):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be in \\[0, 1\\), got "):
            AdamW(**{name: bad})
    state = OptState.init(params)
    with pytest.raises(InvalidInputError):
        optimizer_step(params, init_params(ArchConfig((3,), 3, seed=0)), state)


def _optimizer_step_reference(params: DetectorParams, grads, state: OptState):
    """The per-layer update, verbatim apart from returning the layer tuple:
    `grads`, `state.m` and `state.v` are tuples of ConvLayer."""
    if len(grads) != len(params.layers):
        raise InvalidInputError("gradient/parameter layer count mismatch")
    opt = state.opt
    t = state.step_count + 1
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    shrink = 1.0 - opt.lr * opt.weight_decay

    def upd(p, g, m, v):
        if p.shape != g.shape:
            raise InvalidInputError("gradient/parameter shape mismatch")
        m2 = opt.beta1 * m + (1.0 - opt.beta1) * g
        v2 = opt.beta2 * v + (1.0 - opt.beta2) * g * g
        step = opt.lr * (m2 / bc1) / (np.sqrt(v2 / bc2) + opt.eps)
        return p * shrink - step, m2, v2

    new_layers, new_m, new_v = [], [], []
    for layer, g, m, v in zip(params.layers, grads, state.m, state.v):
        k2, mk, vk = upd(layer.kernel, g.kernel, m.kernel, v.kernel)
        b2, mb, vb = upd(layer.bias, g.bias, m.bias, v.bias)
        new_layers.append(ConvLayer(k2, b2))
        new_m.append(ConvLayer(mk, mb))
        new_v.append(ConvLayer(vk, vb))
    new_state = replace(state, step_count=t, m=tuple(new_m), v=tuple(new_v))
    return tuple(new_layers), new_state


def _sum_grads_reference(grad_lists):
    """Layer-wise sum of per-layer gradient tuples, added left to right."""
    total = grad_lists[0]
    for grads in grad_lists[1:]:
        total = tuple(
            ConvLayer(t.kernel + g.kernel, t.bias + g.bias) for t, g in zip(total, grads)
        )
    return total


def _flat_bytes(layers) -> bytes:
    return b"".join(a.tobytes() for l in layers for a in (l.kernel, l.bias))


@settings(deadline=None, max_examples=40)
@given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       k=st.sampled_from([1, 3, 5]), batch=st.integers(1, 3), steps=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_flat_sum_and_step_equal_the_per_layer_reference(widths, k, batch, steps, seed):
    arch = ArchConfig(tuple(widths), k, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    opt = AdamW(lr=10 ** rng.uniform(-4, -1), weight_decay=10 ** rng.uniform(-5, -1))
    params = init_params(arch)
    state = OptState.init(params, opt)
    ref_params = params
    zeros = tuple(ConvLayer(np.zeros_like(l.kernel), np.zeros_like(l.bias))
                  for l in params.layers)
    ref_state = replace(state, m=zeros, v=zeros)
    for _ in range(steps):
        grads = [DetectorParams(rng.normal(scale=10 ** rng.uniform(-3, 1),
                                           size=params.flat.shape), arch)
                 for _ in range(batch)]
        total = _sum_grads(grads)
        ref_total = _sum_grads_reference([g.layers for g in grads])
        assert total.flat.tobytes() == _flat_bytes(ref_total)
        params, state = optimizer_step(params, total, state)
        ref_layers, ref_state = _optimizer_step_reference(ref_params, ref_total, ref_state)
        assert params.flat.tobytes() == _flat_bytes(ref_layers)
        assert state.m.tobytes() == _flat_bytes(ref_state.m)
        assert state.v.tobytes() == _flat_bytes(ref_state.v)
        assert state.step_count == ref_state.step_count
        ref_params = DetectorParams(np.frombuffer(_flat_bytes(ref_layers)), arch)


def test_detector_params_reject_a_vector_of_the_wrong_shape():
    arch = ArchConfig((2,), 3)
    size = init_params(arch).flat.size  # 2*1*9 + 2 + 1*2*1*1 + 1
    assert size == 23
    for flat in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size)), np.zeros(())):
        with pytest.raises(InvalidInputError):
            DetectorParams(flat, arch)


def test_layers_are_views_of_the_vector_in_layout_order():
    params = init_params(ArchConfig((2, 3), 3, seed=4))
    parts = [a.ravel() for l in params.layers for a in (l.kernel, l.bias)]
    assert np.concatenate(parts).tobytes() == params.flat.tobytes()
    assert all(np.shares_memory(p, params.flat) for p in parts)
    assert [l.kernel.shape for l in params.layers] == [(2, 1, 3, 3), (3, 2, 3, 3), (1, 3, 1, 1)]


def test_weights_round_trip_is_a_fixpoint(tmp_path):
    params = init_params(ArchConfig((3, 4), 3, seed=9))
    p1 = tmp_path / "w1.dadw"
    p2 = tmp_path / "w2.dadw"
    save_weights(p1, params)
    loaded = load_weights(p1)
    assert loaded.arch.channel_widths == (3, 4)
    assert loaded.arch.kernel_size == 3
    for a, b in zip(loaded.layers, params.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel.astype("<f4").astype(np.float64))
    save_weights(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def write_stack(path, layers) -> None:
    """A weights file whose layers have the given kernel shapes and bias lengths,
    all zeros, in the layout save_weights writes."""
    blob = b"DADW" + struct.pack("<II", 1, len(layers))
    for kshape, blen in layers:
        blob += struct.pack("<IIII", *kshape) + bytes(4 * int(np.prod(kshape)))
        blob += struct.pack("<I", blen) + bytes(4 * blen)
    path.write_bytes(blob)


def test_load_weights_validates_structure(tmp_path):
    p = tmp_path / "w.dadw"
    p.write_bytes(b"XXXX")
    with pytest.raises(InvalidInputError):
        load_weights(p)
    # a stack whose last layer is not a 1x1 head must be refused
    write_stack(p, [((3, 1, 3, 3), 3), ((3, 1, 3, 3), 3)])
    with pytest.raises(InvalidInputError):
        load_weights(p)
    # an unknown format version is reported with the file's path
    p.write_bytes(b"DADW" + struct.pack("<II", 2, 2))
    with pytest.raises(InvalidInputError, match=re.escape(str(p))):
        load_weights(p)
    # a corrupt layer shape claims far more bytes than the file holds
    p.write_bytes(b"DADW" + struct.pack("<II", 1, 2) + struct.pack("<IIII", *[2**32 - 1] * 4))
    with pytest.raises(InvalidInputError):
        load_weights(p)
    # stacks that parse but that forward could not run, or would misdescribe
    head4 = ((1, 4, 1, 1), 1)
    for layers in ([((4, 1, 5, 3), 4), head4],                  # non-square kernel
                   [((4, 1, 3, 3), 3), head4],                  # bias shorter than outputs
                   [((4, 1, 3, 3), 4), ((1, 7, 1, 1), 1)],      # head inputs != last width
                   [((4, 1, 4, 4), 4), head4],                  # even kernel
                   [((0, 1, 3, 3), 0), ((1, 0, 1, 1), 1)],      # zero-width layer
                   [((4, 1, 5, 5), 4), ((4, 4, 7, 7), 4), head4]):  # mixed kernel sizes
        write_stack(p, layers)
        with pytest.raises(InvalidInputError, match=re.escape(str(p))):
            load_weights(p)


def test_train_loop_is_deterministic_and_reports_per_pair():
    cfg = SceneConfig.toy(size=32, num_light=2, num_dark=2)
    pairs = generate_pairs(cfg, 3, seed=0)
    tc = TrainConfig(arch=ArchConfig((4, 4), 3, seed=0),
                     epochs=2, match_threshold=np.inf)
    p1, r1 = train_loop(pairs, tc)
    p2, r2 = train_loop(pairs, tc)
    assert len(r1) == 6
    for a, b in zip(p1.layers, p2.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.bias, b.bias)
    assert any(r.num_matches > 0 for r in r1)


def test_train_loop_batch_steps_once_on_summed_pair_gradients():
    cfg = SceneConfig.toy(size=32, num_light=2, num_dark=2)
    pairs = generate_pairs(cfg, 2, seed=1)
    tc = TrainConfig(arch=ArchConfig((4, 4), 3, seed=0), batch=2)
    params, reports = train_loop(pairs, tc)
    start = init_params(tc.arch)
    results = [_pair_grads(start, pair, tc) for pair in pairs]
    grads = _sum_grads([g for g, _ in results])
    assert any(g.kernel.any() for g in grads.layers)
    expected, _ = optimizer_step(start, grads, OptState.init(start, tc.opt))
    for a, b in zip(params.layers, expected.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.bias, b.bias)
    assert reports == [r for _, r in results]


def _train_loop_reference(data, cfg: TrainConfig):
    """The training loop before `fit`, verbatim."""
    params = init_params(cfg.arch)
    state = OptState.init(params, cfg.opt)
    pairs = list(data)
    reports = []
    for _ in range(cfg.epochs):
        for at in range(0, len(pairs), cfg.batch):
            try:
                results = [_pair_grads(params, pair, cfg) for pair in pairs[at:at + cfg.batch]]
            except InvalidInputError as e:
                if state.step_count == 0:
                    raise
                raise InvalidInputError(f"training diverged at step {state.step_count + 1}: "
                                        f"{e}; lower lr") from None
            params, state = optimizer_step(params, _sum_grads([g for g, _ in results]), state)
            finite_float32(params, f"training diverged at step {state.step_count}")
            reports.extend(r for _, r in results)
    return params, reports


@pytest.mark.parametrize("scene, count, batch, epochs", [
    (SceneConfig.toy(size=32, num_light=2, num_dark=2), 5, 3, 2),
    (SceneConfig.toy(size=32, num_light=2, num_dark=2), 3, 1, 1),
    (SceneConfig.scenes(size=32, num_light=3, num_dark=3), 3, 2, 1),
    (SceneConfig.scenes(size=32, num_light=3, num_dark=3), 2, 1, 2),
], ids=["toy-short-last-batch-2-epochs", "toy-batch-1", "scenes-short-last-batch",
        "scenes-2-epochs"])
def test_train_loop_matches_the_loop_before_fit(scene, count, batch, epochs):
    pairs = generate_pairs(scene, count, seed=4)
    tc = TrainConfig(arch=ArchConfig((4, 4), 3, seed=2), batch=batch, epochs=epochs,
                     opt=AdamW(lr=0.01))
    params, reports = train_loop(pairs, tc)
    ref_params, ref_reports = _train_loop_reference(pairs, tc)
    assert params.flat.tobytes() == ref_params.flat.tobytes()
    assert reports == ref_reports
    assert len(reports) == count * epochs and any(r.num_matches for r in reports)


def test_write_loss_csv(tmp_path):
    from dadkit.objective import LossReport
    header = "step,rl_loss,reg_loss,total,mean_raw_reward,num_matches\n"
    p = tmp_path / "loss.csv"
    write_loss_csv(p, [LossReport(1.0, 0.25, 1.25, 0.5, 4),
                       LossReport(1.25, 0.5, 1.75, 0.875, 7),
                       LossReport(-1 / 3, 0.0, -1 / 3, 2 / 3, 0)])
    assert p.read_text() == (header + "0,1,0.25,1.25,0.5,4\n"
                             "1,1.25,0.5,1.75,0.875,7\n"
                             "2,-0.333333333,0,-0.333333333,0.666666667,0\n")
    write_loss_csv(p, [])
    assert p.read_text() == header
