"""Conv stack forward/backward against loop-level oracles and parameter FD."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadkit.errors import InvalidInputError, InvalidParameterError
from dadkit.model import (AdamW, ArchConfig, ConvLayer, DetectorParams, OptState,
                          TrainConfig, _conv_backward, _conv_same, backward,
                          forward, init_params,
                          load_weights, optimizer_step, save_weights,
                          train_loop, write_loss_csv)
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
        layers = list(params.layers)
        kernel, bias = layers[li].kernel.copy(), layers[li].bias.copy()
        if field == "kernel":
            kernel.ravel()[idx] += delta
        else:
            bias.ravel()[idx] += delta
        layers[li] = ConvLayer(kernel, bias)
        return loss_fn(DetectorParams(tuple(layers), params.arch))

    return (poke(step) - poke(-step)) / (2 * step)


def test_forward_matches_loop_oracle():
    for arch in (ArchConfig((3,), 3, seed=1), ArchConfig((3, 4), 3, seed=2),
                 ArchConfig((2, 2), 5, seed=3)):
        params = init_params(arch)
        rng = np.random.default_rng(arch.seed)
        img = rng.random((11, 12))
        got, _ = forward(params, img)
        np.testing.assert_allclose(got.logits, forward_oracle(params, img),
                                   rtol=1e-12, atol=1e-12)


def test_forward_constant_image_gives_constant_scoremap():
    params = init_params(ArchConfig((4, 4), 5, seed=0))
    s, _ = forward(params, np.full((16, 16), 0.5))
    assert float(np.ptp(s.logits)) < 1e-12


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
            return float((out.logits * g_score).sum())

        for li in range(len(params.layers)):
            kflat = grads[li].kernel.ravel()
            for idx in rng.choice(kflat.size, size=min(6, kflat.size), replace=False):
                fd = fd_param_grad(loss_fn, params, li, "kernel", int(idx))
                assert kflat[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            for idx in range(grads[li].bias.size):
                fd = fd_param_grad(loss_fn, params, li, "bias", int(idx))
                assert grads[li].bias[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
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
    y, cols = _conv_same(x, layer)
    grads, gx = _conv_backward(g, cols, layer, want_input=True)
    assert gx.shape == x.shape
    lhs, rhs = float((y * g).sum()), float((x * gx).sum())
    assert abs(lhs - rhs) <= 1e-12 * float(np.abs(y * g).sum())
    assert _conv_backward(g, cols, layer, want_input=False)[1] is None
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


def test_backward_bias_gradient_is_spatial_sum_on_head():
    # the head is linear, so its bias gradient is just sum(dL/dS)
    params = init_params(ArchConfig((3,), 3, seed=5))
    rng = np.random.default_rng(5)
    img = rng.random((9, 9))
    g = rng.normal(size=(9, 9))
    _, cache = forward(params, img)
    grads = backward(cache, g)
    assert grads[-1].bias[0] == pytest.approx(g.sum(), rel=1e-12)


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
    grads = tuple(ConvLayer(rng.normal(size=l.kernel.shape),
                            rng.normal(size=l.bias.shape)) for l in params.layers)
    new, ns = optimizer_step(params, grads, state)
    assert ns.step_count == 1
    g = grads[0].kernel
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
    zeros = tuple(ConvLayer(np.zeros_like(l.kernel), np.zeros_like(l.bias))
                  for l in params.layers)
    new, _ = optimizer_step(params, zeros, state)
    np.testing.assert_allclose(new.layers[0].kernel,
                               params.layers[0].kernel * (1 - 0.05), rtol=1e-15)


def test_optimizer_state_validation():
    params = init_params(ArchConfig((2,), 3, seed=0))
    with pytest.raises(InvalidParameterError):
        AdamW(lr=0.0)
    with pytest.raises(InvalidParameterError):
        AdamW(beta1=1.0)
    state = OptState.init(params)
    with pytest.raises(InvalidInputError):
        optimizer_step(params, (), state)


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
    """A weights file whose layers have the given kernel shapes and bias lengths."""
    save_weights(path, DetectorParams(
        tuple(ConvLayer(np.zeros(k), np.zeros(b)) for k, b in layers), ArchConfig()))


def test_load_weights_validates_structure(tmp_path):
    p = tmp_path / "w.dadw"
    p.write_bytes(b"XXXX")
    with pytest.raises(InvalidInputError):
        load_weights(p)
    # a stack whose last layer is not a 1x1 head must be refused
    params = init_params(ArchConfig((3,), 3, seed=0))
    headless = DetectorParams((params.layers[0], params.layers[0]), params.arch)
    save_weights(p, headless)
    with pytest.raises(InvalidInputError):
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


@settings(deadline=None, max_examples=50)
@given(widths=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       kernel_size=st.sampled_from([1, 3]), data=st.data())
def test_cut_weights_file_raises_invalid_input(tmp_path_factory, widths, kernel_size, data):
    p = tmp_path_factory.mktemp("dadw") / "w.dadw"
    save_weights(p, init_params(ArchConfig(tuple(widths), kernel_size)))
    blob = p.read_bytes()
    p.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(InvalidInputError):
        load_weights(p)


def test_train_loop_is_deterministic_and_reports_per_pair():
    cfg = SceneConfig.toy(size=32, num_light=2, num_dark=2)
    pairs = generate_pairs(cfg, 3, seed=0, kind="toy")
    tc = TrainConfig(arch=ArchConfig((4, 4), 3, seed=0),
                     epochs=2, match_threshold=np.inf)
    p1, r1 = train_loop(pairs, tc)
    p2, r2 = train_loop(pairs, tc)
    assert len(r1) == 6
    assert [r.step for r in r1] == list(range(6))
    for a, b in zip(p1.layers, p2.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.bias, b.bias)
    assert any(r.num_matches > 0 for r in r1)


def test_train_loop_threaded_is_deterministic():
    cfg = SceneConfig.toy(size=32, num_light=2, num_dark=2)
    pairs = generate_pairs(cfg, 4, seed=1, kind="toy")
    tc = TrainConfig(arch=ArchConfig((4, 4), 3, seed=0), threads=2)
    p1, r1 = train_loop(pairs, tc)
    p2, r2 = train_loop(pairs, tc)
    assert len(r1) == len(r2) == 4
    for a, b in zip(p1.layers, p2.layers):
        np.testing.assert_array_equal(a.kernel, b.kernel)
    assert [r.csv_row() for r in r1] == [r.csv_row() for r in r2]


def test_write_loss_csv(tmp_path):
    from dadkit.objective import LossReport
    p = tmp_path / "loss.csv"
    write_loss_csv(p, [LossReport(0, 1.0, 0.25, 1.25, 0.5, 4)])
    assert p.read_text() == ("step,rl_loss,reg_loss,total,mean_raw_reward,num_matches\n"
                             "0,1,0.25,1.25,0.5,4\n")
