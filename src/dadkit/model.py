"""Miniature convolutional scoremap detector with hand-written backprop.

The network is a stack of same-padded convolution -> bias -> rectifier
blocks followed by a linear 1x1 convolution that emits one logit per pixel.
Convolutions reflect at borders (half-sample), matching the smoothing in
:mod:`dadkit.core`, so a constant image produces an exactly constant
scoremap.  Forward and backward are im2col matrix products; the gradients
are exact and the test-suite checks them against central finite differences.
The optimizer is adaptive moments with decoupled multiplicative weight decay.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Mask, ScoreMap
from .errors import InvalidInputError, InvalidParameterError
from .geometry import match_mutual_nn
from .objective import LossReport, RewardConfig, total_loss_and_grad
from .sampler import KeypointSet, SamplerConfig, sample_keypoints

WEIGHTS_MAGIC = b"DADW"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class ArchConfig:
    """Shape of the detector stack."""

    channel_widths: tuple[int, ...] = (8, 16, 16)
    kernel_size: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "channel_widths", tuple(int(w) for w in self.channel_widths))
        if not self.channel_widths or any(w < 1 for w in self.channel_widths):
            raise InvalidParameterError("need at least one channel width, each >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise InvalidParameterError("kernel_size must be odd and >= 1")

    @property
    def receptive_field(self) -> int:
        return len(self.channel_widths) * (self.kernel_size - 1) + 1


@dataclass(frozen=True)
class ConvLayer:
    """One convolution's tensors: kernel (out, in, kh, kw) and bias (out,)."""

    kernel: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class DetectorParams:
    """All layer tensors; the last layer is the linear 1x1 head."""

    layers: tuple[ConvLayer, ...]
    arch: ArchConfig


@dataclass(frozen=True)
class OptState:
    """Adaptive-moment optimizer state and hyperparameters."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    weight_decay: float
    step_count: int
    m: tuple[ConvLayer, ...]
    v: tuple[ConvLayer, ...]

    def __post_init__(self):
        if not (self.lr > 0):
            raise InvalidParameterError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidParameterError("betas must be in [0, 1)")
        if not (self.eps > 0):
            raise InvalidParameterError("eps must be positive")
        if self.weight_decay < 0:
            raise InvalidParameterError("weight_decay must be >= 0")

    @classmethod
    def init(cls, params: DetectorParams, lr=1e-3, beta1=0.9, beta2=0.999,
             eps=1e-8, weight_decay=1e-4) -> "OptState":
        zeros = tuple(
            ConvLayer(np.zeros_like(l.kernel), np.zeros_like(l.bias)) for l in params.layers
        )
        return cls(lr, beta1, beta2, eps, weight_decay, 0, zeros, zeros)


@dataclass(frozen=True)
class ActivationCache:
    """Everything backward needs: params, per-layer im2col matrices, preacts."""

    params: DetectorParams
    image_shape: tuple[int, int]
    cols: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]


def init_params(cfg: ArchConfig) -> DetectorParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) kernels, zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    widths = (1, *cfg.channel_widths)
    k = cfg.kernel_size
    layers = []
    for i in range(len(cfg.channel_widths)):
        fan_in = widths[i] * k * k
        fan_out = widths[i + 1] * k * k
        a = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(ConvLayer(
            rng.uniform(-a, a, (widths[i + 1], widths[i], k, k)),
            np.zeros(widths[i + 1]),
        ))
    a = math.sqrt(6.0 / (widths[-1] + 1))
    layers.append(ConvLayer(rng.uniform(-a, a, (1, widths[-1], 1, 1)), np.zeros(1)))
    return DetectorParams(tuple(layers), cfg)


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    c, hp, wp = xp.shape
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H, W, kh, kw)
    h, w = hp - kh + 1, wp - kw + 1
    return v.transpose(1, 2, 0, 3, 4).reshape(h * w, c * kh * kw)


def _conv_same(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    o, c, kh, kw = layer.kernel.shape
    r = kh // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="symmetric") if r else x
    cols = _im2col(xp, kh, kw)
    y = cols @ layer.kernel.reshape(o, c * kh * kw).T + layer.bias
    h, w = x.shape[1], x.shape[2]
    return y.T.reshape(o, h, w), cols


def _fold_axis(g: np.ndarray, r: int, axis: int) -> np.ndarray:
    """Adjoint of half-sample reflection padding along one axis."""
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


def _conv_backward(gy: np.ndarray, cols: np.ndarray, layer: ConvLayer):
    o, c, kh, kw = layer.kernel.shape
    _, h, w = gy.shape
    gy_flat = gy.reshape(o, h * w).T
    g_kernel = (gy_flat.T @ cols).reshape(o, c, kh, kw)
    g_bias = gy_flat.sum(axis=0)
    # input gradient: full correlation of gy with the spatially flipped kernel
    r = kh // 2
    gp = np.pad(gy, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    wt = np.flip(layer.kernel, axis=(2, 3)).transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
    g_xp = (_im2col(gp, kh, kw) @ wt.T).T.reshape(c, h + 2 * r, w + 2 * r)
    if r:
        g_xp = _fold_axis(_fold_axis(g_xp, r, 2), r, 1)
    return ConvLayer(g_kernel, g_bias), g_xp


def forward(params: DetectorParams, image) -> tuple[ScoreMap, ActivationCache]:
    """Run the stack on a grayscale image in [0, 1]; returns logits + cache."""
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
        y, cols = _conv_same(t, layer)
        cols_list.append(cols)
        preacts.append(y)
        t = np.maximum(y, 0.0)
    logits, cols = _conv_same(t, params.layers[-1])
    cols_list.append(cols)
    cache = ActivationCache(params, x.shape, tuple(cols_list), tuple(preacts))
    return ScoreMap(logits[0]), cache


def backward(cache: ActivationCache, grad_scoremap) -> tuple[ConvLayer, ...]:
    """Exact parameter gradients given dLoss/dScoreMap."""
    g = np.asarray(grad_scoremap, dtype=np.float64)
    if g.shape != cache.image_shape:
        raise InvalidInputError(f"gradient shape {g.shape} != image shape {cache.image_shape}")
    layers = cache.params.layers
    grads: list[ConvLayer | None] = [None] * len(layers)
    gt = g[None]
    for li in reversed(range(len(layers))):
        grads[li], g_x = _conv_backward(gt, cache.cols[li], layers[li])
        if li > 0:
            gt = g_x * (cache.preacts[li - 1] > 0)
    return tuple(grads)  # type: ignore[arg-type]


def optimizer_step(params: DetectorParams, grads, state: OptState):
    """One decoupled-weight-decay adaptive-moment update; functional."""
    if len(grads) != len(params.layers):
        raise InvalidInputError("gradient/parameter layer count mismatch")
    t = state.step_count + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    shrink = 1.0 - state.lr * state.weight_decay

    def upd(p, g, m, v):
        if p.shape != g.shape:
            raise InvalidInputError("gradient/parameter shape mismatch")
        m2 = state.beta1 * m + (1.0 - state.beta1) * g
        v2 = state.beta2 * v + (1.0 - state.beta2) * g * g
        step = state.lr * (m2 / bc1) / (np.sqrt(v2 / bc2) + state.eps)
        return p * shrink - step, m2, v2

    new_layers, new_m, new_v = [], [], []
    for layer, g, m, v in zip(params.layers, grads, state.m, state.v):
        k2, mk, vk = upd(layer.kernel, g.kernel, m.kernel, v.kernel)
        b2, mb, vb = upd(layer.bias, g.bias, m.bias, v.bias)
        new_layers.append(ConvLayer(k2, b2))
        new_m.append(ConvLayer(mk, mb))
        new_v.append(ConvLayer(vk, vb))
    new_state = replace(state, step_count=t, m=tuple(new_m), v=tuple(new_v))
    return DetectorParams(tuple(new_layers), params.arch), new_state


def save_weights(path, params: DetectorParams) -> None:
    """Binary weights: magic 'DADW', version, layer count, then per layer
    the u32 kernel shape, float32 kernel, u32 bias length, float32 bias."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(params.layers)))
        for layer in params.layers:
            f.write(struct.pack("<IIII", *layer.kernel.shape))
            f.write(layer.kernel.astype("<f4").tobytes(order="C"))
            f.write(struct.pack("<I", layer.bias.shape[0]))
            f.write(layer.bias.astype("<f4").tobytes(order="C"))


def load_weights(path) -> DetectorParams:
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise InvalidInputError(f"{path}: truncated weights file")
            return data

        if f.read(4) != WEIGHTS_MAGIC:
            raise InvalidInputError(f"{path}: bad weights magic")
        version, n_layers = struct.unpack("<II", read(8))
        if version != WEIGHTS_VERSION:
            raise InvalidInputError(f"unsupported weights version {version}")
        layers = []
        for _ in range(n_layers):
            shape = struct.unpack("<IIII", read(16))
            count = shape[0] * shape[1] * shape[2] * shape[3]
            kernel = np.frombuffer(read(4 * count), dtype="<f4").reshape(shape)
            (blen,) = struct.unpack("<I", read(4))
            bias = np.frombuffer(read(4 * blen), dtype="<f4")
            layers.append(ConvLayer(kernel.astype(np.float64), bias.astype(np.float64)))
    if n_layers < 2 or layers[-1].kernel.shape[0] != 1 or layers[-1].kernel.shape[2:] != (1, 1):
        raise InvalidInputError("weights file does not end in a 1x1 single-channel head")
    widths = tuple(l.kernel.shape[0] for l in layers[:-1])
    arch = ArchConfig(widths, layers[0].kernel.shape[2], seed=0)
    for i, layer in enumerate(layers):
        expect_in = 1 if i == 0 else widths[i - 1]
        if i < len(widths) and layer.kernel.shape[1] != expect_in:
            raise InvalidInputError("inconsistent layer widths in weights file")
    return DetectorParams(tuple(layers), arch)


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the data itself."""

    arch: ArchConfig = field(default_factory=ArchConfig)
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(k=10))
    reward: RewardConfig = field(default_factory=RewardConfig)
    reg_sigma_frac: float = 0.02
    reg_weight: float = 1.0
    match_threshold: float = np.inf
    assign_radius: float = 4.0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    weight_decay: float = 1e-4
    epochs: int = 1
    threads: int = 1

    def __post_init__(self):
        if not (self.reg_sigma_frac > 0):
            raise InvalidParameterError("reg_sigma_frac must be positive")
        if self.reg_weight < 0:
            raise InvalidParameterError("reg_weight must be >= 0")
        if not (self.match_threshold > 0):
            raise InvalidParameterError("match_threshold must be positive")
        if not (self.assign_radius > 0):
            raise InvalidParameterError("assign_radius must be positive")
        if self.epochs < 1 or self.threads < 1:
            raise InvalidParameterError("epochs and threads must be >= 1")

    @classmethod
    def for_toy(cls, seed: int = 0) -> "TrainConfig":
        """Defaults tuned for the 10+10 dot toy task, budget 10."""
        return cls(arch=ArchConfig(seed=seed))

    @classmethod
    def for_scenes(cls, seed: int = 0, k: int = 32, tau_r: float = 2.0) -> "TrainConfig":
        return cls(
            arch=ArchConfig(seed=seed),
            sampler=SamplerConfig(k=k),
            reward=RewardConfig(tau_r=tau_r),
        )


def _covisible_subset(kps: KeypointSet, mask: Mask) -> KeypointSet:
    kept = tuple(
        kp for kp in kps.keypoints if mask.bits[int(round(kp.y)), int(round(kp.x))]
    )
    return KeypointSet(kept, kps.source_shape)


def _pair_grads(params: DetectorParams, pair, cfg: TrainConfig, step: int):
    from .synth import toy_matches  # local import: synth depends on geometry/sampler only

    sa, ca = forward(params, pair.image_a)
    sb, cb = forward(params, pair.image_b)
    ka = _covisible_subset(sample_keypoints(sa, cfg.sampler, "train"), pair.mask_a)
    kb = _covisible_subset(sample_keypoints(sb, cfg.sampler, "train"), pair.mask_b)
    if pair.kind == "toy":
        mab, mba = toy_matches(ka, kb, pair, cfg.assign_radius, cfg.match_threshold)
    else:
        mab, mba = match_mutual_nn(ka, kb, pair.transfer, cfg.match_threshold)
    reg_sigma = cfg.reg_sigma_frac * min(sa.shape)
    report, ga, gb = total_loss_and_grad(
        sa, sb, pair.mask_a, pair.mask_b, ka, kb, mab, mba,
        cfg.reward, reg_sigma, cfg.reg_weight, step,
    )
    return _sum_grads([backward(ca, ga), backward(cb, gb)]), report


def _sum_grads(grad_lists):
    """Layer-wise sum of per-layer gradient tuples, added left to right."""
    total = grad_lists[0]
    for grads in grad_lists[1:]:
        total = tuple(
            ConvLayer(t.kernel + g.kernel, t.bias + g.bias) for t, g in zip(total, grads)
        )
    return total


def train_loop(data, cfg: TrainConfig) -> tuple[DetectorParams, list[LossReport]]:
    """Train a fresh detector over the pair stream; deterministic given cfg.

    threads == 1 steps the optimizer once per pair.  threads > 1 evaluates
    that many per-pair gradients against the same parameters concurrently and
    reduces them in pair order before a single step (batched updates).
    """
    params = init_params(cfg.arch)
    state = OptState.init(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_opt,
                          cfg.weight_decay)
    pairs = list(data)
    reports: list[LossReport] = []
    step = 0
    pool = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    try:
        for _ in range(cfg.epochs):
            for at in range(0, len(pairs), cfg.threads):
                batch = pairs[at:at + cfg.threads]
                if pool is None:
                    results = [_pair_grads(params, batch[0], cfg, step)]
                else:
                    results = list(pool.map(
                        lambda ip: _pair_grads(params, ip[1], cfg, step + ip[0]),
                        enumerate(batch),
                    ))
                grads = _sum_grads([g for g, _ in results])
                params, state = optimizer_step(params, grads, state)
                reports.extend(r for _, r in results)
                step += len(batch)
    finally:
        if pool is not None:
            pool.shutdown()
    return params, reports


def write_loss_csv(path, reports) -> None:
    lines = [LossReport.CSV_HEADER] + [r.csv_row() for r in reports]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
