"""Miniature convolutional scoremap detector with hand-written backprop.

The network is a stack of same-padded convolution -> bias -> rectifier
blocks followed by a linear 1x1 convolution that emits one logit per pixel.
Convolutions reflect at borders (half-sample), matching the smoothing in
:mod:`dadkit.core`, so a constant image produces an exactly constant
scoremap.  Forward and backward are im2col matrix products over
channel-major columns of shape (C*k*k, H*W): the forward multiplies the
kernel matrix by the columns, the kernel gradient reuses the cached columns,
and the input gradient is one product of the flipped kernel with the
columns of the zero-padded output gradient.  The first layer's input gradient is never
formed, since no parameter depends on it.  The gradients are exact and the
test-suite checks them against central finite differences.
The optimizer, :class:`AdamW`, is adaptive moments with decoupled multiplicative
weight decay; training and distillation both take their settings from it.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Mask, ScoreMap, _read_exact
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
class AdamW:
    """Adaptive-moment optimizer settings with decoupled weight decay."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self):
        if not (self.lr > 0):
            raise InvalidParameterError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidParameterError("betas must be in [0, 1)")
        if not (self.eps > 0):
            raise InvalidParameterError("eps must be positive")
        if not (self.weight_decay >= 0):
            raise InvalidParameterError("weight_decay must be >= 0")


@dataclass(frozen=True)
class OptState:
    """Optimizer settings, step count and per-layer moment estimates."""

    opt: AdamW
    step_count: int
    m: tuple[ConvLayer, ...]
    v: tuple[ConvLayer, ...]

    @classmethod
    def init(cls, params: DetectorParams, opt: AdamW = AdamW()) -> "OptState":
        zeros = tuple(
            ConvLayer(np.zeros_like(l.kernel), np.zeros_like(l.bias)) for l in params.layers
        )
        return cls(opt, 0, zeros, zeros)


@dataclass(frozen=True)
class ActivationCache:
    """Everything backward needs: params, per-layer columns, preacts.

    cols[i] is layer i's channel-major im2col matrix, (C_in*k*k, H*W), and
    preacts[i] the pre-activation (C_out, H, W) of each rectified layer.
    """

    params: DetectorParams
    image_shape: tuple[int, int]
    cols: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]


def _layer_shapes(arch: ArchConfig) -> list[tuple[tuple[int, ...], tuple[int]]]:
    """(kernel shape, bias shape) of every layer of the stack, the 1x1 head last."""
    widths = (1, *arch.channel_widths)
    k = arch.kernel_size
    shapes = [((o, i, k, k), (o,)) for i, o in zip(widths, widths[1:])]
    return shapes + [((1, widths[-1], 1, 1), (1,))]


def init_params(cfg: ArchConfig) -> DetectorParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) kernels, zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    layers = []
    for kshape, bshape in _layer_shapes(cfg):
        o, i, kh, kw = kshape
        a = math.sqrt(6.0 / (i * kh * kw + o * kh * kw))
        layers.append(ConvLayer(rng.uniform(-a, a, kshape), np.zeros(bshape)))
    return DetectorParams(tuple(layers), cfg)


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Channel-major columns (C*kh*kw, H*W) of a padded (C, H+kh-1, W+kw-1) stack."""
    c, hp, wp = xp.shape
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H, W, kh, kw)
    h, w = hp - kh + 1, wp - kw + 1
    return v.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h * w)


def _conv_same(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    o, c, kh, kw = layer.kernel.shape
    r = kh // 2
    xp = np.pad(x, ((0, 0), (r, r), (r, r)), mode="symmetric") if r else x
    cols = _im2col(xp, kh, kw)
    y = layer.kernel.reshape(o, c * kh * kw) @ cols + layer.bias[:, None]
    return y.reshape(o, x.shape[1], x.shape[2]), cols


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


def _conv_backward(gy: np.ndarray, cols: np.ndarray, layer: ConvLayer, want_input: bool):
    """(kernel/bias gradients, input gradient or None) given dLoss/dOutput gy."""
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
        g_xp = _fold_axis(_fold_axis(g_xp, r, 2), r, 1)
    return grads, g_xp


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
        grads[li], g_x = _conv_backward(gt, cache.cols[li], layers[li], want_input=li > 0)
        if li > 0:
            gt = g_x * (cache.preacts[li - 1] > 0)
    return tuple(grads)  # type: ignore[arg-type]


def optimizer_step(params: DetectorParams, grads, state: OptState):
    """One decoupled-weight-decay adaptive-moment update; functional."""
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
        if f.read(4) != WEIGHTS_MAGIC:
            raise InvalidInputError(f"{path}: bad weights magic")
        version, n_layers = struct.unpack("<II", _read_exact(f, 8, path))
        if version != WEIGHTS_VERSION:
            raise InvalidInputError(f"unsupported weights version {version}")
        layers = []
        for _ in range(n_layers):
            shape = struct.unpack("<IIII", _read_exact(f, 16, path))
            count = shape[0] * shape[1] * shape[2] * shape[3]
            kernel = np.frombuffer(_read_exact(f, 4 * count, path), dtype="<f4").reshape(shape)
            (blen,) = struct.unpack("<I", _read_exact(f, 4, path))
            bias = np.frombuffer(_read_exact(f, 4 * blen, path), dtype="<f4")
            layers.append(ConvLayer(kernel.astype(np.float64), bias.astype(np.float64)))
    if n_layers < 2:
        raise InvalidInputError(f"{path}: need at least one conv layer and a head")
    try:
        arch = ArchConfig(tuple(l.kernel.shape[0] for l in layers[:-1]),
                          layers[0].kernel.shape[2], seed=0)
    except InvalidParameterError as e:
        raise InvalidInputError(f"{path}: {e}") from None
    if [(l.kernel.shape, l.bias.shape) for l in layers] != _layer_shapes(arch):
        raise InvalidInputError(f"{path}: layer shapes do not match widths "
                                f"{arch.channel_widths}, kernel size {arch.kernel_size}, 1x1 head")
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
    opt: AdamW = field(default_factory=AdamW)
    epochs: int = 1
    threads: int = 1

    def __post_init__(self):
        if not (self.reg_sigma_frac > 0):
            raise InvalidParameterError("reg_sigma_frac must be positive")
        if not (self.reg_weight >= 0):
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


def _covisible_subset(kps: KeypointSet, mask: Mask) -> KeypointSet:
    px = np.rint(kps.xy).astype(np.intp)
    keep = mask.bits[px[:, 1], px[:, 0]]
    return KeypointSet(kps.xy[keep], kps.scores[keep], kps.source_shape)


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
    state = OptState.init(params, cfg.opt)
    pairs = list(data)
    reports: list[LossReport] = []
    step = 0
    for _ in range(cfg.epochs):
        for at in range(0, len(pairs), cfg.threads):
            batch = pairs[at:at + cfg.threads]
            results = _ordered_map(lambda ip: _pair_grads(params, ip[1], cfg, step + ip[0]),
                                   enumerate(batch), cfg.threads)
            grads = _sum_grads([g for g, _ in results])
            params, state = optimizer_step(params, grads, state)
            reports.extend(r for _, r in results)
            step += len(batch)
    return params, reports


def _ordered_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], run on up to `threads` worker threads."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))  # order preserved


def write_loss_csv(path, reports) -> None:
    lines = [LossReport.CSV_HEADER] + [r.csv_row() for r in reports]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
