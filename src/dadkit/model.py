"""Miniature convolutional scoremap detector with hand-written backprop.

The network is a stack of same-padded convolution -> bias -> rectifier
blocks followed by a linear 1x1 convolution that emits one logit per pixel.
Convolutions reflect at borders (half-sample), matching the smoothing in
:mod:`dadkit.core`, so a constant image produces an exactly constant
scoremap.  Forward and backward are im2col matrix products over
channel-major columns of shape (C*k*k, H*W): the forward multiplies the
kernel matrix by the columns and keeps only the layer's padded input, the
kernel gradient rebuilds the columns from it, and the input gradient is one
product of the flipped kernel with the columns of the zero-padded output
gradient.  Every column matrix is written into one per-thread workspace,
which grows to the largest size seen and is kept, so a step allocates no
columns.  The first layer's input gradient is never formed, since no
parameter depends on it.  The gradients are exact and the test-suite checks
them against central finite differences.
Parameters, gradients and the optimizer's moments are flat float64 vectors
of one layout, with per-layer views; summing gradients and stepping the
optimizer are whole-vector arithmetic, and only this module knows the layout.
The optimizer, :class:`AdamW`, is adaptive moments with decoupled multiplicative
weight decay; :func:`fit` is the one loop that runs it, for training and
distillation alike.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, InvalidParameterError, check_range
from .formats import _read_exact, read_header
from .geometry import match_mutual_nn
from .objective import LossReport, RewardConfig, total_loss_and_grad
from .sampler import KeypointSet, SamplerConfig, sample_keypoints
from .synth import toy_matches

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
            raise InvalidParameterError(
                f"channel_widths must hold at least one width, each >= 1, got {self.channel_widths}")
        check_range("kernel_size", self.kernel_size, ge=1)
        if self.kernel_size % 2 == 0:
            raise InvalidParameterError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        check_range("seed", self.seed, ge=0)

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
    """Every parameter of a stack as one flat float64 vector, in
    `_layer_shapes` order (each layer's kernel, then its bias; the linear 1x1
    head last).  Gradients use the same type."""

    flat: np.ndarray
    arch: ArchConfig

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        size = sum(math.prod(k) + b for k, (b,) in _layer_shapes(self.arch))
        if flat.shape != (size,):
            raise InvalidInputError(f"parameter vector {flat.shape}, arch needs ({size},)")
        object.__setattr__(self, "flat", flat)

    @cached_property
    def layers(self) -> tuple[ConvLayer, ...]:
        """Per-layer (kernel, bias) views of `flat`."""
        return _views(self.flat, self.arch)


@dataclass(frozen=True)
class AdamW:
    """Adaptive-moment optimizer settings with decoupled weight decay."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4

    def __post_init__(self):
        check_range("lr", self.lr, gt=0, lt=np.inf)
        for name in ("beta1", "beta2"):
            check_range(name, getattr(self, name), ge=0, lt=1)
        check_range("eps", self.eps, gt=0)
        check_range("weight_decay", self.weight_decay, ge=0, lt=np.inf)
        if not math.isfinite(self.lr * self.weight_decay):  # the decay factor overflows
            raise InvalidParameterError("lr * weight_decay must be finite")


@dataclass(frozen=True)
class OptState:
    """Optimizer settings, step count and moment vectors laid out like params.flat."""

    opt: AdamW
    step_count: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def init(cls, params: DetectorParams, opt: AdamW = AdamW()) -> "OptState":
        zeros = np.zeros_like(params.flat)
        return cls(opt, 0, zeros, zeros)


@dataclass(frozen=True)
class ActivationCache:
    """Everything backward needs: params, per-layer padded inputs, preacts.

    inputs[i] is layer i's input with its symmetric border, (C_in, H+k-1,
    W+k-1); backward rebuilds the im2col columns from it, which is cheaper
    than keeping them (k*k times larger).  preacts[i] is the pre-activation
    (C_out, H, W) of each rectified layer.
    """

    params: DetectorParams
    image_shape: tuple[int, int]
    inputs: tuple[np.ndarray, ...]
    preacts: tuple[np.ndarray, ...]


def _layer_shapes(arch: ArchConfig) -> list[tuple[tuple[int, ...], tuple[int]]]:
    """(kernel shape, bias shape) of every layer of the stack, the 1x1 head last."""
    widths = (1, *arch.channel_widths)
    k = arch.kernel_size
    shapes = [((o, i, k, k), (o,)) for i, o in zip(widths, widths[1:])]
    return shapes + [((1, widths[-1], 1, 1), (1,))]


def _views(flat: np.ndarray, arch: ArchConfig) -> tuple[ConvLayer, ...]:
    """(kernel, bias) views of a vector laid out in `_layer_shapes` order."""
    layers, at = [], 0
    for kshape, (blen,) in _layer_shapes(arch):
        end = at + math.prod(kshape)
        layers.append(ConvLayer(flat[at:end].reshape(kshape), flat[end:end + blen]))
        at = end + blen
    return tuple(layers)


def init_params(cfg: ArchConfig) -> DetectorParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) kernels, zero biases, seeded."""
    rng = np.random.default_rng(cfg.seed)
    parts = []
    for kshape, bshape in _layer_shapes(cfg):
        o, i, kh, kw = kshape
        a = math.sqrt(6.0 / (i * kh * kw + o * kh * kw))
        parts += [rng.uniform(-a, a, kshape).ravel(), np.zeros(bshape)]
    return DetectorParams(np.concatenate(parts), cfg)


_workspace = threading.local()  # .buf: this thread's float64 column buffer


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Channel-major columns (C*kh*kw, H*W) of a padded (C, H+kh-1, W+kw-1) stack.

    The columns are a C-contiguous view of this thread's workspace, one
    float64 buffer that grows to the largest size seen and is never freed.
    They are valid until the same thread's next call, so each caller uses them
    in the product on the same line; per-thread buffers keep `forward` and
    `backward` safe to call from several threads.  The buffer starts on a
    64-byte cache line: a large `np.empty` from glibc starts 16 bytes into a
    page, where the copy and the product ran 5-8% slower.
    """
    c, hp, wp = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    size = c * kh * kw * h * w
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        raw = np.empty(size + 7)
        at = -raw.ctypes.data % 64 // 8
        buf = _workspace.buf = raw[at:at + size]
    cols = buf[:size].reshape(c, kh, kw, h, w)
    cols[...] = sliding_window_view(xp, (kh, kw), axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    return cols.reshape(c * kh * kw, h * w)


def _pad(x: np.ndarray, r: int, mirror: bool) -> np.ndarray:
    """(C, H+2r, W+2r) copy of x with a border of width r <= min(H, W): the
    edge rows and columns mirrored, edge included (np.pad "symmetric"), or zeros."""
    c, h, w = x.shape
    xp = (np.empty if mirror else np.zeros)((c, h + 2 * r, w + 2 * r))
    xp[:, r:r + h, r:r + w] = x
    if mirror:
        xp[:, :r, r:r + w] = np.flip(x[:, :r], axis=1)
        xp[:, r + h:, r:r + w] = np.flip(x[:, h - r:], axis=1)
        xp[:, :, :r] = np.flip(xp[:, :, r:2 * r], axis=2)
        xp[:, :, r + w:] = np.flip(xp[:, :, w:w + r], axis=2)
    return xp


def _conv_same(x: np.ndarray, layer: ConvLayer) -> tuple[np.ndarray, np.ndarray]:
    """(output (O, H, W), the padded input that backward rebuilds the columns from)."""
    o, c, kh, kw = layer.kernel.shape
    r = kh // 2
    xp = _pad(x, r, mirror=True) if r else x
    y = layer.kernel.reshape(o, c * kh * kw) @ _im2col(xp, kh, kw) + layer.bias[:, None]
    return y.reshape(o, x.shape[1], x.shape[2]), xp


def _fold_axis(g: np.ndarray, r: int, axis: int) -> np.ndarray:
    """Adjoint of half-sample reflection padding along one axis."""
    g = np.moveaxis(g, axis, 0)
    n = len(g) - 2 * r
    core = g[r:r + n].copy(order="K")  # the input's memory order, so the result gets its layout
    core[:r] += g[:r][::-1]
    core[n - r:] += g[r + n:][::-1]
    return np.moveaxis(core, 0, axis)


def _conv_backward(gy: np.ndarray, xp: np.ndarray, layer: ConvLayer, want_input: bool):
    """(kernel/bias gradients, input gradient or None) given dLoss/dOutput gy
    and the layer's padded input xp."""
    o, c, kh, kw = layer.kernel.shape
    _, h, w = gy.shape
    gy_flat = gy.reshape(o, h * w)
    grads = ConvLayer((gy_flat @ _im2col(xp, kh, kw).T).reshape(o, c, kh, kw),
                      gy_flat.sum(axis=1))
    if not want_input:
        return grads, None
    # input gradient: full correlation of gy with the spatially flipped kernel
    r = kh // 2
    gp = _pad(gy, kh - 1, mirror=False)
    wt = np.flip(layer.kernel, axis=(2, 3)).transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
    g_xp = (wt @ _im2col(gp, kh, kw)).reshape(c, h + 2 * r, w + 2 * r)
    if r:
        g_xp = _fold_axis(_fold_axis(g_xp, r, 2), r, 1)
    return grads, g_xp


def forward(params: DetectorParams, image) -> tuple[np.ndarray, ActivationCache]:
    """Run the stack on a grayscale image in [0, 1]; returns the logit grid + cache."""
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
    inputs, preacts = [], []
    for layer in params.layers[:-1]:
        y, xp = _conv_same(t, layer)
        inputs.append(xp)
        preacts.append(y)
        t = np.maximum(y, 0.0)
    logits, xp = _conv_same(t, params.layers[-1])
    inputs.append(xp)
    if not np.isfinite(logits).all():
        raise InvalidInputError("scoremap logits contain NaN/Inf")
    return logits[0], ActivationCache(params, x.shape, tuple(inputs), tuple(preacts))


def backward(cache: ActivationCache, grad_scoremap) -> DetectorParams:
    """Exact parameter gradients given dLoss/dlogits."""
    g = np.asarray(grad_scoremap, dtype=np.float64)
    if g.shape != cache.image_shape:
        raise InvalidInputError(f"gradient shape {g.shape} != image shape {cache.image_shape}")
    layers = cache.params.layers
    grads = DetectorParams(np.zeros_like(cache.params.flat), cache.params.arch)
    gt = g[None]
    for li in reversed(range(len(layers))):
        layer_grads, g_x = _conv_backward(gt, cache.inputs[li], layers[li], want_input=li > 0)
        grads.layers[li].kernel[...] = layer_grads.kernel
        grads.layers[li].bias[...] = layer_grads.bias
        if li > 0:
            gt = g_x * (cache.preacts[li - 1] > 0)
    return grads


def optimizer_step(params: DetectorParams, grads: DetectorParams, state: OptState):
    """One decoupled-weight-decay adaptive-moment update; functional."""
    if grads.flat.shape != params.flat.shape:
        raise InvalidInputError("gradient/parameter size mismatch")
    opt, t, g = state.opt, state.step_count + 1, grads.flat
    m = opt.beta1 * state.m + (1.0 - opt.beta1) * g
    v = opt.beta2 * state.v + (1.0 - opt.beta2) * g * g
    step = opt.lr * (m / (1.0 - opt.beta1 ** t)) / (np.sqrt(v / (1.0 - opt.beta2 ** t)) + opt.eps)
    flat = params.flat * (1.0 - opt.lr * opt.weight_decay) - step
    return DetectorParams(flat, params.arch), replace(state, step_count=t, m=m, v=v)


def finite_float32(params: DetectorParams, where: str) -> np.ndarray:
    """params.flat as little-endian float32, the precision weights are saved
    at; InvalidInputError naming `where` if an entry is not finite there."""
    with np.errstate(over="ignore", invalid="ignore"):
        flat32 = params.flat.astype("<f4")
    if not np.isfinite(flat32).all():
        raise InvalidInputError(f"{where}: parameters are not finite as float32")
    return flat32


def save_weights(path, params: DetectorParams) -> None:
    """Binary weights: magic 'DADW', version, layer count, then per layer
    the u32 kernel shape, float32 kernel, u32 bias length, float32 bias.
    Parameters that are not finite as float32 are refused before the file opens."""
    layers = _views(finite_float32(params, f"{path} not written"), params.arch)
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC + struct.pack("<II", WEIGHTS_VERSION, len(layers)))
        for layer in layers:
            f.write(struct.pack("<IIII", *layer.kernel.shape))
            f.write(layer.kernel.tobytes(order="C"))
            f.write(struct.pack("<I", layer.bias.shape[0]))
            f.write(layer.bias.tobytes(order="C"))


def load_weights(path) -> DetectorParams:
    with open(path, "rb") as f:
        (n_layers,) = read_header(f, path, WEIGHTS_MAGIC, WEIGHTS_VERSION, "<II")
        shapes, blobs = [], []
        for _ in range(n_layers):
            kshape = struct.unpack("<IIII", _read_exact(f, 16, path))
            blobs.append(_read_exact(f, 4 * math.prod(kshape), path))
            (blen,) = struct.unpack("<I", _read_exact(f, 4, path))
            blobs.append(_read_exact(f, 4 * blen, path))
            shapes.append((kshape, (blen,)))
    if n_layers < 2:
        raise InvalidInputError(f"{path}: need at least one conv layer and a head")
    flat32 = np.frombuffer(b"".join(blobs), dtype="<f4")
    if not np.isfinite(flat32).all():  # before the cast, which warns on a signaling NaN
        raise InvalidInputError(f"{path}: weights contain NaN/Inf")
    try:
        arch = ArchConfig(tuple(k[0] for k, _ in shapes[:-1]), shapes[0][0][2], seed=0)
    except InvalidParameterError as e:
        raise InvalidInputError(f"{path}: {e}") from None
    if shapes != _layer_shapes(arch):
        raise InvalidInputError(f"{path}: layer shapes do not match widths "
                                f"{arch.channel_widths}, kernel size {arch.kernel_size}, 1x1 head")
    return DetectorParams(flat32.astype(np.float64), arch)


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
    batch: int = 1

    def __post_init__(self):
        check_range("reg_sigma_frac", self.reg_sigma_frac, gt=0, le=1)
        check_range("reg_weight", self.reg_weight, ge=0, lt=np.inf)
        check_range("match_threshold", self.match_threshold, gt=0)
        check_range("assign_radius", self.assign_radius, gt=0)
        for name in ("epochs", "batch"):
            check_range(name, getattr(self, name), ge=1)


def _covisible_subset(kps: KeypointSet, mask: np.ndarray) -> KeypointSet:
    px = kps.pixels
    keep = mask[px[:, 1], px[:, 0]]
    return KeypointSet(kps.xy[keep], kps.scores[keep], kps.source_shape)


def _select(sa: np.ndarray, sb: np.ndarray, pair, cfg: TrainConfig):
    """The selection step, not differentiated: sample both maps, keep the
    covisible keypoints, match them (toy or mutual-NN); (ka, kb, mab, mba)."""
    ka = _covisible_subset(sample_keypoints(sa, cfg.sampler, "train"), pair.mask_a)
    kb = _covisible_subset(sample_keypoints(sb, cfg.sampler, "train"), pair.mask_b)
    if pair.kind == "toy":
        return (ka, kb, *toy_matches(ka, kb, pair, cfg.assign_radius, cfg.match_threshold))
    return (ka, kb, *match_mutual_nn(ka, kb, pair.transfer, cfg.match_threshold))


def _pair_loss(sa: np.ndarray, sb: np.ndarray, pair, selection, cfg: TrainConfig):
    """The loss step: (LossReport, dL/dsa, dL/dsb) with the selection held fixed."""
    return total_loss_and_grad(
        sa, sb, pair.mask_a, pair.mask_b, *selection,
        cfg.reward, cfg.reg_sigma_frac * min(sa.shape), cfg.reg_weight,
    )


def _pair_grads(params: DetectorParams, pair, cfg: TrainConfig):
    """One pair's training step: (parameter gradients, LossReport)."""
    sa, ca = forward(params, pair.image_a)
    sb, cb = forward(params, pair.image_b)
    report, ga, gb = _pair_loss(sa, sb, pair, _select(sa, sb, pair, cfg), cfg)
    return _sum_grads([backward(ca, ga), backward(cb, gb)]), report


def _sum_grads(grads: list[DetectorParams]) -> DetectorParams:
    """Sum of parameter gradients, added left to right."""
    return DetectorParams(sum((g.flat for g in grads[1:]), grads[0].flat), grads[0].arch)


def fit(arch: ArchConfig, opt: AdamW, steps, what: str) -> tuple[DetectorParams, list]:
    """The one optimizer loop: train a fresh `arch` detector with `opt`.

    Each element of `steps` is a function params -> (gradients, records);
    returns the parameters and every step's records in order.  Parameters
    that stop being finite as float32 end the run with "<what> diverged at
    step N", and so does an InvalidInputError raised by any step function but
    the first, which runs on fresh parameters.  Errors raised while `steps`
    makes a step function propagate unchanged.
    """
    params = init_params(arch)
    state = OptState.init(params, opt)
    records: list = []
    for step in steps:
        where = f"{what} diverged at step {state.step_count + 1}"
        try:
            grads, step_records = step(params)
        except InvalidInputError as e:
            if state.step_count == 0:
                raise
            raise InvalidInputError(f"{where}: {e}; lower lr") from None
        params, state = optimizer_step(params, grads, state)
        finite_float32(params, where)
        records.extend(step_records)
    return params, records


def _batch_grads(params: DetectorParams, batch, cfg: TrainConfig):
    """One step's (gradients, LossReports): the pairs' `_pair_grads`, added in pair order."""
    results = [_pair_grads(params, pair, cfg) for pair in batch]
    return _sum_grads([g for g, _ in results]), [r for _, r in results]


def train_loop(data, cfg: TrainConfig) -> tuple[DetectorParams, list[LossReport]]:
    """Train a fresh detector over the pair stream; deterministic given cfg.

    Each optimizer step takes the next `cfg.batch` pairs (`_batch_grads`);
    batch == 1 steps once per pair.  A run that diverges ends as `fit` says.
    A pair with an empty covisibility mask is a data fault, not a divergence:
    it raises InvalidInputError naming its index before the first step.
    """
    pairs = list(data)
    for i, pair in enumerate(pairs):
        if not (pair.mask_a.any() and pair.mask_b.any()):
            raise InvalidInputError(f"training pair {i} has no pixel covisible in the other view")
    batches = [pairs[at:at + cfg.batch] for at in range(0, len(pairs), cfg.batch)]
    steps = (partial(_batch_grads, batch=b, cfg=cfg) for _ in range(cfg.epochs) for b in batches)
    return fit(cfg.arch, cfg.opt, steps, "training")
