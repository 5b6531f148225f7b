"""Finite-difference verification of every analytic gradient path.

Each randomized instance builds a small detector and image pair, freezes
the sampled keypoints and matches (selection is not differentiated), and
compares backward() against central finite differences for four losses:
the reinforcement term, the coverage regularizer, the distillation KL, and
the full training objective.  Instances whose rectifier pre-activations
come within ten FD steps of zero are re-drawn, since a kink between the
two FD evaluations would invalidate the comparison, and so are instances in
which some family's analytic gradient is identically zero, since they test
nothing; everything else about the instance is kept random.

The pass rule uses an elementwise relative error whose small absolute floor
hides round-off.  Alongside it the audit reports each family's normwise
margin, max|a - f| / max(|a|, |f|) with both maxima taken over every kernel
and bias entry of the instance, which shows how far inside the tolerance
the gradients really are, and the smallest such gradient scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Mask, ProbMap
from .distill import distill_loss_and_grad
from .errors import InvalidParameterError
from .geometry import covisibility_mask, match_mutual_nn
from .model import (
    ArchConfig,
    ConvLayer,
    DetectorParams,
    _covisible_subset,
    _sum_grads,
    backward,
    forward,
    init_params,
)
from .objective import RewardConfig, reg_loss_and_grad, rl_loss_and_grad, total_loss_and_grad
from .sampler import SamplerConfig, sample_keypoints
from .synth import HomographyMagnitude, sample_homography

FAMILIES = ("rl", "reg", "distill", "full")


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    family_errors: dict[str, float]
    instances: int
    tolerance: float
    family_margins: dict[str, float] = field(default_factory=dict)
    min_grad_scale: float = np.inf
    zero_grad_redraws: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _with_param(params: DetectorParams, li: int, field: str, idx: int,
                value: float) -> DetectorParams:
    layers = list(params.layers)
    arr = getattr(layers[li], field).copy()
    arr.ravel()[idx] = value
    if field == "kernel":
        layers[li] = ConvLayer(arr, layers[li].bias)
    else:
        layers[li] = ConvLayer(layers[li].kernel, arr)
    return DetectorParams(tuple(layers), params.arch)


def fd_param_grads(loss_fn, params: DetectorParams, step: float = 1e-4):
    """Central finite differences of loss_fn over every kernel and bias entry."""
    grads = []
    for li, layer in enumerate(params.layers):
        out = {}
        for field in ("kernel", "bias"):
            base = getattr(layer, field)
            g = np.zeros_like(base)
            flat = g.ravel()
            vals = base.ravel()
            for idx in range(base.size):
                lp = loss_fn(_with_param(params, li, field, idx, vals[idx] + step))
                lm = loss_fn(_with_param(params, li, field, idx, vals[idx] - step))
                flat[idx] = (lp - lm) / (2.0 * step)
            out[field] = g
        grads.append(ConvLayer(out["kernel"], out["bias"]))
    return tuple(grads)


def max_rel_error(analytic, fd, abs_floor: float = 1e-8) -> float:
    """Worst relative deviation; differences below abs_floor count as zero."""
    worst = 0.0
    for a, f in zip(analytic, fd):
        for aa, ff in ((a.kernel, f.kernel), (a.bias, f.bias)):
            diff = np.abs(aa - ff)
            denom = np.maximum(np.maximum(np.abs(aa), np.abs(ff)), 1e-12)
            rel = np.where(diff < abs_floor, 0.0, diff / denom)
            if rel.size:
                worst = max(worst, float(rel.max()))
    return worst


def normwise_margin(analytic, fd) -> tuple[float, float]:
    """(max|a-f| / max(|a|,|f|) over the whole gradient, that scale)."""
    diff = scale = 0.0
    for a, f in zip(analytic, fd):
        for aa, ff in ((a.kernel, f.kernel), (a.bias, f.bias)):
            diff = max(diff, float(np.abs(aa - ff).max()))
            scale = max(scale, float(np.abs(aa).max()), float(np.abs(ff).max()))
    return (diff / scale if scale > 0 else 0.0), scale


def _all_zero(grads) -> bool:
    return not any(g.kernel.any() or g.bias.any() for g in grads)


def _min_abs_preact(caches) -> float:
    vals = [np.abs(p).min() for c in caches for p in c.preacts if p.size]
    return min(vals) if vals else np.inf


@dataclass(frozen=True)
class _Instance:
    params: DetectorParams
    image_a: np.ndarray
    image_b: np.ndarray
    mask_a: Mask
    mask_b: Mask
    ka: object
    kb: object
    mab: object
    mba: object
    target: ProbMap
    reward: RewardConfig
    reg_sigma: float


def _build_instance(rng: np.random.Generator, step: float) -> _Instance | None:
    h = int(rng.integers(12, 17))
    w = int(rng.integers(12, 17))
    blocks = int(rng.integers(1, 3))
    widths = tuple(int(rng.integers(3, 6)) for _ in range(blocks))
    arch = ArchConfig(widths, 3, seed=int(rng.integers(2**31)))
    params = init_params(arch)
    image_a = rng.uniform(0.0, 1.0, (h, w))
    image_b = rng.uniform(0.0, 1.0, (h, w))
    sa, ca = forward(params, image_a)
    sb, cb = forward(params, image_b)
    if _min_abs_preact((ca, cb)) <= 10.0 * step:
        return None
    magnitude = HomographyMagnitude(5e-4, 0.08, (0.92, 1.08), 8.0)
    transfer = sample_homography(rng, magnitude, (h, w))
    mask_a = covisibility_mask(transfer, (h, w), (h, w))
    mask_b = covisibility_mask(transfer.inverse(), (h, w), (h, w))
    sampler = SamplerConfig(k=6)
    ka = _covisible_subset(sample_keypoints(sa, sampler, "train"), mask_a)
    kb = _covisible_subset(sample_keypoints(sb, sampler, "train"), mask_b)
    if len(ka) == 0 or len(kb) == 0:
        return None
    mab, mba = match_mutual_nn(ka, kb, transfer, np.inf)
    if len(mab) == 0 and len(mba) == 0:
        return None
    raw = rng.uniform(0.1, 1.0, (h, w))
    target = ProbMap(raw / raw.sum())
    return _Instance(
        params, image_a, image_b, mask_a, mask_b, ka, kb, mab, mba, target,
        RewardConfig(tau_r=2.0), reg_sigma=0.02 * min(h, w),
    )


def _analytic_and_loss_fns(inst: _Instance):
    """(analytic gradient tuple, loss closure) per loss family."""

    def fwd(params):
        sa, ca = forward(params, inst.image_a)
        sb, cb = forward(params, inst.image_b)
        return sa, sb, ca, cb

    sa, sb, ca, cb = fwd(inst.params)
    out = {}

    _, ga, gb, _ = rl_loss_and_grad(sa, sb, inst.mask_a, inst.mask_b, inst.ka, inst.kb,
                                    inst.mab, inst.mba, inst.reward)
    out["rl"] = (
        _sum_grads([backward(ca, ga), backward(cb, gb)]),
        lambda p: rl_loss_and_grad(*fwd(p)[:2], inst.mask_a, inst.mask_b, inst.ka,
                                   inst.kb, inst.mab, inst.mba, inst.reward)[0],
    )

    _, gr = reg_loss_and_grad(sa, inst.mask_a, inst.reg_sigma)
    out["reg"] = (
        backward(ca, gr),
        lambda p: reg_loss_and_grad(forward(p, inst.image_a)[0], inst.mask_a,
                                    inst.reg_sigma)[0],
    )

    _, gd = distill_loss_and_grad(inst.target, sa)
    out["distill"] = (
        backward(ca, gd),
        lambda p: distill_loss_and_grad(inst.target, forward(p, inst.image_a)[0])[0],
    )

    def full_loss(p):
        psa, psb, _, _ = fwd(p)
        report, _, _ = total_loss_and_grad(
            psa, psb, inst.mask_a, inst.mask_b, inst.ka, inst.kb, inst.mab, inst.mba,
            inst.reward, inst.reg_sigma, reg_weight=0.7,
        )
        return report.total

    _, gfa, gfb = total_loss_and_grad(
        sa, sb, inst.mask_a, inst.mask_b, inst.ka, inst.kb, inst.mab, inst.mba,
        inst.reward, inst.reg_sigma, reg_weight=0.7,
    )
    out["full"] = (_sum_grads([backward(ca, gfa), backward(cb, gfb)]), full_loss)
    return out


def run_gradcheck(instances: int = 50, seed: int = 0, step: float = 1e-4,
                  tolerance: float = 1e-3, abs_floor: float = 1e-8) -> GradCheckResult:
    """Run the randomized suite; deterministic given the seed."""
    if instances < 1 or step <= 0 or tolerance <= 0:
        raise InvalidParameterError("bad gradcheck parameters")
    family_errors = {f: 0.0 for f in FAMILIES}
    family_margins = {f: 0.0 for f in FAMILIES}
    min_scale = np.inf
    redraws = 0
    done = 0
    attempt = 0
    while done < instances:
        attempt += 1
        if attempt > 100 * instances:
            raise InvalidParameterError("could not build enough gradcheck instances")
        inst = _build_instance(np.random.default_rng([seed, attempt]), step)
        if inst is None:
            continue
        checks = _analytic_and_loss_fns(inst)
        if any(_all_zero(analytic) for analytic, _ in checks.values()):
            redraws += 1
            continue
        for family, (analytic, loss_fn) in checks.items():
            fd = fd_param_grads(loss_fn, inst.params, step)
            err = max_rel_error(analytic, fd, abs_floor)
            family_errors[family] = max(family_errors[family], err)
            margin, scale = normwise_margin(analytic, fd)
            family_margins[family] = max(family_margins[family], margin)
            min_scale = min(min_scale, scale)
        done += 1
    return GradCheckResult(
        max_rel_error=max(family_errors.values()),
        family_errors=family_errors,
        instances=instances,
        tolerance=tolerance,
        family_margins=family_margins,
        min_grad_scale=min_scale,
        zero_grad_redraws=redraws,
    )
