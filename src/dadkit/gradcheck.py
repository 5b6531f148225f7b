"""Finite-difference verification of every analytic gradient path.

Each randomized instance is a small detector, a scene pair without ground
truth, a training config and the pair's frozen selection (keypoints and
matches, not differentiated).  Four losses are checked against central
finite differences, from the code that trains: `rl` (no regularizer) and
`full` take the gradient of the training step `model._pair_grads` and
differentiate its loss step `_pair_loss` with the selection held fixed,
`distill` takes the gradient of the student step of `train_distilled`, and
`reg` checks one map's coverage regularizer.  Instances whose rectifier
pre-activations come within ten FD steps of zero are re-drawn, since a kink
between the two FD evaluations would invalidate the comparison, and so are
instances in which some family's analytic gradient is identically zero,
since they test nothing; everything else about the instance is kept random.

Gradients are `DetectorParams`, so the finite differences perturb the flat
parameter vector one entry at a time, in order, and every comparison is one
expression over the whole vector.  The pass rule has two parts.  One is an
elementwise relative error whose small absolute floor hides round-off.  The
other gates each family's normwise margin, max|a - f| / max(|a|, |f|) with
both maxima taken over every parameter of the instance, at MARGIN_GATE: the
floored error passes a gradient that is 1e-4 off, the margin does not.  The
audit also reports the smallest such gradient scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .distill import _student_step, distill_loss_and_grad
from .errors import InvalidParameterError
from .model import (
    ArchConfig,
    DetectorParams,
    TrainConfig,
    _pair_grads,
    _pair_loss,
    _select,
    backward,
    forward,
    init_params,
)
from .objective import RewardConfig, reg_loss_and_grad
from .sampler import KeypointSet, SamplerConfig
from .synth import PairSample, SceneConfig, sample_homography

FAMILIES = ("rl", "reg", "distill", "full")
ABS_FLOOR = 1e-8  # the pass rule's absolute floor: smaller differences are round-off
# the largest normwise margin a pass allows: the worst real one over 400
# instances was 3.7e-8, a first-layer kernel gradient 1e-5 off reads 9e-6
MARGIN_GATE = 1e-6


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
        return (self.max_rel_error < self.tolerance
                and max(self.family_margins.values(), default=0.0) < MARGIN_GATE)


def fd_param_grads(loss_fn, params: DetectorParams, step: float = 1e-4) -> DetectorParams:
    """Central finite differences of loss_fn over every parameter, in vector order."""
    fd = np.zeros_like(params.flat)
    for i, value in enumerate(params.flat):
        losses = []
        for moved in (value + step, value - step):
            flat = params.flat.copy()
            flat[i] = moved
            losses.append(loss_fn(DetectorParams(flat, params.arch)))
        fd[i] = (losses[0] - losses[1]) / (2.0 * step)
    return DetectorParams(fd, params.arch)


def max_rel_error(analytic: DetectorParams, fd: DetectorParams) -> float:
    """Worst relative deviation; differences below ABS_FLOOR count as zero."""
    a, f = analytic.flat, fd.flat
    diff = np.abs(a - f)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-12)
    return float(np.where(diff < ABS_FLOOR, 0.0, diff / denom).max(initial=0.0))


def normwise_margin(analytic: DetectorParams, fd: DetectorParams) -> tuple[float, float]:
    """(max|a-f| / max(|a|,|f|) over the whole gradient, that scale)."""
    a, f = analytic.flat, fd.flat
    diff = float(np.abs(a - f).max(initial=0.0))
    scale = float(np.maximum(np.abs(a), np.abs(f)).max(initial=0.0))
    return (diff / scale if scale > 0 else 0.0), scale


def _min_abs_preact(caches) -> float:
    vals = [np.abs(p).min() for c in caches for p in c.preacts if p.size]
    return min(vals) if vals else np.inf


@dataclass(frozen=True)
class _Instance:
    params: DetectorParams
    pair: PairSample
    selection: tuple
    target: np.ndarray
    cfg: TrainConfig


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
    bounds = SceneConfig(hm_perspective_jitter=5e-4, hm_max_translation=0.08,
                         hm_scale_lo=0.92, hm_scale_hi=1.08, hm_max_rotation_deg=8.0)
    transfer = sample_homography(rng, bounds, (h, w))
    no_gt = KeypointSet(np.zeros((0, 2)), np.zeros(0), (h, w))
    pair = PairSample(image_a, image_b, transfer, no_gt, no_gt, (), (), "scene")
    cfg = TrainConfig(arch, SamplerConfig(k=6), RewardConfig(tau_r=2.0), reg_weight=0.7)
    selection = _select(sa, sb, pair, cfg)
    _, _, mab, mba = selection
    if len(mab) == 0 and len(mba) == 0:  # also when no keypoint is covisible
        return None
    raw = rng.uniform(0.1, 1.0, (h, w))
    return _Instance(params, pair, selection, raw / raw.sum(), cfg)


def _analytic_and_loss_fns(inst: _Instance):
    """(analytic gradient, loss closure) per loss family."""
    pair, image = inst.pair, inst.pair.image_a
    rl_cfg = replace(inst.cfg, reg_weight=0.0)

    def step_loss(cfg):
        return lambda p: _pair_loss(forward(p, image)[0], forward(p, pair.image_b)[0],
                                    pair, inst.selection, cfg)[0].total

    sa, ca = forward(inst.params, image)
    sigma = inst.cfg.reg_sigma_frac * min(sa.shape)
    return {
        "rl": (_pair_grads(inst.params, pair, rl_cfg)[0], step_loss(rl_cfg)),
        "reg": (backward(ca, reg_loss_and_grad(sa, pair.mask_a, sigma)[1]),
                lambda p: reg_loss_and_grad(forward(p, image)[0], pair.mask_a, sigma)[0]),
        "distill": (_student_step(inst.params, image, inst.target)[0],
                    lambda p: distill_loss_and_grad(inst.target, forward(p, image)[0])[0]),
        "full": (_pair_grads(inst.params, pair, inst.cfg)[0], step_loss(inst.cfg)),
    }


def run_gradcheck(instances: int = 50, seed: int = 0, step: float = 1e-4,
                  tolerance: float = 1e-3) -> GradCheckResult:
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
        if any(not analytic.flat.any() for analytic, _ in checks.values()):
            redraws += 1
            continue
        for family, (analytic, loss_fn) in checks.items():
            fd = fd_param_grads(loss_fn, inst.params, step)
            err = max_rel_error(analytic, fd)
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
