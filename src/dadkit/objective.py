"""Training objective: reinforced repeatability plus a coverage regularizer.

The detector is rewarded when a keypoint it selected in one image has a
consistent counterpart among the keypoints it selected in the other.  The
selection itself is treated as a fixed, non-differentiable sample source;
the loss differentiates only the log-probabilities of the already-selected
pixels, so all gradients here are exact closed forms over the scoremaps.
Losses are minimized: the reinforcement term is the negated reward-weighted
log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KL_FLOOR, gaussian_blur, kl_divergence, masked_log_softmax, softmax_2d
from .errors import InvalidInputError, check_range
from .geometry import MatchSet
from .sampler import KeypointSet


@dataclass(frozen=True)
class RewardConfig:
    """Reward shape: 1 inside tau_r, 0 outside; optional linear decay."""

    tau_r: float = 1.0
    eps: float = 0.01
    linear_decay: bool = False

    def __post_init__(self):
        check_range("tau_r", self.tau_r, gt=0)
        check_range("eps", self.eps, gt=0)


@dataclass(frozen=True)
class LossReport:
    """Per-step telemetry; total == rl_loss + reg_loss by construction."""

    rl_loss: float
    reg_loss: float
    total: float
    mean_raw_reward: float
    num_matches: int


def raw_reward(distance, cfg: RewardConfig):
    """Rewards of match distances, elementwise: an array in, an array out.

    1 strictly inside tau_r and 0 at and beyond it, or max(0, 1 - d/tau_r)
    under linear decay.  A scalar distance gives a scalar reward.
    """
    d = np.asarray(distance, dtype=np.float64)
    ok = np.isfinite(d) & (d >= 0)
    if not ok.all():
        raise InvalidInputError(f"distance must be finite and >= 0, got {d[~ok].flat[0]}")
    if cfg.linear_decay:
        return np.maximum(0.0, 1.0 - d / cfg.tau_r)
    return (d < cfg.tau_r).astype(np.float64)


def normalize_rewards(rewards, eps: float) -> np.ndarray:
    """Divide by (mean + eps); the pooled mean is shared by both directions."""
    check_range("eps", eps, gt=0)
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        return r
    if np.any(r < 0) or not np.isfinite(r).all():
        raise InvalidInputError("rewards must be finite and nonnegative")
    return r / (float(r.mean()) + eps)


def _directional_loss_and_grad(scoremap, mask, kps: KeypointSet, indices, rhat):
    """-sum_m rhat_m log p(x_m) over keypoints kps[indices[m]], and its gradient.

    Both sums run in match order, as sequential sums, so the result does not
    depend on how numpy groups a reduction; a repeated pixel accumulates.
    """
    logp, p = masked_log_softmax(scoremap, mask)
    h, w = p.shape
    grad = np.zeros_like(p)
    if len(indices) == 0:
        return 0.0, grad
    bad = (indices < 0) | (indices >= len(kps))
    if bad.any():
        raise InvalidInputError(f"match references keypoint {indices[bad][0]} of {len(kps)}")
    x, y = kps.pixels[indices].T  # never negative: KeypointSet keeps xy >= 0
    off = (x >= w) | (y >= h)
    if off.any():
        raise InvalidInputError(f"keypoint pixel ({x[off][0]}, {y[off][0]}) outside grid")
    out = ~np.asarray(mask, dtype=bool)[y, x]
    if out.any():
        raise InvalidInputError(f"matched pixel ({x[out][0]}, {y[out][0]}) is outside the mask")
    # 0.0 - s turns a -0.0 sum of zero-reward terms into 0.0
    loss = 0.0 - np.cumsum(rhat * logp[y, x])[-1]
    np.subtract.at(grad, (y, x), rhat)
    grad += np.cumsum(rhat)[-1] * p
    return float(loss), grad


def rl_loss_and_grad(
    sa, sb, mask_a, mask_b,
    ka: KeypointSet, kb: KeypointSet,
    mab: MatchSet, mba: MatchSet,
    cfg: RewardConfig,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Reinforcement loss over a pair, gradients w.r.t. both scoremaps, raw rewards.

    Raw rewards are pooled over both directions (A->B first), normalized
    once by their mean (+ eps), then the A->B matches drive only grad_a and
    the B->A matches only grad_b: each direction reinforces the side that
    queried.  The pooled raw rewards are returned as the fourth value.
    """
    raw = raw_reward(np.concatenate([mab.dist, mba.dist]), cfg)
    rhat = normalize_rewards(raw, cfg.eps)
    loss_a, grad_a = _directional_loss_and_grad(sa, mask_a, ka, mab.ia, rhat[: len(mab)])
    loss_b, grad_b = _directional_loss_and_grad(sb, mask_b, kb, mba.ib, rhat[len(mab):])
    return loss_a + loss_b, grad_a, grad_b, raw


def reg_loss_and_grad(scoremap, indicator, sigma: float) -> tuple[float, np.ndarray]:
    """KL(blur(indicator distribution) || blur(softmax)) and its exact gradient.

    The chain is: d KL / d blurred = -target/blurred (floored), pulled back
    through the blur (self-adjoint, so the backward blur IS the blur) and
    then through the softmax Jacobian p * (u - <p, u>).
    """
    bits = np.asarray(indicator, dtype=bool)
    if not bits.any():
        raise InvalidInputError("indicator has no true pixels")
    p = softmax_2d(scoremap)
    if bits.shape != p.shape:
        raise InvalidInputError(f"indicator shape {bits.shape} != scoremap shape {p.shape}")
    p_depth = bits / float(bits.sum())
    target = gaussian_blur(p_depth, sigma)
    blurred = gaussian_blur(p, sigma)
    loss = kl_divergence(target, blurred)
    g_blurred = np.where(blurred > KL_FLOOR, -target / np.maximum(blurred, KL_FLOOR), 0.0)
    u = gaussian_blur(g_blurred, sigma)
    grad = p * (u - float((p * u).sum()))
    return loss, grad


def total_loss_and_grad(
    sa, sb, mask_a, mask_b,
    ka: KeypointSet, kb: KeypointSet,
    mab: MatchSet, mba: MatchSet,
    reward_cfg: RewardConfig,
    reg_sigma: float,
    reg_weight: float = 1.0,
) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """Reinforcement + weighted coverage regularizer for both images of a pair."""
    check_range("reg_weight", reg_weight, ge=0, lt=np.inf)
    rl, grad_a, grad_b, raw = rl_loss_and_grad(sa, sb, mask_a, mask_b, ka, kb, mab, mba,
                                               reward_cfg)
    reg = 0.0
    if reg_weight > 0:
        la, ga = reg_loss_and_grad(sa, mask_a, reg_sigma)
        lb, gb = reg_loss_and_grad(sb, mask_b, reg_sigma)
        reg = reg_weight * (la + lb)
        grad_a = grad_a + reg_weight * ga
        grad_b = grad_b + reg_weight * gb
    report = LossReport(
        rl_loss=float(rl),
        reg_loss=float(reg),
        total=float(rl + reg),
        mean_raw_reward=float(raw.mean()) if raw.size else 0.0,
        num_matches=int(raw.size),
    )
    return report, grad_a, grad_b
