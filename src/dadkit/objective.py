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

from .core import Mask, gaussian_blur, kl_divergence, masked_log_softmax, softmax_2d
from .errors import DegenerateMaskError, InvalidInputError, InvalidParameterError
from .geometry import MatchSet
from .sampler import KeypointSet


@dataclass(frozen=True)
class RewardConfig:
    """Reward shape: 1 inside tau_r, 0 outside; optional linear decay."""

    tau_r: float = 1.0
    eps: float = 0.01
    linear_decay: bool = False

    def __post_init__(self):
        if not (self.tau_r > 0):
            raise InvalidParameterError("tau_r must be positive")
        if not (self.eps > 0):
            raise InvalidParameterError("eps must be positive")


@dataclass(frozen=True)
class LossReport:
    """Per-step telemetry; total == rl_loss + reg_loss by construction."""

    step: int
    rl_loss: float
    reg_loss: float
    total: float
    mean_raw_reward: float
    num_matches: int

    CSV_HEADER = "step,rl_loss,reg_loss,total,mean_raw_reward,num_matches"

    def csv_row(self) -> str:
        return (
            f"{self.step},{self.rl_loss:.9g},{self.reg_loss:.9g},"
            f"{self.total:.9g},{self.mean_raw_reward:.9g},{self.num_matches}"
        )


def reward_threshold(distance: float, tau_r: float) -> float:
    """1.0 strictly inside the radius, 0.0 at and beyond it."""
    if distance < 0 or not np.isfinite(distance):
        raise InvalidInputError(f"distance must be finite and >= 0, got {distance}")
    if not (tau_r > 0):
        raise InvalidParameterError("tau_r must be positive")
    return 1.0 if distance < tau_r else 0.0


def raw_reward(distance: float, cfg: RewardConfig) -> float:
    """Reward of one match distance under the configured shape."""
    if cfg.linear_decay:
        if distance < 0 or not np.isfinite(distance):
            raise InvalidInputError(f"distance must be finite and >= 0, got {distance}")
        return max(0.0, 1.0 - distance / cfg.tau_r)
    return reward_threshold(distance, cfg.tau_r)


def normalize_rewards(rewards, eps: float) -> np.ndarray:
    """Divide by (mean + eps); the pooled mean is shared by both directions."""
    if not (eps > 0):
        raise InvalidParameterError("eps must be positive")
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        return r
    if np.any(r < 0) or not np.isfinite(r).all():
        raise InvalidInputError("rewards must be finite and nonnegative")
    return r / (float(r.mean()) + eps)


def _pooled_raw_rewards(mab: MatchSet, mba: MatchSet, cfg: RewardConfig) -> np.ndarray:
    ds = np.concatenate([mab.dist, mba.dist])
    return np.array([raw_reward(d, cfg) for d in ds], dtype=np.float64)


def _directional_loss_and_grad(scoremap, mask, kps: KeypointSet, indices, rhat):
    """-sum_m rhat_m log p(x_m) over keypoints kps[indices[m]], and its gradient."""
    lp = masked_log_softmax(scoremap, mask)
    p = lp.probs()
    h, w = p.shape
    loss = 0.0
    grad = np.zeros_like(p)
    coef = 0.0
    for idx, r in zip(indices.tolist(), rhat):
        if not (0 <= idx < len(kps)):
            raise InvalidInputError(f"match references keypoint {idx} of {len(kps)}")
        x, y = kps.xy[idx].tolist()
        xi, yi = int(round(x)), int(round(y))
        if not (0 <= xi < w and 0 <= yi < h):
            raise InvalidInputError(f"keypoint pixel ({xi}, {yi}) outside grid")
        if not lp.mask.bits[yi, xi]:
            raise InvalidInputError(f"matched pixel ({xi}, {yi}) is outside the mask")
        loss -= r * lp.logprobs[yi, xi]
        grad[yi, xi] -= r
        coef += r
    grad += coef * p
    return loss, grad


def rl_loss_and_grad(
    sa, sb, mask_a, mask_b,
    ka: KeypointSet, kb: KeypointSet,
    mab: MatchSet, mba: MatchSet,
    cfg: RewardConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Reinforcement loss over a pair and gradients w.r.t. both scoremaps.

    Raw rewards are pooled over both directions, normalized once by their
    mean (+ eps), then the A->B matches drive only grad_a and the B->A
    matches only grad_b: each direction reinforces the side that queried.
    """
    return _rl_terms(sa, sb, mask_a, mask_b, ka, kb, mab, mba,
                     _pooled_raw_rewards(mab, mba, cfg), cfg.eps)


def _rl_terms(sa, sb, mask_a, mask_b, ka, kb, mab, mba, raw, eps):
    """rl_loss_and_grad given the pooled raw rewards."""
    rhat = normalize_rewards(raw, eps)
    rhat_ab, rhat_ba = rhat[: len(mab)], rhat[len(mab):]
    loss_a, grad_a = _directional_loss_and_grad(sa, mask_a, ka, mab.ia, rhat_ab)
    loss_b, grad_b = _directional_loss_and_grad(sb, mask_b, kb, mba.ib, rhat_ba)
    return loss_a + loss_b, grad_a, grad_b


def reg_loss_and_grad(
    scoremap, indicator, sigma: float, eps_floor: float = 1e-12
) -> tuple[float, np.ndarray]:
    """KL(blur(indicator distribution) || blur(softmax)) and its exact gradient.

    The chain is: d KL / d blurred = -target/blurred (floored), pulled back
    through the blur (self-adjoint, so the backward blur IS the blur) and
    then through the softmax Jacobian p * (u - <p, u>).
    """
    bits = indicator.bits if isinstance(indicator, Mask) else np.asarray(indicator, dtype=bool)
    if not bits.any():
        raise DegenerateMaskError("indicator has no true pixels")
    p = softmax_2d(scoremap).probs
    if bits.shape != p.shape:
        raise InvalidInputError(f"indicator shape {bits.shape} != scoremap shape {p.shape}")
    p_depth = bits / float(bits.sum())
    target = gaussian_blur(p_depth, sigma)
    blurred = gaussian_blur(p, sigma)
    loss = kl_divergence(target, blurred, eps_floor)
    g_blurred = np.where(blurred > eps_floor, -target / np.maximum(blurred, eps_floor), 0.0)
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
    step: int = 0,
) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """Reinforcement + weighted coverage regularizer for both images of a pair."""
    if reg_weight < 0:
        raise InvalidParameterError("reg_weight must be >= 0")
    raw = _pooled_raw_rewards(mab, mba, reward_cfg)
    rl, grad_a, grad_b = _rl_terms(sa, sb, mask_a, mask_b, ka, kb, mab, mba, raw,
                                   reward_cfg.eps)
    reg = 0.0
    if reg_weight > 0:
        la, ga = reg_loss_and_grad(sa, mask_a, reg_sigma)
        lb, gb = reg_loss_and_grad(sb, mask_b, reg_sigma)
        reg = reg_weight * (la + lb)
        grad_a = grad_a + reg_weight * ga
        grad_b = grad_b + reg_weight * gb
    report = LossReport(
        step=step,
        rl_loss=float(rl),
        reg_loss=float(reg),
        total=float(rl + reg),
        mean_raw_reward=float(raw.mean()) if raw.size else 0.0,
        num_matches=int(raw.size),
    )
    return report, grad_a, grad_b
