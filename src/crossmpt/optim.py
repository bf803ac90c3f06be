"""Adam with bias correction, cosine learning-rate decay, and global-norm
gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["CLIP_NORM", "AdamState", "adam_step", "cosine_lr", "clip_global_norm"]

CLIP_NORM = 1.0  # global gradient-norm clip of every training step
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator offset


@dataclass
class AdamState:
    """First/second moment estimates per parameter name plus the step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @staticmethod
    def for_params(params: dict[str, Tensor]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            t=0,
        )


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update in place; every parameter must carry a gradient."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name in sorted(params):
        p = params[name]
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def cosine_lr(step: int, total: int, lr0: float, lr_min: float) -> float:
    """Cosine interpolation from lr0 at step 0 down to lr_min at step `total`."""
    if total <= 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside 0..{total}")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total))


def clip_global_norm(params: dict[str, Tensor]) -> float:
    """Rescale all gradients so their joint L2 norm is at most CLIP_NORM.

    Returns the pre-clip norm. Iteration order is fixed (sorted names) so the
    reduction is deterministic.
    """
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > CLIP_NORM:
        factor = CLIP_NORM / norm
        for name in sorted(params):
            params[name].grad = params[name].grad * factor
    return norm
