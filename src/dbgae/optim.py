"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import TrainingError

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        return state


def adam_step(
    params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState
) -> AdamState:
    """One in-place Adam update; raises TrainingError on non-finite gradients."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise TrainingError(f"gradient shape {g.shape} != parameter '{name}' {p.value.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}' at step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return state
