"""Learning-rate schedule and AdamW optimizer (decoupled weight decay).

Parameters travel as dicts of name -> float64 array. The update is
elementwise, so one flat vector updates to the same bits as its pieces: the
trainer passes one vector per set and keeps named views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NonFiniteGradientError,
    ShapeMismatchError,
    StepOutOfRangeError,
)


@dataclass(frozen=True)
class ScheduleConfig:
    """Linear warmup to base_lr, then cosine decay to zero at total_steps."""

    total_steps: int
    warmup_steps: int = 500
    base_lr: float = 5e-6

    def __post_init__(self):
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ConfigError(
                f"warmup_steps must lie in [0, total_steps], got {self.warmup_steps} vs {self.total_steps}"
            )
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")


def lr_at(step: int, sched: ScheduleConfig) -> float:
    """Learning rate at an integer step in [0, total_steps].

    Ramps linearly from 0 to base_lr over warmup_steps, then follows
    base_lr * 0.5 * (1 + cos(pi * (step - warmup) / (total - warmup))).
    """
    if not (0 <= step <= sched.total_steps):
        raise StepOutOfRangeError(f"step {step} outside [0, {sched.total_steps}]")
    if step < sched.warmup_steps:
        return sched.base_lr * step / sched.warmup_steps
    if sched.total_steps == sched.warmup_steps:
        return sched.base_lr
    progress = (step - sched.warmup_steps) / (sched.total_steps - sched.warmup_steps)
    return sched.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """AdamW accumulators; moment shapes always match parameter shapes."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def initialize(cls, params: dict[str, np.ndarray], weight_decay: float = 0.0) -> "OptimizerState":
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            weight_decay=weight_decay,
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One in-place AdamW update; returns (params, state) for chaining.

    Weight decay is decoupled: p *= (1 - lr*wd) before the bias-corrected
    moment update, so zero gradients with wd > 0 shrink parameters by
    exactly that factor. Any NaN/Inf gradient aborts before touching state.
    """
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    if set(params) != set(grads):
        raise ShapeMismatchError(f"param/grad keys disagree: {sorted(set(params) ^ set(grads))}")
    for key, g in grads.items():
        if g.shape != params[key].shape:
            raise ShapeMismatchError(f"grad shape {g.shape} != param shape {params[key].shape} for {key!r}")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient in {key!r}")

    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for key, p in params.items():
        g = grads[key]
        if state.weight_decay != 0.0:
            p *= 1.0 - lr * state.weight_decay
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
    return params, state
