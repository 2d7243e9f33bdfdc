"""Toy feature encoders: linear or one-hidden-layer maps to unit-norm embeddings.

These stand in for full image/text towers at desk scale. Each encoder owns a
flat dict of named float64 parameters, a forward pass that caches what the
manual backward pass needs, and a backward pass producing gradients in the
same dict layout the optimizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .embeddings import normalize_rows, normalize_rows_backward


@dataclass(frozen=True)
class EncoderConfig:
    """Geometry of a toy encoder; hidden=None selects the pure linear map."""

    d_in: int = 32
    d_out: int = 16
    hidden: int | None = None

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ConfigError(f"d_in and d_out must be >= 1, got {self.d_in}, {self.d_out}")
        if self.hidden is not None and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1 when set, got {self.hidden}")


class LinearEncoder:
    """x -> normalize(W x + b)."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def initialize(cls, cfg: EncoderConfig, rng: np.random.Generator) -> "LinearEncoder":
        params = {
            "W": rng.standard_normal((cfg.d_out, cfg.d_in)) / np.sqrt(cfg.d_in),
            "b": np.zeros(cfg.d_out),
        }
        return cls(cfg, params)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        if x.ndim != 2 or x.shape[1] != self.cfg.d_in:
            raise ShapeMismatchError(f"expected (N, {self.cfg.d_in}) inputs, got {x.shape}")
        y = x @ self.params["W"].T + self.params["b"]
        e, norms = normalize_rows(y)
        return e, {"x": x, "e": e, "norms": norms}

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: dict, grad_e: np.ndarray) -> dict[str, np.ndarray]:
        grad_y = normalize_rows_backward(grad_e, cache["e"], cache["norms"])
        return {"W": grad_y.T @ cache["x"], "b": grad_y.sum(axis=0)}


class MlpEncoder:
    """x -> normalize(W2 tanh(W1 x + b1) + b2); one smooth hidden layer."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]):
        if cfg.hidden is None:
            raise ConfigError("MlpEncoder needs cfg.hidden set")
        self.cfg = cfg
        self.params = params

    @classmethod
    def initialize(cls, cfg: EncoderConfig, rng: np.random.Generator) -> "MlpEncoder":
        params = {
            "W1": rng.standard_normal((cfg.hidden, cfg.d_in)) / np.sqrt(cfg.d_in),
            "b1": np.zeros(cfg.hidden),
            "W2": rng.standard_normal((cfg.d_out, cfg.hidden)) / np.sqrt(cfg.hidden),
            "b2": np.zeros(cfg.d_out),
        }
        return cls(cfg, params)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        if x.ndim != 2 or x.shape[1] != self.cfg.d_in:
            raise ShapeMismatchError(f"expected (N, {self.cfg.d_in}) inputs, got {x.shape}")
        h = np.tanh(x @ self.params["W1"].T + self.params["b1"])
        y = h @ self.params["W2"].T + self.params["b2"]
        e, norms = normalize_rows(y)
        return e, {"x": x, "h": h, "e": e, "norms": norms}

    def encode(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: dict, grad_e: np.ndarray) -> dict[str, np.ndarray]:
        grad_y = normalize_rows_backward(grad_e, cache["e"], cache["norms"])
        h = cache["h"]
        grad_h = grad_y @ self.params["W2"]
        grad_pre = grad_h * (1.0 - h * h)
        return {
            "W1": grad_pre.T @ cache["x"],
            "b1": grad_pre.sum(axis=0),
            "W2": grad_y.T @ h,
            "b2": grad_y.sum(axis=0),
        }


def build_encoder(cfg: EncoderConfig, rng: np.random.Generator):
    """Construct and randomly initialize the encoder cfg describes."""
    if cfg.hidden is None:
        return LinearEncoder.initialize(cfg, rng)
    return MlpEncoder.initialize(cfg, rng)
