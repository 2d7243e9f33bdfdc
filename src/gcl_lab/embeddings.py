"""Vector primitives shared by every other module.

All arithmetic here is double precision; dataset files store float32 and are
widened on load. Embeddings are plain numpy vectors tagged with the modality
they came from, so downstream code can keep image, text, and fused vectors
from getting mixed up silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyListError,
    InvalidTemperatureError,
    ShapeMismatchError,
    ZeroVectorError,
)

# Norms below this are treated as exactly zero; below double-precision signal.
ZERO_NORM_THRESHOLD = 1e-12


class Modality(Enum):
    """The three embedding sources: image, text, and their fusion."""

    IMAGE = "image"
    TEXT = "text"
    FUSED = "fused"

    @property
    def code(self) -> str:
        """Short code used in pair names and report columns: i, t, it."""
        return {"image": "i", "text": "t", "fused": "it"}[self.value]


# Canonical ordering used by similarity grids, gap tables, and reports.
MODALITIES = (Modality.IMAGE, Modality.TEXT, Modality.FUSED)

_CODE_TO_MODALITY = {m.code: m for m in MODALITIES}


def modality_from_code(code: str) -> Modality:
    """Inverse of Modality.code; raises on unknown codes."""
    try:
        return _CODE_TO_MODALITY[code]
    except KeyError:
        raise ValueError(f"unknown modality code {code!r}; expected i, t, or it") from None


@dataclass(frozen=True)
class Embedding:
    """A single d-dimensional vector tagged with its modality."""

    values: np.ndarray
    modality: Modality

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ShapeMismatchError(f"embedding must be a nonempty 1-D vector, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """N embeddings of one modality stacked into an N×d matrix."""

    rows: np.ndarray
    modality: Modality

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ShapeMismatchError(f"embedding matrix must be a nonempty 2-D array, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def row(self, j: int) -> Embedding:
        return Embedding(self.rows[j], self.modality)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm, preserving direction.

    Raises ZeroVectorError when the norm is below the zero threshold.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_THRESHOLD:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm


def normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise l2_normalize for an N×d matrix; also returns the row norms,
    which normalize_rows_backward needs.

    Raises ZeroVectorError when a row's norm is below the zero threshold.
    """
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < ZERO_NORM_THRESHOLD):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e}, cannot normalize")
    return rows / norms[:, None], norms


def normalize_rows_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Chain a gradient through normalize_rows.

    The Jacobian of y -> y/||y|| is (I - u u^T)/||y||, applied row-wise with
    u the normalized row.
    """
    inner = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - unit * inner) / norms[:, None]


def l2_normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise l2_normalize for an N×d matrix."""
    return normalize_rows(rows)[0]


def similarity_matrix(a: EmbeddingMatrix, b: EmbeddingMatrix, tau: float) -> np.ndarray:
    """Pre-exponential logits: entry (j, k) is dot(a_j, b_k) / tau.

    Both matrices must share N and d; tau must be strictly positive.
    """
    if tau <= 0:
        raise InvalidTemperatureError(f"tau must be > 0, got {tau}")
    if a.rows.shape != b.rows.shape:
        raise ShapeMismatchError(f"similarity_matrix needs equal shapes, got {a.rows.shape} vs {b.rows.shape}")
    return (a.rows @ b.rows.T) / tau


def fuse_sum(e_i: Embedding, e_t: Embedding, renormalize: bool = True) -> Embedding:
    """Fuse an image/text pair by vector sum: e_it = e_i + e_t.

    With renormalize (the default) the sum is rescaled to unit norm, which
    keeps cosine diagnostics on one scale; the raw sum preserves score-fusion
    equivalence (dot with a sum equals sum of dots).
    """
    if e_i.dim != e_t.dim:
        raise ShapeMismatchError(f"fuse_sum dims disagree: {e_i.dim} vs {e_t.dim}")
    summed = e_i.values + e_t.values
    if renormalize:
        summed = l2_normalize(summed)
    return Embedding(summed, Modality.FUSED)


def fuse_sum_rows(image_rows: np.ndarray, text_rows: np.ndarray, renormalize: bool = True) -> np.ndarray:
    """Row-wise fuse_sum for matched N×d matrices."""
    if image_rows.shape != text_rows.shape:
        raise ShapeMismatchError(
            f"fuse_sum_rows needs equal shapes, got {image_rows.shape} vs {text_rows.shape}"
        )
    summed = np.asarray(image_rows, dtype=np.float64) + np.asarray(text_rows, dtype=np.float64)
    if renormalize:
        summed = normalize_rows(summed)[0]
    return summed


def average_embeddings(es: Sequence[Embedding] | Iterable[Embedding], renormalize: bool = True) -> Embedding:
    """Arithmetic mean of embeddings sharing one modality and dimension."""
    es = list(es)
    if not es:
        raise EmptyListError("average_embeddings needs at least one embedding")
    modality = es[0].modality
    dim = es[0].dim
    for e in es[1:]:
        if e.modality is not modality:
            raise ShapeMismatchError(f"mixed modalities in average: {modality} vs {e.modality}")
        if e.dim != dim:
            raise ShapeMismatchError(f"mixed dims in average: {dim} vs {e.dim}")
    mean = np.mean([e.values for e in es], axis=0)
    if renormalize:
        mean = l2_normalize(mean)
    return Embedding(mean, modality)


def cosine(a: Embedding, b: Embedding) -> float:
    """Dot product of two unit-norm embeddings, clamped to [-1, 1]."""
    if a.dim != b.dim:
        raise ShapeMismatchError(f"cosine dims disagree: {a.dim} vs {b.dim}")
    return float(np.clip(np.dot(a.values, b.values), -1.0, 1.0))
