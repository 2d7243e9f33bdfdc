"""Vector primitives shared by every other module.

All arithmetic here is double precision; dataset files store float32 and are
widened on load. Embeddings are N×d numpy matrices tagged with the modality
they came from, so downstream code can keep image, text, and fused rows from
getting mixed up silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeMismatchError, ZeroVectorError

# Norms below this are treated as exactly zero; below double-precision signal.
ZERO_NORM_THRESHOLD = 1e-12


class Modality(Enum):
    """The three embedding sources: image, text, and their fusion."""

    IMAGE = "image"
    TEXT = "text"
    FUSED = "fused"
    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs in Python on every dict lookup

    @property
    def code(self) -> str:
        """Short code used in pair names and report columns: i, t, it."""
        return {"image": "i", "text": "t", "fused": "it"}[self.value]


# Canonical ordering used by similarity grids, gap tables, and reports.
MODALITIES = (Modality.IMAGE, Modality.TEXT, Modality.FUSED)


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
    norms = np.sqrt((rows * rows).sum(axis=1))  # np.linalg.norm's own reduction, without its dispatch
    if (norms < ZERO_NORM_THRESHOLD).any():
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e}, cannot normalize")
    return rows / norms[:, None], norms


def normalize_rows_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Chain a gradient through normalize_rows.

    The Jacobian of y -> y/||y|| is (I - u u^T)/||y||, applied row-wise with
    u the normalized row.
    """
    inner = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - unit * inner) / norms[:, None]


def fuse_sum_rows(image_rows: np.ndarray, text_rows: np.ndarray, renormalize: bool = True) -> np.ndarray:
    """Fuse matched N×d image/text rows by vector sum: e_it = e_i + e_t.

    With renormalize (the default) each sum is rescaled to unit norm, which
    keeps cosine diagnostics on one scale; the raw sum preserves score-fusion
    equivalence (dot with a sum equals sum of dots).
    """
    if image_rows.shape != text_rows.shape:
        raise ShapeMismatchError(
            f"fuse_sum_rows needs equal shapes, got {image_rows.shape} vs {text_rows.shape}"
        )
    summed = np.asarray(image_rows, dtype=np.float64) + np.asarray(text_rows, dtype=np.float64)
    if renormalize:
        summed = normalize_rows(summed)[0]
    return summed
