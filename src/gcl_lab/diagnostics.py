"""Embedding-space diagnostics: modality-gap statistics and a 2-D PCA view.

The gap table reports, per modality, the renormalized mean embedding (the
mean direction on the sphere) and the pairwise cosines between those mean
directions — low off-diagonal cosine is the numeric signature of a modality
gap. The PCA projection gives a 2-D picture of the same geometry from the
symmetric eigendecomposition of the d x d covariance, with a fixed sign
convention so the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .embeddings import MODALITIES, Modality, l2_normalize
from .errors import (
    BatchTooSmallError,
    DegenerateDataError,
    InvalidDimsError,
    MissingModalityError,
    ShapeMismatchError,
)

_VARIANCE_FLOOR = 1e-12


def _blocks(samples: Mapping[Modality, np.ndarray]) -> dict[Modality, np.ndarray]:
    """Sample rows per modality in canonical order, as C-ordered float64 so a mean adds rows in sequence."""
    blocks = {m: np.ascontiguousarray(samples[m], dtype=np.float64) for m in MODALITIES if m in samples}
    for modality, block in blocks.items():
        if block.ndim != 2:
            raise ShapeMismatchError(f"samples for {modality.value} must be 2-D, got ndim={block.ndim}")
    dims = sorted({block.shape[1] for block in blocks.values()})
    if len(dims) > 1:
        raise ShapeMismatchError(f"sample rows must share one dimension, got {dims}")
    return blocks


@dataclass(frozen=True)
class GapReport:
    """Per-modality mean directions and their pairwise cosines.

    mean_directions holds the renormalized means (unit vectors); raw_means
    keeps the unnormalized means, whose norms measure how concentrated each
    modality is. pairwise_cosine is a 3x3 symmetric matrix in canonical
    modality order (image, text, fused) with a unit diagonal.
    """

    mean_directions: dict[Modality, np.ndarray]
    raw_means: dict[Modality, np.ndarray]
    pairwise_cosine: np.ndarray
    sample_counts: dict[Modality, int]

    def min_cross_modality_cosine(self) -> float:
        """Smallest cosine between any two distinct mean directions."""
        off = ~np.eye(3, dtype=bool)
        return float(self.pairwise_cosine[off].min())

    def to_json_dict(self) -> dict:
        return {
            "modalities": [m.value for m in MODALITIES],
            "mean_directions": {m.value: self.mean_directions[m].tolist() for m in MODALITIES},
            "raw_means": {m.value: self.raw_means[m].tolist() for m in MODALITIES},
            "raw_mean_norms": {
                m.value: float(np.linalg.norm(self.raw_means[m])) for m in MODALITIES
            },
            "pairwise_cosine": self.pairwise_cosine.tolist(),
            "sample_counts": {m.value: self.sample_counts[m] for m in MODALITIES},
            "min_cross_modality_cosine": self.min_cross_modality_cosine(),
        }


def modality_gap_table(samples: Mapping[Modality, np.ndarray]) -> GapReport:
    """Summarize the gap between modality clusters on the unit sphere."""
    blocks = _blocks(samples)
    for modality in MODALITIES:
        if len(blocks.get(modality, ())) == 0:
            raise MissingModalityError(f"no samples for modality '{modality.value}'")
    raw_means = {m: blocks[m].mean(axis=0) for m in MODALITIES}
    counts = {m: len(blocks[m]) for m in MODALITIES}
    directions = {m: l2_normalize(raw_means[m]) for m in MODALITIES}
    stacked = np.stack([directions[m] for m in MODALITIES])
    cosine = np.clip(stacked @ stacked.T, -1.0, 1.0)
    np.fill_diagonal(cosine, 1.0)
    cosine = (cosine + cosine.T) / 2.0
    return GapReport(
        mean_directions=directions,
        raw_means=raw_means,
        pairwise_cosine=cosine,
        sample_counts=counts,
    )


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Canonical orientation: the largest-magnitude coordinate is positive."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


@dataclass(frozen=True)
class PcaProjection:
    """Two principal directions and the projected (centered) coordinates."""

    components: np.ndarray  # (2, d), orthonormal rows
    projected: np.ndarray  # (n, 2) coordinates of the mean-centered samples
    modalities: list[Modality]
    explained_variance_ratio: np.ndarray  # (2,), non-increasing, sums to <= 1

    def to_csv(self) -> str:
        """One row per sample: x, y, modality."""
        rows = zip(self.projected.tolist(), self.modalities)
        return "x,y,modality\n" + "".join([f"{x:.12g},{y:.12g},{m.value}\n" for (x, y), m in rows])


def pca_2d(samples: Mapping[Modality, np.ndarray]) -> PcaProjection:
    """Project samples onto their top two principal directions.

    The directions are the top two eigenvectors of the covariance of the
    mean-centered samples. Components follow the largest-coordinate-positive
    sign convention, so the output is deterministic for a given sample set.
    """
    blocks = _blocks(samples)
    n = sum(len(block) for block in blocks.values())
    if n < 3:
        raise BatchTooSmallError(f"need at least 3 samples for a 2-D projection, got {n}")
    matrix = np.concatenate(list(blocks.values()))
    d = matrix.shape[1]
    if d < 2:
        raise InvalidDimsError(f"need embedding dimension >= 2, got {d}")
    centered = matrix - matrix.mean(axis=0)
    cov = (centered.T @ centered) / n
    total_variance = float(np.trace(cov))
    if total_variance < _VARIANCE_FLOOR:
        raise DegenerateDataError(f"total variance {total_variance:.3e} is numerically zero")

    eigvals, eigvecs = np.linalg.eigh(cov)
    top = [-1, -2]  # eigh sorts eigenvalues ascending
    components = np.stack([_fix_sign(v) for v in eigvecs[:, top].T])
    ratio = np.maximum(eigvals[top], 0.0) / total_variance
    return PcaProjection(
        components=components,
        projected=centered @ components.T,
        modalities=[m for m, block in blocks.items() for _ in range(len(block))],
        explained_variance_ratio=ratio,
    )
