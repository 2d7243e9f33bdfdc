"""Naive reference implementations used as oracles by the test suite.

Everything here is written as literal nested loops over scalars, trading
speed for obviousness, so the vectorized package code can be checked against
an independently derived value.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

FULL_PAIRS = (("i", "t"), ("t", "i"), ("i", "it"), ("t", "it"), ("it", "i"), ("it", "t"))
CL_PAIRS = (("i", "t"), ("t", "i"))


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random rows on the unit sphere, for building test fixtures."""
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def oracle_cl(images: np.ndarray, texts: np.ndarray, tau: float) -> tuple[float, dict[str, float]]:
    """Two-direction contrastive loss with row-wise cross-modal denominators."""
    n = images.shape[0]
    mats = {"i": images, "t": texts}
    total = 0.0
    per_term = {}
    for a, b in CL_PAIRS:
        term = 0.0
        for j in range(n):
            num = math.exp(float(np.dot(mats[a][j], mats[b][j])) / tau)
            den = 0.0
            for k in range(n):
                den += math.exp(float(np.dot(mats[a][j], mats[b][k])) / tau)
            term += -math.log(num / den)
        per_term[f"{a}2{b}"] = term / n
        total += term
    return total / (2 * n), per_term


def oracle_gcl(
    images: np.ndarray,
    texts: np.ndarray,
    fused: np.ndarray,
    pairs=FULL_PAIRS,
    tau: float = 0.07,
    masked: bool = True,
    normalization: float | None = None,
) -> tuple[float, dict[str, float]]:
    """Generalized loss by full enumeration over (pair, anchor, modality, index).

    masked=True: denominator = own numerator + every off-diagonal entry of the
    query modality's three blocks. masked=False: unmasked row sum over all
    modalities and candidates.
    """
    n = images.shape[0]
    mats = {"i": images, "t": texts, "it": fused}
    total = 0.0
    per_term = {}
    for a, b in pairs:
        term = 0.0
        if masked:
            # the shared pool: every off-diagonal entry of the query modality's blocks
            pool = 0.0
            for m in ("i", "t", "it"):
                for r in range(n):
                    for k in range(n):
                        if r != k:
                            pool += math.exp(float(np.dot(mats[a][r], mats[m][k])) / tau)
        for j in range(n):
            num = math.exp(float(np.dot(mats[a][j], mats[b][j])) / tau)
            if masked:
                den = num + pool
            else:
                den = 0.0
                for m in ("i", "t", "it"):
                    for k in range(n):
                        den += math.exp(float(np.dot(mats[a][j], mats[m][k])) / tau)
            term += -math.log(num / den)
        per_term[f"{a}2{b}"] = term / n
        total += term
    if normalization is None:
        normalization = len(pairs) * n
    return total / normalization, per_term


def oracle_separation_terms(images: np.ndarray, texts: np.ndarray, tau: float) -> dict[str, float]:
    """sep_i and sep_t, each summed over anchors and divided by N: the
    cross-modal positive against the anchor's same-modality row (k != j)."""
    n = images.shape[0]
    mats = {"i": images, "t": texts}
    per_term = {}
    for a, b in (("i", "t"), ("t", "i")):
        sep = 0.0
        for j in range(n):
            num = math.exp(float(np.dot(mats[a][j], mats[b][j])) / tau)
            den = num
            for k in range(n):
                if k != j:
                    den += math.exp(float(np.dot(mats[a][j], mats[a][k])) / tau)
            sep += -math.log(num / den)
        per_term[f"sep_{a}"] = sep / n
    return per_term


def oracle_imsep(images: np.ndarray, texts: np.ndarray, tau: float) -> float:
    """Standard loss plus cross-modal-positive vs same-modality-negative terms."""
    cl_value, _ = oracle_cl(images, texts, tau)
    sep = oracle_separation_terms(images, texts, tau)
    return cl_value + (sep["sep_i"] + sep["sep_t"]) / 2


def oracle_gcld_records(
    n_pairs: int,
    k: int,
    d_in: int,
    sigma: float,
    seed: int,
    duplication: int = 1,
    projection_seed: int | None = None,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Synthetic records drawn one concept and one pair at a time.

    Draw order: A_img, A_txt (from the projection seed's own stream when it
    differs from the sample seed), one unit latent per concept, then image
    and text noise per pair in pair order.
    """
    sigma = float(np.float32(sigma))
    rng = np.random.default_rng(seed)
    world = rng if projection_seed in (None, seed) else np.random.default_rng(projection_seed)
    a_img = np.linalg.qr(world.standard_normal((d_in, k)))[0]
    a_txt = np.linalg.qr(world.standard_normal((d_in, k)))[0]
    latents = []
    for _ in range(n_pairs // duplication):
        z = rng.standard_normal(k)
        latents.append(z / np.linalg.norm(z))
    records = []
    for p in range(n_pairs):
        z = latents[p // duplication]
        x_img = a_img @ z + sigma * rng.standard_normal(d_in)
        x_txt = a_txt @ z + sigma * rng.standard_normal(d_in)
        records.append((p // duplication, x_img.astype(np.float32), x_txt.astype(np.float32)))
    return records


def oracle_write_gcld(records, d_in: int, k: int, sigma: float, seed: int, path: str | Path) -> None:
    """GCLD version 1 written field by field with struct (no sidecar)."""
    record = struct.Struct(f"<I{d_in}f{d_in}f")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHIIIfQ", b"GCLD", 1, d_in, len(records), k, sigma, seed))
        for concept_id, x_img, x_txt in records:
            fh.write(record.pack(concept_id, *x_img.tolist(), *x_txt.tolist()))
