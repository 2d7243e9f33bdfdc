"""Contrastive losses over image/text/fused embedding triplets.

Every loss is a list of terms evaluated by one kernel. A term names a query
modality a, a positive modality b, candidate modalities and a kind of
negatives. Anchor j of modality a has the positive logit
s_ab[j, j] = dot(e_a^j, e_b^j) / tau, and its denominator is one of:

- ``row``: a softmax over row j of the candidate blocks, positive included.
- ``row_offdiag``: the positive plus the off-diagonal entries of row j of
  the candidate blocks.
- ``pooled_offdiag``: the positive plus every off-diagonal entry of the
  candidate blocks, pooled over all rows. All diagonal entries are
  positives of some anchor, so they are masked out of the shared pool.

The variants are these term lists:

- ``cl_loss``: i2t and t2i, each ``row`` over the opposite modality.
- ``gcl_loss``: one term per configured pair (a, b), with all three
  modalities as candidates. The ``algorithm_masked`` denominator (default)
  is ``pooled_offdiag``; ``equation_literal`` is ``row``, the unmasked row
  sum a textbook softmax would read.
- ``gcl_loss_ablation``: ``gcl_loss`` without one named pair group.
- ``intra_modality_separation_loss``: cl_loss's terms plus sep_i and sep_t,
  whose positive is cross-modal and whose negatives are the
  ``row_offdiag`` entries of the anchor's own modality.
- ``two_direction_loss``: cl_loss's shape for any two modalities; the mixed
  training objective's fused->image and text->fused tasks.

Every loss returns its value, the per-term breakdown, and analytic gradients
with respect to all three embedding matrices and the temperature. The fused
matrix is treated as an independent input; the trainer composes the fusion
Jacobian separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from typing import Callable

import numpy as np

from .embeddings import MODALITIES, EmbeddingMatrix, Modality, modality_from_code
from .errors import (
    BatchTooSmallError,
    ConfigError,
    EmptyPairSetError,
    InvalidTemperatureError,
    ShapeMismatchError,
)

Pair = tuple[Modality, Modality]

_I, _T, _IT = Modality.IMAGE, Modality.TEXT, Modality.FUSED

# Canonical order: cross-modal directions first, then fused-candidate, then
# fused-query. Subsets keep this order for stable per_term keys.
FULL_PAIR_SET: tuple[Pair, ...] = (
    (_I, _T),
    (_T, _I),
    (_I, _IT),
    (_T, _IT),
    (_IT, _I),
    (_IT, _T),
)

CL_PAIR_SET: tuple[Pair, ...] = ((_I, _T), (_T, _I))

# Pairs removed by each named ablation.
ABLATION_DROPS: dict[str, tuple[Pair, ...]] = {
    "cross_modal": ((_I, _T), (_T, _I)),
    "it_candidate": ((_I, _IT), (_T, _IT)),
    "it_query": ((_IT, _I), (_IT, _T)),
}


def pair_name(pair: Pair) -> str:
    """Readable pair key, e.g. (Image, Fused) -> 'i2it'."""
    return f"{pair[0].code}2{pair[1].code}"


def parse_pair(name: str) -> Pair:
    """Inverse of pair_name; raises ConfigError on malformed names."""
    parts = name.split("2")
    if len(parts) != 2:
        raise ConfigError(f"pair name must look like 'i2t', got {name!r}")
    try:
        pair = (modality_from_code(parts[0]), modality_from_code(parts[1]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if pair not in FULL_PAIR_SET:
        raise ConfigError(f"pair {name!r} is not one of the six query/candidate pairs")
    return pair


class DenominatorMode(Enum):
    ALGORITHM_MASKED = "algorithm_masked"
    EQUATION_LITERAL = "equation_literal"


@dataclass(frozen=True)
class LossConfig:
    """Temperature, pair set, denominator convention, and normalization.

    normalization defaults to |pair_set| * N, resolved per batch; pass an
    explicit positive value to override.
    """

    tau: float = 0.07
    pair_set: tuple[Pair, ...] = FULL_PAIR_SET
    denominator_mode: DenominatorMode = DenominatorMode.ALGORITHM_MASKED
    normalization: float | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise InvalidTemperatureError(f"tau must be > 0, got {self.tau}")
        pairs = tuple(self.pair_set)
        if not pairs:
            raise EmptyPairSetError("pair_set must contain at least one pair")
        for p in pairs:
            if p not in FULL_PAIR_SET:
                raise ConfigError(f"invalid pair {p}; must be one of the six query/candidate pairs")
        if len(set(pairs)) != len(pairs):
            raise ConfigError(f"duplicate pairs in pair_set: {[pair_name(p) for p in pairs]}")
        # keep canonical order regardless of how the caller listed them
        ordered = tuple(p for p in FULL_PAIR_SET if p in set(pairs))
        object.__setattr__(self, "pair_set", ordered)
        if self.normalization is not None and self.normalization <= 0:
            raise ConfigError(f"normalization must be > 0, got {self.normalization}")

    def resolve_normalization(self, n: int) -> float:
        return float(self.normalization) if self.normalization is not None else float(len(self.pair_set) * n)


@dataclass(frozen=True)
class TripletBatch:
    """Matched image/text/fused embedding matrices; row j of each matrix
    comes from the same underlying pair j."""

    images: EmbeddingMatrix
    texts: EmbeddingMatrix
    fused: EmbeddingMatrix

    def __post_init__(self):
        shapes = {m.rows.shape for m in (self.images, self.texts, self.fused)}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"triplet matrices must share N and d, got {sorted(shapes)}")
        tags = (self.images.modality, self.texts.modality, self.fused.modality)
        if tags != (Modality.IMAGE, Modality.TEXT, Modality.FUSED):
            raise ShapeMismatchError(f"triplet modality tags must be (image, text, fused), got {tags}")

    @classmethod
    def from_rows(
        cls,
        images: np.ndarray,
        texts: np.ndarray,
        fused: np.ndarray,
        validate_norms: bool = True,
    ) -> "TripletBatch":
        batch = cls(
            EmbeddingMatrix(images, Modality.IMAGE),
            EmbeddingMatrix(texts, Modality.TEXT),
            EmbeddingMatrix(fused, Modality.FUSED),
        )
        if validate_norms:
            for mat in (batch.images, batch.texts, batch.fused):
                norms = np.linalg.norm(mat.rows, axis=1)
                if np.max(np.abs(norms - 1.0)) > 1e-6:
                    bad = int(np.argmax(np.abs(norms - 1.0)))
                    raise ShapeMismatchError(
                        f"{mat.modality.value} row {bad} has norm {norms[bad]:.8f}, expected unit rows"
                    )
        return batch

    @property
    def n(self) -> int:
        return self.images.n

    @property
    def dim(self) -> int:
        return self.images.dim


@dataclass(frozen=True)
class LossGrads:
    """Analytic partials of the loss with respect to the three matrices."""

    images: np.ndarray
    texts: np.ndarray
    fused: np.ndarray

    def by_modality(self, modality: Modality) -> np.ndarray:
        return {Modality.IMAGE: self.images, Modality.TEXT: self.texts, Modality.FUSED: self.fused}[modality]


@dataclass(frozen=True)
class LossOutput:
    """Loss value, per-pair breakdown, and gradients.

    per_term entries are each pair's summed loss divided by N (not by the
    full normalization) so terms stay comparable across ablations; value
    applies the configured normalization. grad_tau is the partial with
    respect to the temperature, for optional learnable-tau training.
    """

    value: float
    per_term: dict[str, float]
    grads: LossGrads
    grad_tau: float = 0.0


# One contrastive term: (per_term key, query modality, positive modality,
# candidate modalities, negatives); negatives is "row", "row_offdiag" or
# "pooled_offdiag" as described in the module docstring.
Term = tuple[str, Modality, Modality, tuple[Modality, ...], str]


def _contrastive(
    rows: dict[Modality, np.ndarray],
    terms: list[Term],
    tau: float,
    normalization: float,
) -> LossOutput:
    """Sum of contrastive terms divided by normalization, with its gradients.

    Each logit block s_am = E_a E_m^T / tau is computed once, and s_ma is
    read as the transpose of s_am. Terms that share (query, candidates,
    negatives) share one exponentiation and one normalizer. Logit gradients
    G accumulate per stored block and reach the rows in one pass:
    dE_a += G E_m / tau, dE_m += G^T E_a / tau, and
    dtau = -sum(G * S) / tau with the stored S.
    """
    n, d = next(iter(rows.values())).shape
    logits: dict[Pair, np.ndarray] = {}
    logit_grads: dict[Pair, np.ndarray] = {}

    def logit_block(a: Modality, m: Modality) -> np.ndarray:
        if (a, m) not in logits:
            if (m, a) in logits:
                return logits[(m, a)].T
            logits[(a, m)] = rows[a] @ rows[m].T / tau
        return logits[(a, m)]

    def grad_block(a: Modality, m: Modality) -> np.ndarray:
        key = (a, m) if (a, m) in logits else (m, a)
        if key not in logit_grads:
            logit_grads[key] = np.zeros((n, n))
        return logit_grads[key] if key == (a, m) else logit_grads[key].T

    groups: dict[tuple[Modality, tuple[Modality, ...], str], list[tuple[str, Modality]]] = {}
    for name, a, b, candidates, negatives in terms:
        groups.setdefault((a, candidates, negatives), []).append((name, b))

    term_sums: dict[str, float] = {}
    diag = np.arange(n)
    for (a, candidates, negatives), members in groups.items():
        blocks = [logit_block(a, m) for m in candidates]
        positives = {b: np.diagonal(logit_block(a, b))[:, None] for _, b in members}
        # row kinds normalize each row on its own; the pooled kind shares one
        # normalizer, so its shift and weight are scalars (kept as 1x1)
        axis = None if negatives == "pooled_offdiag" else 1
        exps = []
        if negatives == "row":
            shift = reduce(np.maximum, [s.max(axis=1, keepdims=True) for s in blocks])
        else:
            # diagonal entries are positives of some anchor: never negatives
            offdiag = ~np.eye(n, dtype=bool)
            shift = reduce(
                np.maximum,
                [np.max(s, axis=axis, keepdims=True, where=offdiag, initial=-np.inf) for s in blocks],
            )
        if negatives == "row" or n > 1:
            for s in blocks:
                e = np.exp(s - shift)
                if negatives != "row":
                    e[diag, diag] = 0.0
                exps.append(e)
            log_norm = shift + np.log(sum(e.sum(axis=axis, keepdims=True) for e in exps))
        else:
            log_norm = -np.inf  # N=1 leaves no off-diagonal negatives
        if negatives == "row":
            log_z = {b: log_norm for _, b in members}
        else:
            log_z = {b: np.logaddexp(positives[b], log_norm) for _, b in members}
        for name, b in members:
            term_sums[name] = float(np.sum(log_z[b] - positives[b]))

        if exps:
            # every candidate entry's share of each member's denominator
            weight = sum(np.exp(shift - log_z[b]) for _, b in members)
            if negatives == "pooled_offdiag":
                weight = weight.sum()
            for m, e in zip(candidates, exps):
                e *= weight
                grad_block(a, m)[...] += e
        for _, b in members:
            if negatives == "row":
                grad_block(a, b)[diag, diag] -= 1.0
            else:
                grad_block(a, b)[diag, diag] += np.exp(positives[b] - log_z[b])[:, 0] - 1.0

    grads = {m: np.zeros((n, d)) for m in MODALITIES}
    g_dot_s = 0.0
    for (a, m), g in logit_grads.items():
        grads[a] += g @ rows[m]
        grads[m] += g.T @ rows[a]
        g_dot_s += float(np.vdot(g, logits[(a, m)]))
    scale = 1.0 / (tau * normalization)
    return LossOutput(
        value=sum(term_sums[name] for name, *_ in terms) / normalization,
        per_term={name: term_sums[name] / n for name, *_ in terms},
        grads=LossGrads(images=grads[_I] * scale, texts=grads[_T] * scale, fused=grads[_IT] * scale),
        grad_tau=-g_dot_s * scale,
    )


def _two_direction_terms(q: Modality, c: Modality) -> list[Term]:
    """q2c and c2q, each a row softmax over the one opposite block."""
    return [
        (pair_name((q, c)), q, c, (c,), "row"),
        (pair_name((c, q)), c, q, (q,), "row"),
    ]


def _triplet_rows(batch: TripletBatch) -> dict[Modality, np.ndarray]:
    return {_I: batch.images.rows, _T: batch.texts.rows, _IT: batch.fused.rows}


def gcl_loss(batch: TripletBatch, cfg: LossConfig | None = None) -> LossOutput:
    """Generalized contrastive loss over the configured query/candidate pairs.

    For each pair (a, b) and anchor j, the positive logit is
    dot(e_a^j, e_b^j)/tau and the candidates are all three modalities.
    Under algorithm_masked the denominator adds the shared off-diagonal
    negative pool of blocks (a, i), (a, t), (a, it); under equation_literal
    it is the full unmasked row sum over the three blocks. Gradients are
    returned for all three matrices, with zeros for a modality no retained
    pair touches.
    """
    cfg = cfg if cfg is not None else LossConfig()
    negatives = "pooled_offdiag" if cfg.denominator_mode is DenominatorMode.ALGORITHM_MASKED else "row"
    terms = [(pair_name((a, b)), a, b, MODALITIES, negatives) for a, b in cfg.pair_set]
    return _contrastive(_triplet_rows(batch), terms, cfg.tau, cfg.resolve_normalization(batch.n))


def _check_cl_inputs(loss: str, images: EmbeddingMatrix, texts: EmbeddingMatrix, cfg: LossConfig) -> None:
    if set(cfg.pair_set) != set(CL_PAIR_SET):
        raise ConfigError(
            f"{loss} is defined for the pair set {{i2t, t2i}}, got {[pair_name(p) for p in cfg.pair_set]}"
        )
    if images.rows.shape != texts.rows.shape:
        raise ShapeMismatchError(f"image/text shapes disagree: {images.rows.shape} vs {texts.rows.shape}")


def cl_loss(
    images: EmbeddingMatrix,
    texts: EmbeddingMatrix,
    cfg: LossConfig | None = None,
) -> LossOutput:
    """Standard two-direction contrastive loss.

    Each direction's denominator is the single cross-modality row: anchor j
    of modality a against all N candidates of the opposite modality. No
    same-modality or fused negatives. Normalization defaults to 2N.
    """
    cfg = cfg if cfg is not None else LossConfig(pair_set=CL_PAIR_SET)
    _check_cl_inputs("cl_loss", images, texts, cfg)
    rows = {_I: images.rows, _T: texts.rows}
    return _contrastive(rows, _two_direction_terms(_I, _T), cfg.tau, cfg.resolve_normalization(images.n))


def two_direction_loss(batch: TripletBatch, query: Modality, candidate: Modality, tau: float) -> LossOutput:
    """Symmetric contrastive loss between two modalities of a triplet batch.

    The terms are query->candidate and candidate->query, each with the one
    opposite block as its row-wise denominator (cl_loss's shape for any pair
    of modalities), normalized by 2N. The mixed training objective uses it
    for fused->image and text->fused retrieval.
    """
    terms = _two_direction_terms(query, candidate)
    return _contrastive(_triplet_rows(batch), terms, tau, float(2 * batch.n))


def gcl_loss_ablation(
    batch: TripletBatch,
    drop: str,
    cfg: LossConfig | None = None,
) -> LossOutput:
    """Generalized loss with one named pair group removed.

    drop is one of 'cross_modal' (removes i2t, t2i), 'it_candidate' (removes
    i2it, t2it), or 'it_query' (removes it2i, it2t). Normalization is fixed
    at 4N for the four retained pairs; tau and denominator mode come from
    cfg when given.
    """
    if drop not in ABLATION_DROPS:
        raise ConfigError(f"unknown ablation {drop!r}; expected one of {sorted(ABLATION_DROPS)}")
    base = cfg if cfg is not None else LossConfig()
    dropped = set(ABLATION_DROPS[drop])
    kept = tuple(p for p in FULL_PAIR_SET if p not in dropped)
    ablated = replace(base, pair_set=kept, normalization=float(4 * batch.n))
    return gcl_loss(batch, ablated)


def intra_modality_separation_loss(
    images: EmbeddingMatrix,
    texts: EmbeddingMatrix,
    cfg: LossConfig | None = None,
) -> LossOutput:
    """Standard contrastive loss plus a same-modality separation term.

    For each anchor of modality a, the added term keeps the cross-modal
    positive as numerator and contrasts it against the anchor's own row of
    same-modality similarities (k != j). Both parts are normalized by 2N.
    Requires N >= 2 so the separation term has at least one negative.
    """
    cfg = cfg if cfg is not None else LossConfig(pair_set=CL_PAIR_SET)
    _check_cl_inputs("intra_modality_separation_loss", images, texts, cfg)
    n = images.n
    if n < 2:
        raise BatchTooSmallError(f"separation term needs N >= 2 same-modality rows, got N={n}")
    terms = _two_direction_terms(_I, _T) + [
        ("sep_i", _I, _T, (_I,), "row_offdiag"),
        ("sep_t", _T, _I, (_T,), "row_offdiag"),
    ]
    rows = {_I: images.rows, _T: texts.rows}
    return _contrastive(rows, terms, cfg.tau, cfg.resolve_normalization(n))


def loss_gradient_check(
    loss_fn: Callable[[TripletBatch], LossOutput],
    batch: TripletBatch,
    epsilon: float = 1e-5,
) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbs every coordinate of every matrix by +-epsilon and returns the
    maximum relative error max(|analytic - numeric| / max(1, |analytic|,
    |numeric|)) over all coordinates. A constant loss yields exactly 0.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ConfigError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    out = loss_fn(batch)
    mats = {
        "images": batch.images.rows,
        "texts": batch.texts.rows,
        "fused": batch.fused.rows,
    }
    analytic = {
        "images": out.grads.images,
        "texts": out.grads.texts,
        "fused": out.grads.fused,
    }

    def rebuild(name: str, perturbed: np.ndarray) -> TripletBatch:
        parts = dict(mats)
        parts[name] = perturbed
        return TripletBatch.from_rows(parts["images"], parts["texts"], parts["fused"], validate_norms=False)

    max_rel = 0.0
    for name, base in mats.items():
        for idx in np.ndindex(base.shape):
            plus = base.copy()
            plus[idx] += epsilon
            minus = base.copy()
            minus[idx] -= epsilon
            f_plus = loss_fn(rebuild(name, plus)).value
            f_minus = loss_fn(rebuild(name, minus)).value
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic[name][idx])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
