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

Terms that share (query a, candidates, negatives) form a group. A group
walks its anchors in blocks of rows sized so that the block's logit slab
against the stacked candidate rows C (c*N x d) fits a fixed cache budget;
no N x N block is stored, except one that fits the budget and serves both
directions of a two-direction pair: a2b and b2a, each the one ``row`` term
over the other modality, share it when its logits lie within 600 of their
maximum, with one shift, row sums for a2b and column sums for b2a. Any other
block makes one gemm for the slab (E_a[rows] / tau) C^T, reads the positives
off its diagonals and masks them for the offdiag kinds, shifts, exponentiates
and normalizes in place, then makes two gemms that push the logit gradient
into dE_a[rows] and dC. The row kinds finish in that one pass.
``pooled_offdiag`` needs its scalar normalizer before any gradient, so it
keeps an online max and sum over the blocks (Milakov & Gimelshein, arXiv
1805.02867) and defers each block's rows x d gradient product until the
normalizer is known.

Every loss returns its value, the per-term breakdown, and analytic gradients
with respect to all three embedding matrices and the temperature. The fused
matrix is treated as an independent input; the trainer composes the fusion
Jacobian separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .embeddings import MODALITIES, EmbeddingMatrix, Modality
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
    def rows(self) -> dict[Modality, np.ndarray]:
        """The three N×d matrices keyed by modality."""
        return {Modality.IMAGE: self.images.rows, Modality.TEXT: self.texts.rows, Modality.FUSED: self.fused.rows}


@dataclass(frozen=True)
class LossGrads:
    """Analytic partials of the loss with respect to the three matrices."""

    images: np.ndarray
    texts: np.ndarray
    fused: np.ndarray


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


# Bytes of one logit slab: cache-sized, and N = 128 against all three
# modalities is one block.
_SLAB_BYTES = 1 << 20


def _shared_slab(ea: np.ndarray, eb: np.ndarray, tau: float):
    """a2b's and b2a's term sums, G E_b and G^T E_a from s = (E_a / tau) E_b^T, where
    G = X / Z_row + X / Z_col - 2I with X = exp(s - max s); None when some X may be subnormal."""
    s = (ea / tau) @ eb.T
    top = s.max()
    if not s.min() >= top - 600:
        return None
    pos = s.diagonal().copy()
    s -= top
    np.exp(s, out=s)
    z_row, z_col = s.sum(axis=1), s.sum(axis=0)
    g = s / z_row[:, None]
    g += s / z_col
    g.reshape(-1)[:: len(g) + 1] -= 2.0
    return [float((np.log(z) + top - pos).sum()) for z in (z_row, z_col)], g @ eb, g.T @ ea


def _contrastive(
    rows: dict[Modality, np.ndarray], terms: list[Term], tau: float, normalization: float
) -> LossOutput:
    """Sum of contrastive terms divided by normalization, with its gradients.

    A block's slab holds e = exp(S - shift). With w the rows' weight on their
    normalizers, the logit gradient G = w e reaches the rows as
    dE_a[rows] += w (e C) and dC += e^T (w E_a[rows]), so the slab is never
    rescaled; a positive's coefficient adds its partner row directly.
    dtau = -sum(G * S) / tau is accumulated as -vdot(E_a[rows], G C) / tau^2.
    """
    order = [m for m in MODALITIES if m in rows]
    n, d = rows[order[0]].shape
    # each group's candidates are a run of this order, so C is a view
    stack = np.concatenate([rows[m] for m in order])
    grad = np.zeros_like(stack)
    offset = {m: k * n for k, m in enumerate(order)}
    dE = {m: grad[k : k + n] for m, k in offset.items()}

    groups: dict[tuple[Modality, tuple[Modality, ...], str], list[tuple[str, Modality]]] = {}
    for name, a, b, candidates, negatives in terms:
        groups.setdefault((a, candidates, negatives), []).append((name, b))

    term_sums: dict[str, float] = {}
    g_dot_s = 0.0
    # a2b and its transpose b2a share one slab when the N x N block fits the budget
    for (a, candidates, negatives), members in list(groups.items()) if 8 * n * n <= _SLAB_BYTES else ():
        b = candidates[0]
        partner = groups.get((b, (a,), "row"), [])
        if (negatives, candidates, [m[1] for m in members], [m[1] for m in partner]) != ("row", (b,), [b], [a]):
            continue
        if (shared := _shared_slab(rows[a], rows[b], tau)) is None:
            break  # too wide a logit range for one shift: the pair keeps the row path
        (term_sums[members[0][0]], term_sums[partner[0][0]]), g_b, g_a = shared
        dE[a] += g_b
        dE[b] += g_a
        g_dot_s += float(np.vdot(rows[a], g_b))
        del groups[a, candidates, negatives], groups[b, (a,), "row"]
    for (a, candidates, negatives), members in groups.items():
        c, lo = len(candidates), offset[candidates[0]]
        C, dC, Ea = stack[lo : lo + c * n], grad[lo : lo + c * n], rows[a]
        query = Ea / tau
        masked, pooled = negatives != "row", negatives == "pooled_offdiag"
        # a positive among the candidates is read off the slab's diagonal
        pos = {
            b: np.zeros((n, 1)) if b in candidates else np.sum(query * rows[b], axis=1, keepdims=True)
            for _, b in members
        }
        diagonals = [(pos[b], candidates.index(b)) for _, b in members if b in candidates]
        # with N = 1 the masked kinds have no negatives: each log_z is its positive
        log_z = {b: np.empty((n, 1)) for _, b in members} if n > 1 or not masked else pos
        # G C per block and G^T E_a summed over blocks; the pooled kind scales
        # both once its normalizer is known
        shift, total, g_c_blocks, g_t_a = -np.inf, 0.0, [], np.zeros_like(C)
        step = max(1, _SLAB_BYTES // (8 * c * n))
        for r0 in range(0, n, step) if n > 1 or not masked else ():
            r = slice(r0, min(r0 + step, n))
            s = query[r] @ C.T
            # row j of the block meets its own pair in block k at flat index k n + r0 + j (c n + 1)
            diagonal = [s.reshape(-1)[k * n + r0 :: c * n + 1] for k in range(c)]
            for p, k in diagonals:
                p[r, 0] = diagonal[k]
            for entries in diagonal if masked else ():  # positives of some anchor: never negatives
                entries[...] = -np.inf
            if pooled:
                # online normalizer: rescale what was summed under a lower shift
                top, weight = s.max(), 1.0
                if top > shift:
                    total *= np.exp(shift - top)
                    g_t_a *= np.exp(shift - top)
                    shift = top
            else:
                shift = s.max(axis=1, keepdims=True)
            s -= shift
            np.exp(s, out=s)
            if pooled:
                total += s.sum()
            else:
                log_norm = shift + np.log(s.sum(axis=1, keepdims=True))
                for _, b in members:
                    log_z[b][r] = np.logaddexp(pos[b][r], log_norm) if masked else log_norm
                # each row's share of its members' denominators
                weight = sum(np.exp(shift - log_z[b][r]) for _, b in members)
            g_c_blocks.append((r, shift, (s @ C) * weight))
            g_t_a += s.T @ (Ea[r] * weight)
        if pooled and g_c_blocks:
            log_norm = shift + np.log(total)
            for _, b in members:
                log_z[b][...] = np.logaddexp(pos[b], log_norm)
            weight = sum(np.exp(shift - log_z[b]) for _, b in members).sum()
            g_t_a *= weight
            for _, block_shift, g_c in g_c_blocks:
                g_c *= weight * np.exp(block_shift - shift)
        dC += g_t_a
        for r, _, g_c in g_c_blocks:
            for _, b in members:
                # the positive: -1, plus its own share of a masked denominator
                coef = np.exp(pos[b][r] - log_z[b][r]) - 1.0 if masked else -1.0
                g_c += coef * rows[b][r]
                dE[b][r] += coef * Ea[r]
            dE[a][r] += g_c
            g_dot_s += float(np.vdot(Ea[r], g_c))
        for name, b in members:
            term_sums[name] = float((log_z[b] - pos[b]).sum())

    scale = 1.0 / (tau * normalization)
    grad *= scale
    return LossOutput(
        value=sum(term_sums[name] for name, *_ in terms) / normalization,
        per_term={name: term_sums[name] / n for name, *_ in terms},
        grads=LossGrads(*(dE[m] if m in dE else np.zeros((n, d)) for m in MODALITIES)),
        grad_tau=-g_dot_s / tau * scale,
    )


def _two_direction_terms(q: Modality, c: Modality) -> list[Term]:
    """q2c and c2q, each a row softmax over the one opposite block."""
    return [
        (pair_name((q, c)), q, c, (c,), "row"),
        (pair_name((c, q)), c, q, (q,), "row"),
    ]


_CL_TERMS = _two_direction_terms(_I, _T)
_IMSEP_TERMS = _CL_TERMS + [("sep_i", _I, _T, (_I,), "row_offdiag"), ("sep_t", _T, _I, (_T,), "row_offdiag")]


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
    return _contrastive(batch.rows, terms, cfg.tau, cfg.resolve_normalization(batch.n))


def _image_text_loss(loss: str, terms: list[Term], images, texts, cfg: LossConfig | None, min_n=1) -> LossOutput:
    """cl_loss and intra_modality_separation_loss: their terms over the image and text rows."""
    cfg = cfg if cfg is not None else LossConfig(pair_set=CL_PAIR_SET)
    if cfg.pair_set != CL_PAIR_SET:  # LossConfig keeps pairs in canonical order
        raise ConfigError(
            f"{loss} is defined for the pair set {{i2t, t2i}}, got {[pair_name(p) for p in cfg.pair_set]}"
        )
    if images.rows.shape != texts.rows.shape:
        raise ShapeMismatchError(f"image/text shapes disagree: {images.rows.shape} vs {texts.rows.shape}")
    if images.n < min_n:
        raise BatchTooSmallError(f"{loss} needs N >= {min_n} same-modality rows, got N={images.n}")
    rows = {_I: images.rows, _T: texts.rows}
    return _contrastive(rows, terms, cfg.tau, cfg.resolve_normalization(images.n))


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
    return _image_text_loss("cl_loss", _CL_TERMS, images, texts, cfg)


def two_direction_loss(batch: TripletBatch, query: Modality, candidate: Modality, tau: float) -> LossOutput:
    """Symmetric contrastive loss between two modalities of a triplet batch.

    The terms are query->candidate and candidate->query, each with the one
    opposite block as its row-wise denominator (cl_loss's shape for any pair
    of modalities), normalized by 2N. The mixed training objective uses it
    for fused->image and text->fused retrieval.
    """
    terms = _two_direction_terms(query, candidate)
    return _contrastive(batch.rows, terms, tau, float(2 * batch.n))


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
    kept = tuple(p for p in FULL_PAIR_SET if p not in ABLATION_DROPS[drop])
    return gcl_loss(batch, replace(cfg or LossConfig(), pair_set=kept, normalization=float(4 * batch.n)))


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
    return _image_text_loss("intra_modality_separation_loss", _IMSEP_TERMS, images, texts, cfg, min_n=2)


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
    mats = {"images": batch.images.rows, "texts": batch.texts.rows, "fused": batch.fused.rows}
    max_rel = 0.0
    for name, base in mats.items():
        for idx in np.ndindex(base.shape):
            values = []
            for delta in (epsilon, -epsilon):
                moved = base.copy()
                moved[idx] += delta
                values.append(loss_fn(TripletBatch.from_rows(**{**mats, name: moved}, validate_norms=False)).value)
            numeric = (values[0] - values[1]) / (2.0 * epsilon)
            a = float(getattr(out.grads, name)[idx])
            max_rel = max(max_rel, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return max_rel
