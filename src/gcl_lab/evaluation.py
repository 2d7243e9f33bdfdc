"""Retrieval pools, queries, and the retrieval metrics.

Similarity is the raw dot product on unit-norm embeddings (cosine). Ranking
is exhaustive over the pool with ties broken by ascending candidate id, so
results are reproducible regardless of insertion order or platform. Two pool
settings exist: a Local pool holds one (modality, task) bank, a Global pool
mixes candidate banks freely.

Every metric runs on one scoring path: a query set's rows are stacked once
(QuerySet.rows) and scored against the pool matrix in blocks of _BLOCK
queries, one gemm per block, as in blocked exact flat search (Johnson et
al., arXiv 1702.08734). A ground-truth rank is counted from the scores, not
sorted for; the id tie-break is evaluated only on rows with a tied score.
Only the head of each row that cosine_by_rank reports is sorted, and a
curve depends on the query rows and pool alone, not on the ground truth.
Reported cosines are per-pair dot products, bit-identical to ``candidate @ query``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .embeddings import Modality
from .errors import (
    ConfigError,
    DuplicateIdError,
    EmptyPoolError,
    KOutOfRangeError,
    ShapeMismatchError,
)

# Queries scored per gemm; bounds the score block at _BLOCK x pool size.
_BLOCK = 64


class PoolSetting(Enum):
    GLOBAL = "global"
    LOCAL = "local"


class Candidate(NamedTuple):
    """One retrievable item: id, unit-norm embedding, modality, and the
    candidate bank it came from."""

    id: int
    embedding: np.ndarray
    modality: Modality
    source_task: str = ""


class Query(NamedTuple):
    id: int
    embedding: np.ndarray
    modality: Modality


class RetrievalPool:
    """An immutable candidate set with cached id/embedding arrays."""

    def __init__(self, candidates: Sequence[Candidate], setting: PoolSetting):
        candidates = list(candidates)
        if not candidates:
            raise EmptyPoolError("pool needs at least one candidate")
        ids, embeddings, modalities, tasks = zip(*candidates)
        ids = np.array(ids, dtype=np.int64)
        unique, counts = np.unique(ids, return_counts=True)
        if counts.max() > 1:
            raise DuplicateIdError(f"candidate id {unique[counts > 1][0]} appears more than once")
        try:
            matrix = np.stack(embeddings).astype(np.float64, copy=False)
        except ValueError:
            matrix = None
        if matrix is None or matrix.ndim != 2:
            dims = sorted({np.shape(e) for e in embeddings})
            raise ShapeMismatchError(f"candidate embeddings must share one 1-D shape, got {dims}")
        if setting is PoolSetting.LOCAL:
            combos = set(zip(modalities, tasks))
            if len(combos) != 1:
                raise ConfigError(
                    f"local pools hold exactly one (modality, task) bank, got {len(combos)}"
                )
        self.candidates = candidates
        self.setting = setting
        self.ids = ids
        self.matrix = matrix

    @property
    def size(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class QuerySet:
    """Queries plus their ground-truth candidate ids. ``rows`` stacks the query
    embeddings unless given; query sets over the same queries may share it."""

    queries: list[Query]
    ground_truth: dict[int, set[int]]
    rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.queries:
            raise EmptyPoolError("query set needs at least one query")
        for q in self.queries:
            gt = self.ground_truth.get(q.id)
            if not gt:
                raise ConfigError(f"query {q.id} has no ground-truth candidates")
        if self.rows is None:
            object.__setattr__(self, "rows", np.stack([np.asarray(q.embedding, dtype=np.float64) for q in self.queries]))
        elif self.rows.shape[0] != len(self.queries):
            raise ShapeMismatchError(f"{self.rows.shape[0]} query rows for {len(self.queries)} queries")

    @cached_property
    def _truth(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Query ids, then the ground-truth ids flattened in query order and
        where each query's ids start (then the end)."""
        ids = [q.id for q in self.queries]
        truth = [self.ground_truth[i] for i in ids]
        counts = np.fromiter(map(len, truth), np.intp, len(truth))
        gt_ids = np.fromiter(chain.from_iterable(truth), np.int64, counts.sum())
        return ids, gt_ids, np.concatenate(([0], np.cumsum(counts)))


def _ground_truth_columns(queries: QuerySet, pool: RetrievalPool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The queries' ground truth flattened in query order: each entry's query
    row and pool column, and where each query's entries start (then the end).
    """
    ids, gt_ids, starts = queries._truth
    gt_rows = np.repeat(np.arange(len(ids)), np.diff(starts))
    by_id = np.argsort(pool.ids)  # the id -> column map
    columns = by_id[np.searchsorted(pool.ids, gt_ids, sorter=by_id).clip(max=pool.size - 1)]
    missing = pool.ids[columns] != gt_ids
    if missing.any():
        row = gt_rows[missing][0]
        absent = sorted(gt_ids[missing & (gt_rows == row)].tolist())
        raise ConfigError(f"ground-truth ids {absent} for query {ids[row]} not in pool")
    return gt_rows, columns, starts


def _score_blocks(rows: np.ndarray, pool: RetrievalPool):
    """(first row, scores) for each block of _BLOCK query rows, one gemm per block."""
    for start in range(0, len(rows), _BLOCK):
        yield start, rows[start : start + _BLOCK] @ pool.matrix.T


def _pair_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a · b over the last axis, one BLAS dot per pair as a per-pair `@` computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _ranks(queries: QuerySet, pool: RetrievalPool, gt) -> np.ndarray:
    """Best (minimum, 1-based) ground-truth rank per query, gt from _ground_truth_columns.

    Candidate g ranks at 1 + #(s > s_g) + #(s == s_g and id < id_g): a count
    over the query's scores, which equals g's place in the sorted order.
    """
    gt_rows, columns, starts = gt
    single = len(columns) == len(queries.queries)  # every query has one ground truth
    ranks = np.empty(len(queries.queries), dtype=np.int64)
    for start, scores in _score_blocks(queries.rows, pool):
        stop = start + len(scores)
        entries = slice(starts[start], starts[stop])
        cols = columns[entries]
        s = scores if single else scores[gt_rows[entries] - start]
        s_gt = s[np.arange(len(cols)), cols][:, None]
        before = np.add.reduce(s > s_gt, axis=1, dtype=np.intp)
        equal = s == s_gt
        # the id term counts only where another candidate scores exactly s_g
        if np.count_nonzero(equal) > len(cols):
            tied = np.flatnonzero(np.add.reduce(equal, axis=1, dtype=np.intp) > 1)
            before[tied] += np.count_nonzero(equal[tied] & (pool.ids < pool.ids[cols[tied], None]), axis=1)
        ranks[start:stop] = 1 + (before if single else np.minimum.reduceat(before, starts[start:stop] - starts[start]))
    return ranks


def recall_at_k(queries: QuerySet, pool: RetrievalPool, k: int) -> float:
    """Fraction of queries whose top-K hits their ground-truth set."""
    if not (1 <= k <= pool.size):
        raise KOutOfRangeError(f"K={k} outside [1, {pool.size}]")
    ranks = _ranks(queries, pool, _ground_truth_columns(queries, pool))
    return np.count_nonzero(ranks <= k) / len(ranks)


def rank_of_ground_truth(
    queries: QuerySet,
    pool: RetrievalPool,
    bucket_edges: list[int] | None = None,
) -> tuple[list[int], dict[str, int]]:
    """Per-query best (minimum, 1-based) ground-truth rank plus a histogram.

    Buckets default to powers of two up to the pool size; each bucket spans
    [edge, next_edge) clipped to the pool size.
    """
    ranks = _ranks(queries, pool, _ground_truth_columns(queries, pool))
    return ranks.tolist(), _histogram(ranks, pool.size, bucket_edges)


def _histogram(ranks: np.ndarray, pool_size: int, bucket_edges: list[int] | None = None) -> dict[str, int]:
    edges = bucket_edges if bucket_edges is not None else [2**i for i in range(pool_size.bit_length())]
    if not edges or any(e < 1 for e in edges) or sorted(edges) != list(edges):
        raise ConfigError(f"bucket edges must be ascending and >= 1, got {edges}")
    histogram: dict[str, int] = {}
    for i, lo in enumerate(edges):
        hi = min((edges[i + 1] - 1) if i + 1 < len(edges) else pool_size, pool_size)
        label = str(lo) if lo == hi else f"{lo}-{hi}"
        histogram[label] = int(np.count_nonzero((ranks >= lo) & (ranks <= hi)))
    return histogram


def build_global_pool(sources: Iterable[Iterable[Candidate]]) -> RetrievalPool:
    """Union candidate banks into one mixed Global pool; ids must stay unique."""
    merged: list[Candidate] = []
    for source in sources:
        merged.extend(source)
    return RetrievalPool(merged, PoolSetting.GLOBAL)


def build_local_pool(candidates: Iterable[Candidate]) -> RetrievalPool:
    """Wrap one (modality, task) candidate bank as a Local pool."""
    return RetrievalPool(list(candidates), PoolSetting.LOCAL)


def _gt_cosines(queries: QuerySet, pool: RetrievalPool, gt) -> list[float]:
    gt_rows, columns, starts = gt
    cosines = _pair_dots(pool.matrix[columns], queries.rows[gt_rows])
    return np.clip(np.maximum.reduceat(cosines, starts[:-1]), -1.0, 1.0).tolist()


def _heads(scores: np.ndarray, ids: np.ndarray, max_rank: int) -> np.ndarray:
    """Pool columns of each row's max_rank best scores, best first, ties by ascending id."""
    n = scores.shape[1]
    rows = np.arange(len(scores))[:, None]
    if max_rank == n:
        heads, outside = np.broadcast_to(np.arange(n), scores.shape), np.nan
    else:  # one partition: the head is every column above the (max_rank+1)-th best score
        part = np.argpartition(scores, n - max_rank - 1, axis=1)
        heads, outside = part[:, n - max_rank :], scores[rows[:, 0], part[:, n - max_rank - 1]]
    order = np.argsort(-scores[rows, heads], axis=1)
    heads = heads[rows, order]
    head_scores = scores[rows, heads]
    # neither the partition nor the sort looks at ids: a row with a tie inside
    # its head or across the cut takes the full (score, id) order
    tied = (head_scores[:, 1:] == head_scores[:, :-1]).any(axis=1) | (head_scores[:, -1] == outside)
    for i in np.flatnonzero(tied):
        heads[i] = np.lexsort((ids, -scores[i]))[:max_rank]
    return heads


def cosine_by_rank(queries: QuerySet, pool: RetrievalPool, max_rank: int) -> np.ndarray:
    """Mean over queries of cosine(query, r-th ranked candidate), r = 1..max_rank."""
    if not (1 <= max_rank <= pool.size):
        raise KOutOfRangeError(f"max_rank={max_rank} outside [1, {pool.size}]")
    rows = queries.rows
    curves = np.empty((len(rows), max_rank))
    for start, scores in _score_blocks(rows, pool):
        block = slice(start, start + len(scores))
        curves[block] = _pair_dots(pool.matrix[_heads(scores, pool.ids, max_rank)], rows[block, None, :])
    # cumsum adds one query at a time, so the sum's rounding follows query order
    return np.cumsum(np.clip(curves, -1.0, 1.0), axis=0)[-1] / len(rows)


def build_report(
    queries: QuerySet,
    pool: RetrievalPool,
    k_values: Sequence[int],
    rank_cap: int | None = None,
) -> dict:
    """The report.json entry for one (query set, pool): ranks computed once,
    then recalls (keyed by str(K)), histogram and ground-truth cosines.

    When a rank cap is set, both conventions for out-of-range ranks are
    recorded: capped_ranks clips them to the cap, while dropped_beyond_cap
    counts how many were discarded (ranks within the cap are unchanged).
    """
    k_values = sorted(set(int(k) for k in k_values))
    for k in k_values:
        if not (1 <= k <= pool.size):
            raise KOutOfRangeError(f"K={k} outside [1, {pool.size}]")
    if rank_cap is not None and rank_cap < 1:
        raise ConfigError(f"rank_cap must be >= 1, got {rank_cap}")
    gt = _ground_truth_columns(queries, pool)
    ranks = _ranks(queries, pool, gt)
    report = {
        "setting": pool.setting.value,
        "k_values": k_values,
        "recall_at": {str(k): int(np.count_nonzero(ranks <= k)) / len(ranks) for k in k_values},
        "rank_histogram": _histogram(ranks, pool.size),
        "ranks": ranks.tolist(),
        "gt_cosines": _gt_cosines(queries, pool, gt),
        "query_ids": queries._truth[0],
    }
    if rank_cap is not None:
        report["rank_cap"] = rank_cap
        report["capped_ranks"] = np.minimum(ranks, rank_cap).tolist()
        report["dropped_beyond_cap"] = int(np.count_nonzero(ranks > rank_cap))
    return report


def report_csv(report: dict) -> str:
    """One row per query of a build_report entry: id, best GT rank, GT cosine,
    hit@K flags (k_values ascending)."""
    k_values = report["k_values"]
    header = ",".join(["query_id", "best_gt_rank", "gt_cosine"] + [f"hit@{k}" for k in k_values])
    # a rank misses the m smallest K below it, so its flags are m zeros, then ones
    flags = [",0" * m + ",1" * (len(k_values) - m) for m in range(len(k_values) + 1)]
    misses = np.searchsorted(k_values, report["ranks"]).tolist()
    rows = zip(report["query_ids"], report["ranks"], report["gt_cosines"], misses)
    return header + "\n" + "".join([f"{qid},{rank},{cos:.8f}{flags[m]}\n" for qid, rank, cos, m in rows])
