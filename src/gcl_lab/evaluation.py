"""Retrieval pools, queries, and the retrieval metrics.

Similarity is the raw dot product on unit-norm embeddings (cosine). Ranking
is exhaustive over the pool with ties broken by ascending candidate id, so
results are reproducible regardless of insertion order or platform. Two pool
settings exist: a Local pool holds one candidate bank, a Global pool stacks
candidate banks, each bank a range of its columns.

Every metric comes from one scoring pass (_pass): query rows are scored
against the whole pool in row blocks of about _BLOCK_BYTES (at least
_BLOCK_ROWS rows), one gemm each, as in blocked exact flat search (Johnson et
al., arXiv 1702.08734), and every ranking is read off the block. A bank's head
(its best max_rank columns, best first) is one argpartition, and the pool's
head is taken from the union of the bank heads, which holds it; a row with a
tie inside a head or across its cut takes its full (score, id) order. A ground
truth's rank is its place in the head, and only rows whose ground truth falls
outside are counted, 1 + #(s > s_g) + #(s == s_g and id < id_g). Cosines are
per-pair dot products, bit-identical to ``candidate @ query``; the pool head's
are gathered from the bank heads'. rank_banks makes one pass for a query
modality's tasks, one per bank, and build_report and cosine_by_rank read each
task's entries off it.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Bytes of one score block, which holds _BLOCK_BYTES // (8 * pool size) query
# rows, but at least _BLOCK_ROWS, so a large pool still scores many rows per gemm.
_BLOCK_BYTES = 1 << 20
_BLOCK_ROWS = 64


class Candidate(NamedTuple):
    """One retrievable item: id, unit-norm embedding and modality."""

    id: int
    embedding: np.ndarray
    modality: Modality


class Query(NamedTuple):
    id: int
    embedding: np.ndarray
    modality: Modality


class Bank(NamedTuple):
    """One candidate bank as arrays: candidate ids and their unit-norm rows."""

    ids: np.ndarray
    rows: np.ndarray


def _bank(candidates: Bank | Iterable[Candidate]) -> Bank:
    if isinstance(candidates, Bank):
        return candidates
    candidates = list(candidates)
    return Bank(np.array([c.id for c in candidates], dtype=np.int64), [c.embedding for c in candidates])


class RetrievalPool:
    """Candidate banks stacked into one matrix: ids, rows, each bank's column
    range, and the setting, "global" or "local"."""

    def __init__(self, banks: Sequence[Bank], setting: str):
        banks = [bank for bank in banks if len(bank.ids)]
        if not banks:
            raise EmptyPoolError("pool needs at least one candidate")
        self.ids = np.concatenate([bank.ids for bank in banks])
        unique, counts = np.unique(self.ids, return_counts=True)
        if counts.max() > 1:
            raise DuplicateIdError(f"candidate id {unique[counts > 1][0]} appears more than once")
        try:
            self.matrix = np.concatenate([bank.rows for bank in banks]).astype(np.float64, copy=False)
        except ValueError:
            self.matrix = None
        if self.matrix is None or self.matrix.shape != (len(self.ids), self.matrix.shape[-1]):
            dims = sorted({np.shape(row) for bank in banks for row in bank.rows})
            raise ShapeMismatchError(f"candidate embeddings must share one 1-D shape, got {dims}")
        edges = np.cumsum([0, *(len(bank.ids) for bank in banks)]).tolist()
        self.ranges, self.size, self.setting = list(zip(edges[:-1], edges[1:])), edges[-1], setting


@dataclass(frozen=True)
class QuerySet:
    """Queries plus their ground-truth candidate ids. ``rows`` stacks the query
    embeddings; ``_truth`` holds the query ids, then the ground-truth ids
    flattened in query order and where each query's ids start (then the end)."""

    queries: list[Query]
    ground_truth: dict[int, set[int]]

    def __post_init__(self):
        if not self.queries:
            raise EmptyPoolError("query set needs at least one query")
        ids = [q.id for q in self.queries]
        truth = [self.ground_truth.get(i) for i in ids]
        for i, gt in zip(ids, truth):
            if not gt:
                raise ConfigError(f"query {i} has no ground-truth candidates")
        counts = np.fromiter(map(len, truth), np.intp, len(truth))
        gt_ids = np.fromiter(chain.from_iterable(truth), np.int64, counts.sum())
        object.__setattr__(self, "rows", np.stack([np.asarray(q.embedding, dtype=np.float64) for q in self.queries]))
        object.__setattr__(self, "_truth", (ids, gt_ids, np.concatenate(([0], np.cumsum(counts)))))


class Ranked(NamedTuple):
    """What a pass found for a query set in one pool: query ids in row order, each
    query's best ground-truth rank and cosine, the mean cosine-by-rank curve, and
    the ids of the pool's candidates, in column order."""

    queries: Sequence[int]
    ranks: np.ndarray
    gt_cosines: list[float]
    curve: np.ndarray
    pool_ids: np.ndarray


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


def _pair_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a · b over the last axis, one BLAS dot per pair as a per-pair `@` computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _gt_cosines(rows: np.ndarray, matrix: np.ndarray, gt) -> list[float]:
    """Each query's best ground-truth cosine, gt from _ground_truth_columns."""
    gt_rows, columns, starts = gt
    cosines = _pair_dots(matrix[columns], rows[gt_rows])
    return np.clip(np.maximum.reduceat(cosines, starts[:-1]), -1.0, 1.0).tolist()


def _take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[i, index[i, j]] for a C-contiguous 2-D a, as one flat take."""
    return np.take(a, index + a.shape[1] * np.arange(len(a))[:, None])


def _heads(scores: np.ndarray, ids: np.ndarray, max_rank: int) -> np.ndarray:
    """Columns of each row's max_rank best scores, best first, ties by ascending
    id; ids holds one id per column, or one per score."""
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
        heads[i] = np.lexsort((ids[i] if ids.ndim > 1 else ids, -scores[i]))[:max_rank]
    return heads


def _block_ranks(scores, ids, head, span, rows, columns) -> np.ndarray:
    """Rank of candidate columns[e] for block row rows[e] within the column
    range span: its place in the row's head, or for the rows where it is not
    there, 1 + #(s > s_g) + #(s == s_g and id < id_g) over the range, with
    the id term counted only where another candidate scores exactly s_g."""
    hit = head[rows] == columns[:, None]
    ranks = 1 + hit.argmax(axis=1)
    miss = np.flatnonzero(~hit.any(axis=1))
    if len(miss):
        (lo, hi), rows, columns = span, rows[miss], columns[miss]
        s, s_gt = scores[rows, lo:hi], scores[rows, columns][:, None]
        before = np.add.reduce(s > s_gt, axis=1, dtype=np.intp)
        equal = s == s_gt
        if np.count_nonzero(equal) > len(miss):
            tied = np.flatnonzero(np.add.reduce(equal, axis=1, dtype=np.intp) > 1)
            before[tied] += np.count_nonzero(equal[tied] & (ids[lo:hi] < ids[columns[tied], None]), axis=1)
        ranks[miss] = 1 + before
    return ranks


def _pass(rows: np.ndarray, pool: RetrievalPool, max_rank: int, rankings) -> tuple[list, list]:
    """Score rows against the pool once, in row blocks, and read everything off each block.

    Range 0 is the whole pool and range 1 + b is bank b; a range's head is its
    min(max_rank, size) best columns. Returns each range's mean cosine-by-rank
    curve over its head, and for each (range, ground truth) of rankings, ground
    truth as _ground_truth_columns gives it, each query's best rank in that range.
    """
    ranges = [(0, pool.size), *pool.ranges]
    cosines = [np.empty((len(rows), min(max_rank, hi - lo))) for lo, hi in ranges]
    found = [np.empty(len(starts) - 1, dtype=np.int64) for _, (_, _, starts) in rankings]
    step = max(_BLOCK_ROWS, _BLOCK_BYTES // (8 * pool.size))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        stop, scores = start + len(block), block @ pool.matrix.T
        heads = [lo + _heads(scores[:, lo:hi], pool.ids[lo:hi], min(max_rank, hi - lo)) for lo, hi in pool.ranges]
        union = np.hstack(heads)  # it holds the pool's head
        pick = _heads(_take_rows(scores, union), pool.ids[union], cosines[0].shape[1])
        heads.insert(0, _take_rows(union, pick))
        bank_cosines = [_pair_dots(np.take(pool.matrix, h, axis=0), block[:, None, :]) for h in heads[1:]]
        block_cosines = [_take_rows(np.hstack(bank_cosines), pick), *bank_cosines]
        for curve, c in zip(cosines, block_cosines):
            curve[start:stop] = c
        for ranks, (r, (gt_rows, columns, starts)) in zip(found, rankings):
            e = slice(starts[start], starts[stop])
            got = _block_ranks(scores, pool.ids, heads[r], ranges[r], gt_rows[e] - start, columns[e])
            ranks[start:stop] = np.minimum.reduceat(got, starts[start:stop] - starts[start])
    # cumsum adds one query at a time, so the sum's rounding follows query order
    curves = [np.cumsum(np.clip(c, -1.0, 1.0), axis=0)[-1] / len(rows) for c in cosines]
    return curves, found


def _ranked(queries: QuerySet, pool: RetrievalPool, max_rank: int) -> Ranked:
    """One query set's pass against the whole pool, its curve up to max_rank."""
    gt = _ground_truth_columns(queries, pool)
    curves, (ranks,) = _pass(queries.rows, pool, max_rank, [(0, gt)])
    return Ranked(queries._truth[0], ranks, _gt_cosines(queries.rows, pool.matrix, gt), curves[0], pool.ids)


def _found(queries: QuerySet | Ranked, pool: RetrievalPool, max_rank: int) -> Ranked:
    """queries' pass result in pool: a QuerySet is run through a pass here (curve
    up to max_rank); a Ranked must have been ranked among the pool's candidates."""
    if not isinstance(queries, Ranked):
        return _ranked(queries, pool, max_rank)
    if not np.array_equal(queries.pool_ids, pool.ids):
        raise ConfigError(f"ranked among {len(queries.pool_ids)} other candidates, not this pool's {pool.size}")
    return queries


def rank_banks(rows: np.ndarray, pool: RetrievalPool, max_rank: int, local_rank: int) -> list[tuple[Ranked, Ranked]]:
    """One pass for queries whose row i has the i-th candidate of each bank as
    its one ground truth, a task per bank: per bank, the task's Ranked in the
    whole pool (curve up to max_rank) and in its own bank (up to local_rank)."""
    n, k = len(rows), len(pool.ranges)
    if any(hi - lo != n for lo, hi in pool.ranges):
        raise ShapeMismatchError(f"each bank needs one candidate per query row ({n})")
    truths = [(np.arange(n), lo + np.arange(n), np.arange(n + 1)) for lo, _ in pool.ranges]
    curves, ranks = _pass(rows, pool, max_rank, [*((0, gt) for gt in truths), *zip(range(1, k + 1), truths)])
    cosines = [_gt_cosines(rows, pool.matrix, gt) for gt in truths]
    whole = [Ranked(range(n), ranks[b], cosines[b], curves[0], pool.ids) for b in range(k)]
    local = [
        Ranked(range(n), ranks[k + b], cosines[b], curves[1 + b][:local_rank], pool.ids[lo:hi])
        for b, (lo, hi) in enumerate(pool.ranges)
    ]
    return list(zip(whole, local))


def recall_at_k(queries: QuerySet, pool: RetrievalPool, k: int) -> float:
    """Fraction of queries whose top-K hits their ground-truth set."""
    if not (1 <= k <= pool.size):
        raise KOutOfRangeError(f"K={k} outside [1, {pool.size}]")
    ranks = _ranked(queries, pool, 1).ranks  # exact at any head length: the shortest will do
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
    ranks = _ranked(queries, pool, 1).ranks
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


def build_global_pool(sources: Iterable[Bank | Iterable[Candidate]]) -> RetrievalPool:
    """Stack candidate banks into one mixed Global pool; ids must stay unique."""
    return RetrievalPool([_bank(source) for source in sources], "global")


def build_local_pool(bank: Bank) -> RetrievalPool:
    """Wrap one candidate bank as a Local pool."""
    return RetrievalPool([bank], "local")


def cosine_by_rank(queries: QuerySet | Ranked, pool: RetrievalPool, max_rank: int) -> np.ndarray:
    """Mean over queries of cosine(query, r-th ranked candidate), r = 1..max_rank;
    queries is a QuerySet, scored here, or what a pass found for it in this pool."""
    if not (1 <= max_rank <= pool.size):
        raise KOutOfRangeError(f"max_rank={max_rank} outside [1, {pool.size}]")
    curve = _found(queries, pool, max_rank).curve
    if len(curve) < max_rank:
        raise KOutOfRangeError(f"max_rank={max_rank} beyond the {len(curve)} ranks the pass kept")
    return curve[:max_rank]


def build_report(
    queries: QuerySet | Ranked,
    pool: RetrievalPool,
    k_values: Sequence[int],
    rank_cap: int | None = None,
) -> dict:
    """The report.json entry for one (query set, pool): recalls (keyed by
    str(K)), histogram, ranks and ground-truth cosines. queries is a QuerySet,
    scored here, or what a pass found for it in this pool.

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
    ranked = _found(queries, pool, max(k_values, default=1))
    ranks = ranked.ranks
    report = {
        "setting": pool.setting,
        "k_values": k_values,
        "recall_at": {str(k): int(np.count_nonzero(ranks <= k)) / len(ranks) for k in k_values},
        "rank_histogram": _histogram(ranks, pool.size),
        "ranks": ranks.tolist(),
        "gt_cosines": ranked.gt_cosines,
        "query_ids": list(ranked.queries),
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
