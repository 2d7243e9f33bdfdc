"""Retrieval metric tests against a brute-force sort oracle."""

import csv
import io
from collections import Counter

import numpy as np
import pytest

from gcl_lab import evaluation
from gcl_lab.embeddings import Modality
from gcl_lab.errors import (
    ConfigError,
    DuplicateIdError,
    EmptyPoolError,
    KOutOfRangeError,
    ShapeMismatchError,
)
from gcl_lab.evaluation import (
    Bank,
    Candidate,
    Query,
    QuerySet,
    build_global_pool,
    build_local_pool,
    build_report,
    cosine_by_rank,
    rank_banks,
    rank_of_ground_truth,
    recall_at_k,
    report_csv,
)

from oracles import unit_rows


def oracle_ranking(query, candidates):
    """Rank ids by (descending score, ascending id) with plain Python sort."""
    scored = [(float(c.embedding @ query), c.id) for c in candidates]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [cid for _, cid in scored]


def make_candidates(rng, n, d, modality=Modality.IMAGE, id_offset=0):
    rows = unit_rows(rng, n, d)
    return [Candidate(id=id_offset + i, embedding=rows[i], modality=modality) for i in range(n)]


def bank(candidates):
    """The candidates as one Bank: their ids and their rows."""
    return Bank(np.array([c.id for c in candidates], dtype=np.int64), np.array([c.embedding for c in candidates]))


def make_query_set(rng, pool, n_queries, d, gt_per_query=1):
    """Random queries with ground truth drawn from the pool."""
    rows = unit_rows(rng, n_queries, d)
    ids = pool.ids.tolist()
    queries, gt = [], {}
    for i in range(n_queries):
        queries.append(Query(id=i, embedding=rows[i], modality=Modality.TEXT))
        gt[i] = set(rng.choice(ids, size=gt_per_query, replace=False).tolist())
    return QuerySet(queries=queries, ground_truth=gt)


class TestPoolConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            build_global_pool([[]])

    def test_duplicate_id_rejected(self):
        rng = np.random.default_rng(0)
        cands = make_candidates(rng, 3, 4)
        dup = Candidate(id=1, embedding=cands[0].embedding, modality=Modality.TEXT)
        with pytest.raises(DuplicateIdError, match="id 1"):
            build_global_pool([cands + [dup]])

    def test_mixed_dims_rejected(self):
        a = Candidate(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.IMAGE)
        b = Candidate(id=1, embedding=np.array([1.0, 0.0, 0.0]), modality=Modality.IMAGE)
        with pytest.raises(ShapeMismatchError):
            build_global_pool([[a, b]])

    def test_global_pool_mixes_banks(self):
        rng = np.random.default_rng(2)
        image_bank = make_candidates(rng, 3, 4, Modality.IMAGE)
        text_bank = make_candidates(rng, 4, 4, Modality.TEXT, id_offset=10)
        pool = build_global_pool([image_bank, text_bank])
        assert pool.size == 7
        assert pool.setting == "global"

    def test_global_pool_duplicate_across_banks(self):
        rng = np.random.default_rng(3)
        bank_a = make_candidates(rng, 3, 4, Modality.IMAGE)
        bank_b = make_candidates(rng, 3, 4, Modality.TEXT)  # same ids 0..2
        with pytest.raises(DuplicateIdError):
            build_global_pool([bank_a, bank_b])

    def test_empty_query_set_rejected(self):
        with pytest.raises(EmptyPoolError):
            QuerySet(queries=[], ground_truth={})

    def test_query_without_ground_truth_rejected(self):
        q = Query(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.TEXT)
        with pytest.raises(ConfigError, match="no ground-truth"):
            QuerySet(queries=[q], ground_truth={0: set()})


@pytest.fixture
def row_floor_blocks(monkeypatch):
    """Score blocks of _BLOCK_ROWS query rows whatever the pool size, so a test
    with more queries than that spans several blocks."""
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 0)


def every_candidate_as_ground_truth(query, candidates):
    """One copy of the query per candidate, each with that candidate as its only
    ground truth, so the ranks are the candidates' places in the full ranking."""
    queries = [Query(id=i, embedding=query, modality=Modality.TEXT) for i in range(len(candidates))]
    return QuerySet(queries=queries, ground_truth={i: {c.id} for i, c in enumerate(candidates)})


def oracle_curve(queries, candidates, max_rank):
    """Per-query running sum of per-pair cosines down the oracle ranking."""
    by_id = {c.id: c.embedding for c in candidates}
    acc = np.zeros(max_rank)
    for q in queries.queries:
        head = oracle_ranking(q.embedding, candidates)[:max_rank]
        acc += np.clip([by_id[cid] @ q.embedding for cid in head], -1.0, 1.0)
    return acc / len(queries.queries)


class TestTopK:
    """The top-K order (descending score, ties by ascending id) as the rank,
    recall and curve metrics see it."""

    def test_matches_oracle_on_100_seeded_pools(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            d = int(rng.integers(2, 10))
            cands = make_candidates(rng, n, d)
            pool = build_global_pool([cands])
            query = unit_rows(rng, 1, d)[0]
            k = int(rng.integers(1, n + 1))
            order = oracle_ranking(query, cands)
            queries = every_candidate_as_ground_truth(query, cands)
            ranks, _ = rank_of_ground_truth(queries, pool)
            assert ranks == [order.index(c.id) + 1 for c in cands]
            assert recall_at_k(queries, pool, k) == k / n
            single = QuerySet(queries=queries.queries[:1], ground_truth={0: {order[0]}})
            assert np.array_equal(cosine_by_rank(single, pool, k), oracle_curve(single, cands, k))

    def test_ties_broken_by_ascending_id(self):
        emb = np.array([1.0, 0.0])
        cands = [
            Candidate(id=i, embedding=emb, modality=Modality.IMAGE)
            for i in (7, 3, 5)
        ]
        pool = build_local_pool(bank(cands))
        ranks, _ = rank_of_ground_truth(every_candidate_as_ground_truth(emb, cands), pool)
        assert ranks == [3, 1, 2]

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(11)
        cands = make_candidates(rng, 20, 6)
        query = unit_rows(rng, 1, 6)[0]
        pool_fwd = build_global_pool([cands])
        pool_rev = build_global_pool([list(reversed(cands))])
        queries = every_candidate_as_ground_truth(query, cands)
        assert rank_of_ground_truth(queries, pool_fwd) == rank_of_ground_truth(queries, pool_rev)
        assert np.array_equal(cosine_by_rank(queries, pool_fwd, 20), cosine_by_rank(queries, pool_rev, 20))

    def test_k_out_of_range(self):
        rng = np.random.default_rng(4)
        pool = build_global_pool([make_candidates(rng, 5, 3)])
        queries = make_query_set(rng, pool, 2, 3)
        with pytest.raises(KOutOfRangeError):
            recall_at_k(queries, pool, 0)
        with pytest.raises(KOutOfRangeError):
            recall_at_k(queries, pool, 6)
        with pytest.raises(KOutOfRangeError):
            cosine_by_rank(queries, pool, 0)
        with pytest.raises(KOutOfRangeError):
            build_report(queries, pool, k_values=[1, 6])


class TestRecall:
    def test_recall_monotone_in_k(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            pool = build_global_pool([make_candidates(rng, 30, 5)])
            queries = make_query_set(rng, pool, 10, 5, gt_per_query=2)
            recalls = [recall_at_k(queries, pool, k) for k in (1, 2, 4, 8, 16, 30)]
            assert all(a <= b for a, b in zip(recalls, recalls[1:]))
            assert recalls[-1] == 1.0  # K = pool size always hits

    def test_recall_hand_case(self):
        # Two orthogonal candidates; the query sits on candidate 0.
        cands = [
            Candidate(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.IMAGE),
            Candidate(id=1, embedding=np.array([0.0, 1.0]), modality=Modality.IMAGE),
        ]
        pool = build_local_pool(bank(cands))
        q_hit = Query(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.TEXT)
        q_miss = Query(id=1, embedding=np.array([1.0, 0.0]), modality=Modality.TEXT)
        queries = QuerySet(queries=[q_hit, q_miss], ground_truth={0: {0}, 1: {1}})
        assert recall_at_k(queries, pool, 1) == 0.5
        assert recall_at_k(queries, pool, 2) == 1.0

    def test_ground_truth_must_exist_in_pool(self):
        rng = np.random.default_rng(5)
        pool = build_global_pool([make_candidates(rng, 5, 3)])
        q = Query(id=0, embedding=unit_rows(rng, 1, 3)[0], modality=Modality.TEXT)
        queries = QuerySet(queries=[q], ground_truth={0: {99}})
        with pytest.raises(ConfigError, match="not in pool"):
            recall_at_k(queries, pool, 1)

    def test_local_pool_recall_at_least_global(self):
        # The local pool is a subset of the global pool containing all the
        # ground truth, so every ground-truth rank can only improve locally.
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            local_bank = make_candidates(rng, 15, 4, Modality.IMAGE)
            other_bank = make_candidates(rng, 25, 4, Modality.TEXT, id_offset=100)
            local = build_local_pool(bank(local_bank))
            global_pool = build_global_pool([local_bank, other_bank])
            queries = make_query_set(rng, local, 8, 4)
            for k in (1, 3, 5):
                assert recall_at_k(queries, local, k) >= recall_at_k(queries, global_pool, k)


class TestRankOfGroundTruth:
    def test_ranks_match_oracle(self, row_floor_blocks):
        # The last case has 150 queries: two full score blocks and a partial one.
        for seed, n_queries in [(s, 6) for s in range(30)] + [(30, 150)]:
            rng = np.random.default_rng(300 + seed)
            cands = make_candidates(rng, 25, 4)
            pool = build_global_pool([cands])
            queries = make_query_set(rng, pool, n_queries, 4, gt_per_query=3)
            ranks, _ = rank_of_ground_truth(queries, pool)
            for q, rank in zip(queries.queries, ranks):
                order = oracle_ranking(q.embedding, cands)
                expected = min(order.index(g) + 1 for g in queries.ground_truth[q.id])
                assert rank == expected

    def test_tied_ground_truth_takes_the_lower_id(self):
        cands = [
            Candidate(id=cid, embedding=np.array(emb), modality=Modality.IMAGE)
            for cid, emb in ((9, [0.6, 0.8]), (4, [0.6, 0.8]), (6, [1.0, 0.0]), (2, [0.0, 1.0]))
        ]
        pool = build_local_pool(bank(cands))
        q = Query(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.TEXT)
        queries = QuerySet(queries=[q], ground_truth={0: {9, 4}})
        # Order: 6 (1.0), then 4 and 9 tied at 0.6 with 4 first, then 2.
        ranks, _ = rank_of_ground_truth(queries, pool)
        assert ranks == [2]
        assert build_report(queries, pool, k_values=[1])["gt_cosines"] == [pytest.approx(0.6)]

    def test_histogram_buckets_are_powers_of_two(self):
        rng = np.random.default_rng(6)
        pool = build_global_pool([make_candidates(rng, 20, 4)])
        queries = make_query_set(rng, pool, 12, 4)
        ranks, hist = rank_of_ground_truth(queries, pool)
        assert list(hist.keys()) == ["1", "2-3", "4-7", "8-15", "16-20"]
        assert sum(hist.values()) == len(ranks) == 12

    def test_histogram_counts_hand_case(self):
        emb = np.eye(4)
        cands = [
            Candidate(id=i, embedding=emb[i], modality=Modality.IMAGE)
            for i in range(4)
        ]
        pool = build_local_pool(bank(cands))
        # Query along axis 0 with ground truth at id 2: rank of id 2 is
        # decided by the id tie-break among the three zero-score candidates.
        q = Query(id=0, embedding=emb[0], modality=Modality.TEXT)
        queries = QuerySet(queries=[q], ground_truth={0: {2}})
        ranks, hist = rank_of_ground_truth(queries, pool)
        assert ranks == [3]
        assert hist == {"1": 0, "2-3": 1, "4": 0}

    def test_bad_bucket_edges_rejected(self):
        rng = np.random.default_rng(7)
        pool = build_global_pool([make_candidates(rng, 5, 3)])
        queries = make_query_set(rng, pool, 2, 3)
        with pytest.raises(ConfigError):
            rank_of_ground_truth(queries, pool, bucket_edges=[2, 1])
        with pytest.raises(ConfigError):
            rank_of_ground_truth(queries, pool, bucket_edges=[0, 1])


class TestCosines:
    def test_gt_cosine_picks_best_ranked(self):
        cands = [
            Candidate(id=0, embedding=np.array([1.0, 0.0]), modality=Modality.IMAGE),
            Candidate(id=1, embedding=np.array([0.0, 1.0]), modality=Modality.IMAGE),
        ]
        pool = build_local_pool(bank(cands))
        q = Query(id=0, embedding=np.array([0.6, 0.8]), modality=Modality.TEXT)
        queries = QuerySet(queries=[q], ground_truth={0: {0, 1}})
        # id 1 scores 0.8 > 0.6, so the best ground truth is id 1.
        assert build_report(queries, pool, k_values=[1])["gt_cosines"] == [pytest.approx(0.8)]

    def test_cosine_by_rank_non_increasing_per_query(self):
        # With a single query the mean curve is that query's own sorted
        # scores, which must be non-increasing by construction.
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            pool = build_global_pool([make_candidates(rng, 15, 4)])
            queries = make_query_set(rng, pool, 1, 4)
            curve = cosine_by_rank(queries, pool, 15)
            assert np.all(np.diff(curve) <= 1e-12)

    def test_cosine_by_rank_matches_oracle(self, row_floor_blocks):
        # 150 queries span two full score blocks and a partial one.
        rng = np.random.default_rng(8)
        cands = make_candidates(rng, 10, 3)
        pool = build_global_pool([cands])
        for n_queries in (4, 150):
            queries = make_query_set(rng, pool, n_queries, 3)
            assert np.array_equal(cosine_by_rank(queries, pool, 5), oracle_curve(queries, cands, 5))

    def test_cosine_by_rank_ties_straddling_cut(self, row_floor_blocks):
        # Six candidates tie at score 0.6 across the cut at rank 5, so the head
        # must take the tied ids in ascending order, not in partition order.
        rng = np.random.default_rng(15)
        rows = [[1.0, 0.0]] * 3 + [[0.6, 0.8], [0.6, -0.8]] * 3 + [[0.0, 1.0]] * 4
        ids = rng.permutation(100)[: len(rows)]
        cands = [
            Candidate(id=int(cid), embedding=np.array(row), modality=Modality.IMAGE)
            for cid, row in zip(ids, rows)
        ]
        pool = build_local_pool(bank(cands))
        query = np.array([1.0, 0.0])
        scores = np.array(rows) @ query
        heads = evaluation._heads(np.tile(scores, (3, 1)), ids, 5)
        assert ids[heads].tolist() == [oracle_ranking(query, cands)[:5]] * 3
        queries = QuerySet(
            queries=[Query(id=i, embedding=query, modality=Modality.TEXT) for i in range(70)],
            ground_truth={i: {int(ids[0])} for i in range(70)},
        )
        for max_rank in (4, 5, 9, 13):
            assert np.array_equal(cosine_by_rank(queries, pool, max_rank), oracle_curve(queries, cands, max_rank))

    def test_cosine_by_rank_range_check(self):
        rng = np.random.default_rng(9)
        pool = build_global_pool([make_candidates(rng, 5, 3)])
        queries = make_query_set(rng, pool, 2, 3)
        with pytest.raises(KOutOfRangeError):
            cosine_by_rank(queries, pool, 6)


class TestReport:
    def test_report_consistent_with_metric_functions(self):
        rng = np.random.default_rng(10)
        cands = make_candidates(rng, 40, 5)
        pool = build_global_pool([cands])
        queries = make_query_set(rng, pool, 15, 5, gt_per_query=2)
        report = build_report(queries, pool, k_values=[1, 5, 10])
        for k in (1, 5, 10):
            assert report["recall_at"][str(k)] == pytest.approx(recall_at_k(queries, pool, k))
        ranks, hist = rank_of_ground_truth(queries, pool)
        assert report["ranks"] == ranks
        assert report["rank_histogram"] == hist
        # the best-ranked ground truth is the one with the highest cosine
        best_gt = [
            max(float(q.embedding @ c.embedding) for c in cands if c.id in queries.ground_truth[q.id])
            for q in queries.queries
        ]
        assert report["gt_cosines"] == pytest.approx(best_gt, abs=1e-12)

    def test_one_candidate_pool(self):
        cand = Candidate(id=5, embedding=np.array([0.6, 0.8]), modality=Modality.IMAGE)
        pool = build_local_pool(bank([cand]))
        queries = QuerySet(
            queries=[Query(id=i, embedding=np.array(e), modality=Modality.TEXT) for i, e in enumerate(([1.0, 0.0], [0.0, 1.0]))],
            ground_truth={0: {5}, 1: {5}},
        )
        report = build_report(queries, pool, k_values=[1])
        assert report["ranks"] == [1, 1]
        assert report["rank_histogram"] == {"1": 2}
        assert report["recall_at"] == {"1": 1.0}
        assert report["gt_cosines"] == [pytest.approx(0.6), pytest.approx(0.8)]
        assert np.array_equal(cosine_by_rank(queries, pool, 1), oracle_curve(queries, [cand], 1))

    def test_report_recall_monotone(self):
        rng = np.random.default_rng(12)
        pool = build_global_pool([make_candidates(rng, 60, 6)])
        queries = make_query_set(rng, pool, 20, 6)
        report = build_report(queries, pool, k_values=[1, 5, 10, 20, 50])
        values = [report["recall_at"][str(k)] for k in report["k_values"]]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rank_cap_records_both_conventions(self):
        emb = np.eye(3)
        cands = [
            Candidate(id=i, embedding=emb[i], modality=Modality.IMAGE)
            for i in range(3)
        ]
        pool = build_local_pool(bank(cands))
        q0 = Query(id=0, embedding=emb[0], modality=Modality.TEXT)  # GT rank 1
        q1 = Query(id=1, embedding=emb[0], modality=Modality.TEXT)  # GT id 2 -> rank 3
        queries = QuerySet(queries=[q0, q1], ground_truth={0: {0}, 1: {2}})
        report = build_report(queries, pool, k_values=[1], rank_cap=2)
        assert report["ranks"] == [1, 3]            # raw ranks stay exact
        assert report["capped_ranks"] == [1, 2]     # clipped convention
        assert report["dropped_beyond_cap"] == 1    # dropped convention
        assert report["rank_cap"] == 2
        uncapped = build_report(queries, pool, k_values=[1])
        assert not {"rank_cap", "capped_ranks", "dropped_beyond_cap"} & set(uncapped)

    def test_csv_one_row_per_query(self):
        rng = np.random.default_rng(13)
        pool = build_global_pool([make_candidates(rng, 10, 4)])
        queries = make_query_set(rng, pool, 5, 4)
        report = build_report(queries, pool, k_values=[1, 5])
        lines = report_csv(report).strip().split("\n")
        assert lines[0] == "query_id,best_gt_rank,gt_cosine,hit@1,hit@5"
        assert len(lines) == 6
        for line, rank in zip(lines[1:], report["ranks"]):
            cols = line.split(",")
            assert int(cols[1]) == rank
            assert cols[3] == str(int(rank <= 1))
            assert cols[4] == str(int(rank <= 5))

    def test_json_round_trip_stable(self):
        import json

        rng = np.random.default_rng(14)
        pool = build_global_pool([make_candidates(rng, 8, 3)])
        queries = make_query_set(rng, pool, 3, 3)
        report = build_report(queries, pool, k_values=[1, 2])
        text = json.dumps(report, sort_keys=True)
        assert text == json.dumps(build_report(queries, pool, k_values=[1, 2]), sort_keys=True)
        assert json.loads(text) == report


class TestBenchmarkScaleAnalog:
    def test_mixed_pool_at_benchmark_scale(self):
        # 250 queries against a 2900-candidate mixed pool: the shape of the
        # standard evaluation. Verifies the exhaustive path handles it and
        # stays consistent with the oracle on a sample of queries.
        rng = np.random.default_rng(999)
        banks = [
            make_candidates(rng, 1000, 8, Modality.IMAGE, id_offset=0),
            make_candidates(rng, 1000, 8, Modality.TEXT, id_offset=1000),
            make_candidates(rng, 900, 8, Modality.FUSED, id_offset=2000),
        ]
        pool = build_global_pool(banks)
        assert pool.size == 2900
        queries = make_query_set(rng, pool, 250, 8, gt_per_query=1)
        report = build_report(queries, pool, k_values=[1, 5, 10, 20, 50])
        assert len(report["ranks"]) == 250
        values = [report["recall_at"][str(k)] for k in report["k_values"]]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for q, rank in list(zip(queries.queries, report["ranks"]))[:5]:
            order = oracle_ranking(q.embedding, [c for bank in banks for c in bank])
            assert rank == min(order.index(g) + 1 for g in queries.ground_truth[q.id])


def oracle_heads(scores, ids, max_rank):
    """Each row's first max_rank candidate ids by (descending score, ascending id)."""
    return [[cid for _, cid in sorted(zip((-row).tolist(), ids.tolist()))][:max_rank] for row in scores]


def tied_candidates(rng, n, ids):
    """Candidates drawn from three directions, so many score exactly alike."""
    directions = unit_rows(rng, 3, 4)
    return [
        Candidate(id=int(cid), embedding=directions[rng.integers(3)], modality=Modality.IMAGE)
        for cid in ids[:n]
    ]


class TestTiePaths:
    """Each place where ids, not scores, decide an order, against brute force."""

    def test_tie_exactly_at_head_boundary(self):
        # The 4th and 5th best scores are equal and no other scores tie, so only
        # the cut's tie-break can say which of the two ids is in the top 4.
        rng = np.random.default_rng(21)
        base = np.array([0.9, 0.8, 0.7, 0.5, 0.5, 0.3, 0.2, 0.1, 0.0])
        scores = np.stack([rng.permutation(base) for _ in range(40)])
        for trial in range(10):
            ids = rng.choice(100, size=len(base), replace=False)
            heads = evaluation._heads(scores, ids, 4)
            assert ids[heads].tolist() == oracle_heads(scores, ids, 4), trial

    def test_pool_size_equals_max_rank(self, row_floor_blocks):
        rng = np.random.default_rng(22)
        for seed in range(20):
            n = int(rng.integers(1, 12))
            ids = rng.choice(50, size=n, replace=False)
            scores = rng.integers(0, 3, size=(7, n)) / 2.0  # heavy ties
            assert ids[evaluation._heads(scores, ids, n)].tolist() == oracle_heads(scores, ids, n)
            cands = tied_candidates(rng, n, ids)
            pool = build_global_pool([cands])
            queries = make_query_set(rng, pool, 70, 4)
            assert np.array_equal(cosine_by_rank(queries, pool, n), oracle_curve(queries, cands, n))
            assert np.array_equal(cosine_by_rank(queries, pool, n - 1 or 1), oracle_curve(queries, cands, n - 1 or 1))

    @pytest.mark.parametrize("gt_per_query", [1, 2, 3])
    def test_tied_ground_truth_score(self, gt_per_query, row_floor_blocks):
        # Ground truth shares its score with candidates of lower and higher ids,
        # in the one-ground-truth path and the several-ground-truth path; 70
        # queries span two score blocks.
        rng = np.random.default_rng(23 + gt_per_query)
        for trial in range(10):
            ids = rng.choice(200, size=30, replace=False)
            cands = tied_candidates(rng, 30, ids)
            pool = build_global_pool([cands])
            directions = unit_rows(rng, 2, 4)
            queries, gt = [], {}
            for i in range(70):
                queries.append(Query(id=i, embedding=directions[i % 2], modality=Modality.TEXT))
                gt[i] = set(rng.choice(ids, size=gt_per_query, replace=False).tolist())
            query_set = QuerySet(queries=queries, ground_truth=gt)
            ranks, _ = rank_of_ground_truth(query_set, pool)
            for q, rank in zip(queries, ranks):
                order = oracle_ranking(q.embedding, cands)
                assert rank == min(order.index(g) + 1 for g in gt[q.id]), (trial, q.id)


def grid_rows(rng, n, d):
    """Rows of multiples of 1/4 in [-1/2, 1/2]: every dot product is exact, so
    equal rows score equally under any summation order, and ties abound."""
    return rng.integers(-2, 3, size=(n, d)) / 4.0


def sorted_order(rows, ids, query):
    """Columns by (descending score, ascending id), and the scores."""
    scores = rows @ query
    return np.lexsort((ids, -scores)), scores


def plant_ties(banks, rows, ids, local_rank, max_rank):
    """Copy candidate rows so that query 0 ties at bank 0's cut, inside bank
    1's head and across the global cut between two banks, and query 1's
    ground truth in bank 2 ties with a lower id far beyond the global head."""
    n = len(rows)
    if local_rank < n:
        order, _ = sorted_order(banks[0], ids[0], rows[0])
        banks[0][order[local_rank]] = banks[0][order[local_rank - 1]]
    if n > 1:
        order, _ = sorted_order(banks[1], ids[1], rows[0])
        banks[1][order[1]] = banks[1][order[0]]
    stacked, every_id = np.vstack(banks), np.concatenate(ids)
    if max_rank < 3 * n:
        order, _ = sorted_order(stacked, every_id, rows[0])
        at_cut = order[max_rank - 1]
        below = [c for c in order[max_rank:] if c // n != at_cut // n]
        if below:
            banks[below[-1] // n][below[-1] % n] = stacked[at_cut]
    stacked = np.vstack(banks)
    order, _ = sorted_order(stacked, every_id, rows[1 % n])
    lower = [c for c in order if every_id[c] < ids[2][1 % n]]
    if lower:
        banks[2][1 % n] = stacked[lower[-1]]


class TestOnePass:
    """rank_banks, one pass over the stacked banks, against independent
    single-pool build_report and cosine_by_rank calls and the sort oracle."""

    @staticmethod
    def entry(queries, pool, k_values, rank_cap):
        report = build_report(queries, pool, k_values, rank_cap)
        return {**report, "cosine_by_rank": cosine_by_rank(queries, pool, k_values[-1]).tolist()}

    def test_matches_single_pool_calls(self):
        seen = Counter()
        for seed in range(90):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(1, 25)), int(rng.integers(2, 6))
            exact = seed % 3 > 0  # the other trials have random unit rows, whose heads rarely tie
            draw = grid_rows if exact else unit_rows
            banks, rows = [draw(rng, n, d) for _ in range(3)], draw(rng, n, d)
            ids = [np.arange(b, 3 * n, 3) for b in range(3)]
            grid = [1, 2, 5, n, n + 1, 2 * n, 3 * n]
            k_values = sorted({int(rng.integers(1, n + 1)), *rng.choice(grid, size=2).tolist()} - {0})
            rank_cap = [None, 1, 3, n][seed % 4]
            global_k, local_k = [k for k in k_values if k <= 3 * n], [k for k in k_values if k <= n]
            if exact:
                plant_ties(banks, rows, ids, local_k[-1], global_k[-1])
            pool = build_global_pool([Bank(ids[b], banks[b]) for b in range(3)])
            stacked, every_id = np.vstack(banks), np.concatenate(ids)
            # the same candidates as one bank: its head is one argpartition over all 3n
            # columns, where the three-bank pool's is merged from the bank heads
            merged = build_global_pool([[Candidate(int(i), row, Modality.IMAGE) for i, row in zip(every_id, stacked)]])
            for b, (in_global, in_local) in enumerate(rank_banks(rows, pool, global_k[-1], local_k[-1])):
                queries = QuerySet([Query(i, rows[i], Modality.TEXT) for i in range(n)], {i: {3 * i + b} for i in range(n)})
                local = build_local_pool(Bank(ids[b], banks[b]))
                assert self.entry(in_global, pool, global_k, rank_cap) == self.entry(queries, merged, global_k, rank_cap)
                assert self.entry(in_local, local, local_k, rank_cap) == self.entry(queries, local, local_k, rank_cap)
                for ranked, cand_rows, cand_ids, k in ((in_global, stacked, every_id, global_k), (in_local, banks[b], ids[b], local_k)):
                    m = k[-1]
                    for q, rank in enumerate(ranked.ranks.tolist()):
                        order, scores = sorted_order(cand_rows, cand_ids, rows[q])
                        assert rank == 1 + order.tolist().index(int(np.flatnonzero(cand_ids == 3 * q + b)[0])), (seed, b, q)
                        s = scores[order]
                        seen["tie inside a head"] += bool(exact and (s[1:m] == s[: m - 1]).any())
                        seen["tie at a cut"] += bool(exact and m < len(s) and s[m - 1] == s[m])
                        seen["tied ground truth beyond max_rank"] += bool(exact and rank > m and (s == s[rank - 1]).sum() > 1)
                        if len(cand_ids) == 3 * n and m < 3 * n and s[m - 1] == s[m]:
                            seen["tie at the global cut across banks"] += bool(cand_ids[order[m - 1]] % 3 != cand_ids[order[m]] % 3)
            seen["pool size equals max K"] += local_k[-1] == n or global_k[-1] == 3 * n
            seen["a K fits the global pool only"] += global_k[-1] > n
            seen["rank_cap set"] += rank_cap is not None
        assert all(seen[kind] > 0 for kind in (
            "tie inside a head", "tie at a cut", "tied ground truth beyond max_rank", "tie at the global cut across banks",
            "pool size equals max K", "a K fits the global pool only", "rank_cap set")), seen

    def test_blocks_do_not_change_the_result(self, monkeypatch):
        # 150 query rows of exact, heavily tied scores: one block, then three
        rng = np.random.default_rng(41)
        banks, rows = [grid_rows(rng, 150, 3) for _ in range(3)], grid_rows(rng, 150, 3)
        pool = build_global_pool([Bank(np.arange(b, 450, 3), banks[b]) for b in range(3)])
        one_block = rank_banks(rows, pool, 20, 10)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 0)
        for task, (in_global, in_local) in zip(one_block, rank_banks(rows, pool, 20, 10)):
            for a, b in zip(task, (in_global, in_local)):
                assert np.array_equal(a.ranks, b.ranks) and np.array_equal(a.curve, b.curve)
                assert a.gt_cosines == b.gt_cosines

    def test_pass_result_is_read_only_in_its_own_pool(self):
        rng = np.random.default_rng(42)
        banks, rows = [unit_rows(rng, 6, 3) for _ in range(3)], unit_rows(rng, 6, 3)
        pool = build_global_pool([Bank(np.arange(b, 18, 3), banks[b]) for b in range(3)])
        (in_global, in_local), *_ = rank_banks(rows, pool, 4, 2)
        local = build_local_pool(Bank(np.arange(0, 18, 3), banks[0]))
        assert build_report(in_local, local, [1, 2])["ranks"] == in_local.ranks.tolist()
        with pytest.raises(ConfigError, match="not this pool's 6"):
            build_report(in_global, local, [1])
        with pytest.raises(ConfigError, match="not this pool's 18"):
            cosine_by_rank(in_local, pool, 2)
        # the curve was kept to rank 2 (local) and 4 (global), not to the pool size
        with pytest.raises(KOutOfRangeError, match="beyond the 2 ranks"):
            cosine_by_rank(in_local, local, 3)
        with pytest.raises(KOutOfRangeError, match="beyond the 4 ranks"):
            cosine_by_rank(in_global, pool, 5)


def csv_module_table(report):
    """The per-query table as the csv module writes it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    k_values = report["k_values"]
    writer.writerow(["query_id", "best_gt_rank", "gt_cosine"] + [f"hit@{k}" for k in k_values])
    for qid, rank, cos in zip(report["query_ids"], report["ranks"], report["gt_cosines"]):
        writer.writerow([qid, rank, f"{cos:.8f}"] + [int(rank <= k) for k in k_values])
    return buffer.getvalue()


@pytest.mark.parametrize("rank_cap", [None, 3])
@pytest.mark.parametrize("k_values", [[1, 5, 10], [4], [1, 2, 3, 40]])
def test_csv_matches_csv_module(rank_cap, k_values):
    rng = np.random.default_rng(31)
    pool = build_global_pool([make_candidates(rng, 40, 5)])
    queries = make_query_set(rng, pool, 90, 5, gt_per_query=2)
    report = build_report(queries, pool, k_values=k_values, rank_cap=rank_cap)
    assert report_csv(report) == csv_module_table(report)
