"""Loss contracts: oracle equivalence, closed-form anchors, gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gcl_lab.embeddings import EmbeddingMatrix, Modality, l2_normalize_rows
from gcl_lab.errors import (
    BatchTooSmallError,
    ConfigError,
    EmptyPairSetError,
    InvalidTemperatureError,
)
from gcl_lab.losses import (
    ABLATION_DROPS,
    CL_PAIR_SET,
    FULL_PAIR_SET,
    DenominatorMode,
    LossConfig,
    LossGrads,
    LossOutput,
    TripletBatch,
    cl_loss,
    gcl_loss,
    gcl_loss_ablation,
    intra_modality_separation_loss,
    loss_gradient_check,
    pair_name,
    parse_pair,
)

from oracles import oracle_cl, oracle_gcl, oracle_imsep


def random_batch(rng, n, d, validate_norms=True):
    """Triplet of independent random unit-row matrices."""
    return TripletBatch.from_rows(
        l2_normalize_rows(rng.standard_normal((n, d))),
        l2_normalize_rows(rng.standard_normal((n, d))),
        l2_normalize_rows(rng.standard_normal((n, d))),
        validate_norms=validate_norms,
    )


def uniform_batch(n, d):
    """All 3N embeddings equal to the same unit vector."""
    row = np.zeros(d)
    row[0] = 1.0
    rows = np.tile(row, (n, 1))
    return TripletBatch.from_rows(rows, rows.copy(), rows.copy())


def pairs_as_codes(pair_set):
    return tuple((a.code, b.code) for a, b in pair_set)


class TestPairNames:
    def test_roundtrip(self):
        for pair in FULL_PAIR_SET:
            assert parse_pair(pair_name(pair)) == pair

    def test_bad_names(self):
        for bad in ("i2x", "foo", "i2t2it", "it2it"):
            with pytest.raises(ConfigError):
                parse_pair(bad)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.tau == 0.07
        assert cfg.pair_set == FULL_PAIR_SET
        assert cfg.denominator_mode is DenominatorMode.ALGORITHM_MASKED
        assert cfg.resolve_normalization(4) == 24.0

    def test_canonical_pair_order(self):
        cfg = LossConfig(pair_set=tuple(reversed(FULL_PAIR_SET)))
        assert cfg.pair_set == FULL_PAIR_SET

    def test_invalid_tau(self):
        with pytest.raises(InvalidTemperatureError):
            LossConfig(tau=-0.1)

    def test_empty_pair_set(self):
        with pytest.raises(EmptyPairSetError):
            LossConfig(pair_set=())

    def test_duplicate_pairs(self):
        pair = FULL_PAIR_SET[0]
        with pytest.raises(ConfigError):
            LossConfig(pair_set=(pair, pair))


class TestClLoss:
    def test_n1_is_zero(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 1, 4)
        out = cl_loss(batch.images, batch.texts)
        assert out.value == 0.0

    def test_n2_identical_is_log2(self):
        batch = uniform_batch(2, 3)
        out = cl_loss(batch.images, batch.texts)
        assert out.value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_uniform_is_log_n(self):
        for n in (2, 3, 5, 8):
            batch = uniform_batch(n, 4)
            out = cl_loss(batch.images, batch.texts)
            assert out.value == pytest.approx(math.log(n), abs=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            batch = random_batch(rng, 5, 8)
            out = cl_loss(batch.images, batch.texts, LossConfig(tau=0.07, pair_set=CL_PAIR_SET))
            want_value, want_terms = oracle_cl(batch.images.rows, batch.texts.rows, 0.07)
            assert abs(out.value - want_value) < 1e-12
            for key, val in want_terms.items():
                assert abs(out.per_term[key] - val) < 1e-12

    def test_rejects_full_pair_set(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 3, 4)
        with pytest.raises(ConfigError):
            cl_loss(batch.images, batch.texts, LossConfig())

    def test_fused_grad_is_zero(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 4, 5)
        out = cl_loss(batch.images, batch.texts)
        assert np.all(out.grads.fused == 0.0)


class TestGclLoss:
    def test_n1_masked_exactly_zero(self):
        rng = np.random.default_rng(3)
        for tau in (0.05, 0.07, 0.5, 1.0):
            batch = random_batch(rng, 1, 6)
            out = gcl_loss(batch, LossConfig(tau=tau))
            assert out.value == 0.0
            assert all(v == 0.0 for v in out.per_term.values())
            for g in (out.grads.images, out.grads.texts, out.grads.fused):
                assert np.all(g == 0.0)

    def test_n1_masked_zero_for_subsets(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, 1, 4)
        for k in range(1, len(FULL_PAIR_SET) + 1):
            cfg = LossConfig(pair_set=FULL_PAIR_SET[:k])
            assert gcl_loss(batch, cfg).value == 0.0

    def test_n2_identical_masked_is_log7(self):
        batch = uniform_batch(2, 4)
        out = gcl_loss(batch)
        # each denominator: numerator + 3*N*(N-1) = 7 equal entries
        assert out.value == pytest.approx(math.log(7.0), abs=1e-9)

    def test_uniform_value_independent_of_tau(self):
        batch = uniform_batch(3, 5)
        values = [gcl_loss(batch, LossConfig(tau=tau)).value for tau in (0.05, 0.07, 0.3, 1.0)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-12)

    def test_matches_oracle_both_modes(self):
        rng = np.random.default_rng(7)
        for mode, masked in ((DenominatorMode.ALGORITHM_MASKED, True), (DenominatorMode.EQUATION_LITERAL, False)):
            batch = random_batch(rng, 4, 6)
            out = gcl_loss(batch, LossConfig(denominator_mode=mode))
            want_value, want_terms = oracle_gcl(
                batch.images.rows, batch.texts.rows, batch.fused.rows,
                masked=masked,
            )
            assert abs(out.value - want_value) < 1e-12
            for key, val in want_terms.items():
                assert abs(out.per_term[key] - val) < 1e-12

    def test_matches_oracle_on_subsets(self):
        rng = np.random.default_rng(8)
        subsets = (FULL_PAIR_SET[:2], FULL_PAIR_SET[2:], FULL_PAIR_SET[::2], FULL_PAIR_SET[1:])
        for pair_set in subsets:
            batch = random_batch(rng, 3, 5)
            out = gcl_loss(batch, LossConfig(pair_set=pair_set))
            want_value, _ = oracle_gcl(
                batch.images.rows, batch.texts.rows, batch.fused.rows,
                pairs=pairs_as_codes(pair_set), masked=True,
            )
            assert abs(out.value - want_value) < 1e-12

    def test_modes_actually_differ(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng, 4, 6)
        masked = gcl_loss(batch, LossConfig(denominator_mode=DenominatorMode.ALGORITHM_MASKED))
        literal = gcl_loss(batch, LossConfig(denominator_mode=DenominatorMode.EQUATION_LITERAL))
        assert abs(masked.value - literal.value) > 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 6, 5)
        perm = rng.permutation(6)
        permuted = TripletBatch.from_rows(
            batch.images.rows[perm], batch.texts.rows[perm], batch.fused.rows[perm]
        )
        base = gcl_loss(batch)
        moved = gcl_loss(permuted)
        assert moved.value == pytest.approx(base.value, abs=1e-12)
        np.testing.assert_allclose(moved.grads.images, base.grads.images[perm], atol=1e-12)
        np.testing.assert_allclose(moved.grads.texts, base.grads.texts[perm], atol=1e-12)
        np.testing.assert_allclose(moved.grads.fused, base.grads.fused[perm], atol=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            batch = random_batch(rng, n, 4)
            mode = DenominatorMode.ALGORITHM_MASKED if rng.random() < 0.5 else DenominatorMode.EQUATION_LITERAL
            assert gcl_loss(batch, LossConfig(denominator_mode=mode)).value >= 0.0

    def test_value_matches_per_term_recombination(self):
        rng = np.random.default_rng(12)
        for norm in (None, 5.0, 17.0):
            batch = random_batch(rng, 4, 5)
            cfg = LossConfig(normalization=norm)
            out = gcl_loss(batch, cfg)
            recombined = sum(out.per_term.values()) * batch.n / cfg.resolve_normalization(batch.n)
            assert abs(out.value - recombined) < 1e-12

    def test_untouched_query_modality_still_gets_candidate_grads(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, 3, 4)
        # fused appears only as candidate here; its grad must still be nonzero
        cfg = LossConfig(pair_set=((Modality.IMAGE, Modality.FUSED), (Modality.TEXT, Modality.FUSED)))
        out = gcl_loss(batch, cfg)
        assert np.any(out.grads.fused != 0.0)


class TestAblations:
    def test_pair_keys_are_the_retained_four(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 3, 4)
        for drop, removed in ABLATION_DROPS.items():
            out = gcl_loss_ablation(batch, drop)
            removed_names = {pair_name(p) for p in removed}
            kept_names = {pair_name(p) for p in FULL_PAIR_SET} - removed_names
            assert set(out.per_term) == kept_names

    def test_matches_restricted_gcl(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, 4, 6)
        for drop, removed in ABLATION_DROPS.items():
            kept = tuple(p for p in FULL_PAIR_SET if p not in set(removed))
            direct = gcl_loss(batch, LossConfig(pair_set=kept, normalization=float(4 * batch.n)))
            ablated = gcl_loss_ablation(batch, drop)
            assert ablated.value == pytest.approx(direct.value, abs=1e-15)
            for key in direct.per_term:
                assert ablated.per_term[key] == pytest.approx(direct.per_term[key], abs=1e-15)

    def test_drop_it_query_uniform_is_log7(self):
        batch = uniform_batch(2, 3)
        out = gcl_loss_ablation(batch, "it_query")
        assert out.value == pytest.approx(math.log(7.0), abs=1e-9)

    def test_n1_is_zero(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, 1, 4)
        assert gcl_loss_ablation(batch, "cross_modal").value == 0.0

    def test_unknown_drop(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, 2, 3)
        with pytest.raises(ConfigError):
            gcl_loss_ablation(batch, "everything")


class TestIntraModalitySeparation:
    def test_orthonormal_hand_value(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        images = EmbeddingMatrix(rows, Modality.IMAGE)
        texts = EmbeddingMatrix(rows.copy(), Modality.TEXT)
        out = intra_modality_separation_loss(images, texts, LossConfig(tau=1.0, pair_set=CL_PAIR_SET))
        cl_part = cl_loss(images, texts, LossConfig(tau=1.0, pair_set=CL_PAIR_SET))
        sep_per_query = -math.log(math.e / (math.e + 1.0))
        assert sep_per_query == pytest.approx(0.313262, abs=1e-6)
        assert out.value == pytest.approx(cl_part.value + sep_per_query, abs=1e-9)

    def test_identical_pairs_sep_term_is_log2(self):
        batch = uniform_batch(2, 3)
        out = intra_modality_separation_loss(batch.images, batch.texts)
        assert out.per_term["sep_i"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert out.per_term["sep_t"] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            batch = random_batch(rng, 5, 7)
            out = intra_modality_separation_loss(batch.images, batch.texts)
            want = oracle_imsep(batch.images.rows, batch.texts.rows, 0.07)
            assert abs(out.value - want) < 1e-12

    def test_batch_too_small(self):
        rng = np.random.default_rng(19)
        batch = random_batch(rng, 1, 4)
        with pytest.raises(BatchTooSmallError):
            intra_modality_separation_loss(batch.images, batch.texts)


class TestGradientCheck:
    def test_constant_stub_is_exactly_zero(self):
        rng = np.random.default_rng(20)
        batch = random_batch(rng, 2, 3)

        def constant(b):
            return LossOutput(
                value=1.5,
                per_term={},
                grads=LossGrads(
                    np.zeros_like(b.images.rows), np.zeros_like(b.texts.rows), np.zeros_like(b.fused.rows)
                ),
            )

        assert loss_gradient_check(constant, batch, 1e-5) == 0.0

    def test_epsilon_range_enforced(self):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, 2, 3)
        for eps in (1e-8, 1e-2):
            with pytest.raises(ConfigError):
                loss_gradient_check(gcl_loss, batch, eps)

    def test_gcl_gradients(self):
        rng = np.random.default_rng(22)
        batch = random_batch(rng, 3, 5)
        assert loss_gradient_check(gcl_loss, batch, 1e-5) < 1e-6

    def test_gcl_literal_gradients(self):
        rng = np.random.default_rng(23)
        batch = random_batch(rng, 3, 4)
        fn = lambda b: gcl_loss(b, LossConfig(denominator_mode=DenominatorMode.EQUATION_LITERAL))
        assert loss_gradient_check(fn, batch, 1e-5) < 1e-6

    def test_cl_gradients(self):
        rng = np.random.default_rng(24)
        batch = random_batch(rng, 2, 3)
        fn = lambda b: cl_loss(b.images, b.texts)
        assert loss_gradient_check(fn, batch, 1e-5) < 1e-6

    def test_imsep_gradients(self):
        rng = np.random.default_rng(25)
        batch = random_batch(rng, 3, 4)
        fn = lambda b: intra_modality_separation_loss(b.images, b.texts)
        assert loss_gradient_check(fn, batch, 1e-5) < 1e-6

    def test_ablation_gradients(self):
        rng = np.random.default_rng(26)
        for drop in ABLATION_DROPS:
            batch = random_batch(rng, 3, 4)
            fn = lambda b, d=drop: gcl_loss_ablation(b, d)
            assert loss_gradient_check(fn, batch, 1e-5) < 1e-6

    def test_tau_gradient_finite_difference(self):
        rng = np.random.default_rng(27)
        batch = random_batch(rng, 4, 5)
        eps = 1e-6
        for fn in (
            lambda b, tau: gcl_loss(b, LossConfig(tau=tau)),
            lambda b, tau: gcl_loss(
                b, LossConfig(tau=tau, denominator_mode=DenominatorMode.EQUATION_LITERAL)
            ),
            lambda b, tau: gcl_loss_ablation(b, "it_candidate", LossConfig(tau=tau)),
            lambda b, tau: cl_loss(b.images, b.texts, LossConfig(tau=tau, pair_set=CL_PAIR_SET)),
            lambda b, tau: intra_modality_separation_loss(
                b.images, b.texts, LossConfig(tau=tau, pair_set=CL_PAIR_SET)
            ),
        ):
            out = fn(batch, 0.07)
            numeric = (fn(batch, 0.07 + eps).value - fn(batch, 0.07 - eps).value) / (2 * eps)
            assert out.grad_tau == pytest.approx(numeric, rel=1e-5, abs=1e-8)
