"""Schedule, optimizer, encoders, fusion backprop, and the training loop."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import gcl_lab.training as training
from gcl_lab.embeddings import Embedding, Modality, fuse_sum, l2_normalize_rows
from gcl_lab.encoders import EncoderConfig, LinearEncoder, MlpEncoder, build_encoder
from gcl_lab.errors import (
    ConfigError,
    DivergenceDetectedError,
    FormatError,
    NonFiniteGradientError,
    ShapeMismatchError,
    StepOutOfRangeError,
    ZeroVectorError,
)
from gcl_lab.losses import (
    LossConfig,
    LossGrads,
    LossOutput,
    TripletBatch,
    loss_gradient_check,
    pair_name,
    two_direction_loss,
)
from gcl_lab.optim import OptimizerState, ScheduleConfig, adamw_step, lr_at
from gcl_lab.synth import generate_dataset
from gcl_lab.training import (
    MIXED_TASKS,
    Checkpoint,
    TrainConfig,
    config_hash,
    forward_batch,
    fusion_backprop,
    load_checkpoint,
    model_from_checkpoint,
    parse_variant,
    save_checkpoint,
    train,
)

from oracles import oracle_cl


class TestSchedule:
    def test_anchor_points(self):
        sched = ScheduleConfig(total_steps=1000, warmup_steps=500, base_lr=1e-3)
        assert lr_at(0, sched) == 0.0
        assert abs(lr_at(500, sched) - 1e-3) < 1e-12
        assert abs(lr_at(750, sched) - 5e-4) < 1e-12

    def test_end_of_schedule_is_zero(self):
        sched = ScheduleConfig(total_steps=1000, warmup_steps=500, base_lr=1e-3)
        assert lr_at(1000, sched) == pytest.approx(0.0, abs=1e-18)

    def test_continuous_at_warmup_and_non_negative(self):
        sched = ScheduleConfig(total_steps=200, warmup_steps=50, base_lr=0.5)
        values = [lr_at(s, sched) for s in range(201)]
        assert all(v >= 0.0 for v in values)
        assert abs(values[50] - values[49]) < 1.1 * sched.base_lr / 50

    def test_zero_warmup_starts_at_base(self):
        sched = ScheduleConfig(total_steps=10, warmup_steps=0, base_lr=0.1)
        assert lr_at(0, sched) == pytest.approx(0.1)

    def test_all_warmup(self):
        sched = ScheduleConfig(total_steps=10, warmup_steps=10, base_lr=0.1)
        assert lr_at(10, sched) == pytest.approx(0.1)

    def test_out_of_range(self):
        sched = ScheduleConfig(total_steps=10, warmup_steps=5, base_lr=0.1)
        for step in (-1, 11):
            with pytest.raises(StepOutOfRangeError):
                lr_at(step, sched)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(total_steps=10, warmup_steps=11)
        with pytest.raises(ConfigError):
            ScheduleConfig(total_steps=10, warmup_steps=5, base_lr=0.0)


class TestAdamW:
    def test_zero_grads_no_decay_leave_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = OptimizerState.initialize(params)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=1e-3)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.step == 1

    def test_zero_grads_with_decay_shrink_exactly(self):
        params = {"w": np.array([1.0, -2.0])}
        state = OptimizerState.initialize(params, weight_decay=0.1)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=1e-2)
        np.testing.assert_allclose(params["w"], np.array([1.0, -2.0]) * (1.0 - 1e-2 * 0.1), atol=1e-16)

    def test_single_step_hand_derived(self):
        # p=0, g=1: bias-corrected m_hat = 1, v_hat = 1, so the update is
        # exactly -lr * 1 / (sqrt(1) + eps)
        params = {"p": np.array([0.0])}
        state = OptimizerState.initialize(params)
        adamw_step(params, {"p": np.array([1.0])}, state, lr=1e-3)
        expected = -1e-3 / (1.0 + 1e-8)
        assert abs(params["p"][0] - expected) < 1e-12

    def test_two_steps_hand_derived(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.95, 1e-8
        params = {"p": np.array([0.0])}
        state = OptimizerState.initialize(params)
        adamw_step(params, {"p": np.array([1.0])}, state, lr=lr)
        adamw_step(params, {"p": np.array([1.0])}, state, lr=lr)
        p = 0.0
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        assert abs(params["p"][0] - p) < 1e-15

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        state = OptimizerState.initialize(params)
        with pytest.raises(ShapeMismatchError):
            adamw_step(params, {"w": np.zeros(3)}, state, lr=1e-3)
        with pytest.raises(ShapeMismatchError):
            adamw_step(params, {"other": np.zeros(2)}, state, lr=1e-3)

    def test_non_finite_gradient_aborts_before_state_change(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState.initialize(params)
        with pytest.raises(NonFiniteGradientError):
            adamw_step(params, {"w": np.array([np.nan])}, state, lr=1e-3)
        assert state.step == 0
        np.testing.assert_array_equal(params["w"], [1.0])


class TestEncoders:
    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(0)
        for cfg in (EncoderConfig(8, 4), EncoderConfig(8, 4, hidden=16)):
            enc = build_encoder(cfg, rng)
            e = enc.encode(rng.standard_normal((10, 8)))
            np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-6)

    def test_identity_linear_encoder_passes_unit_inputs_through(self):
        cfg = EncoderConfig(d_in=4, d_out=4)
        enc = LinearEncoder(cfg, {"W": np.eye(4), "b": np.zeros(4)})
        x = l2_normalize_rows(np.random.default_rng(1).standard_normal((5, 4)))
        np.testing.assert_allclose(enc.encode(x), x, atol=1e-12)

    def test_param_count(self):
        assert build_encoder(EncoderConfig(32, 16), np.random.default_rng(0)).param_count == 32 * 16 + 16
        assert (
            build_encoder(EncoderConfig(32, 16, hidden=64), np.random.default_rng(0)).param_count
            == 64 * 32 + 64 + 16 * 64 + 16
        )

    @pytest.mark.parametrize("hidden", [None, 6])
    def test_backward_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(2)
        cfg = EncoderConfig(d_in=5, d_out=3, hidden=hidden)
        enc = build_encoder(cfg, rng)
        x = rng.standard_normal((4, 5))
        probe = rng.standard_normal((4, 3))

        def scalar_head():
            return float(np.sum(enc.encode(x) * probe))

        e, cache = enc.forward(x)
        grads = enc.backward(cache, probe)
        eps = 1e-6
        for key, param in enc.params.items():
            for idx in np.ndindex(param.shape):
                original = param[idx]
                param[idx] = original + eps
                up = scalar_head()
                param[idx] = original - eps
                down = scalar_head()
                param[idx] = original
                numeric = (up - down) / (2 * eps)
                assert grads[key][idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestFusionBackprop:
    def test_no_renormalize_is_identity(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 3))
        e = l2_normalize_rows(rng.standard_normal((4, 3)))
        out_i, out_t = fusion_backprop(g, e, e, renormalize=False)
        np.testing.assert_array_equal(out_i, g)
        np.testing.assert_array_equal(out_t, g)

    def test_parallel_gradient_projected_to_zero(self):
        e_i = np.array([[1.0, 0.0]])
        e_t = np.array([[0.0, 1.0]])
        g = np.array([[1.0, 1.0]])
        out_i, out_t = fusion_backprop(g, e_i, e_t, renormalize=True)
        np.testing.assert_allclose(out_i, 0.0, atol=1e-12)
        np.testing.assert_allclose(out_t, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        e_i = l2_normalize_rows(rng.standard_normal((3, 4)))
        e_t = l2_normalize_rows(rng.standard_normal((3, 4)))
        probe = rng.standard_normal((3, 4))

        def head(ei):
            fused = training.fuse_sum_rows(ei, e_t, renormalize=True)
            return float(np.sum(fused * probe))

        grad_i, _ = fusion_backprop(probe, e_i, e_t, renormalize=True)
        eps = 1e-6
        for idx in np.ndindex(e_i.shape):
            bumped = e_i.copy()
            bumped[idx] += eps
            dipped = e_i.copy()
            dipped[idx] -= eps
            numeric = (head(bumped) - head(dipped)) / (2 * eps)
            assert grad_i[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_antipodal_rows_raise(self):
        e = np.array([[1.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            fusion_backprop(np.ones((1, 2)), e, -e, renormalize=True)


class TestMixedObjectiveTerm:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_oracle_and_finite_differences(self, parity):
        query, candidate = MIXED_TASKS[parity]
        rng = np.random.default_rng(40 + parity)
        batch = TripletBatch.from_rows(*(l2_normalize_rows(rng.standard_normal((4, 5))) for _ in range(3)))
        rows = {
            Modality.IMAGE: batch.images.rows,
            Modality.TEXT: batch.texts.rows,
            Modality.FUSED: batch.fused.rows,
        }
        out = two_direction_loss(batch, query, candidate, 0.07)
        want_value, want_terms = oracle_cl(rows[query], rows[candidate], 0.07)
        assert abs(out.value - want_value) < 1e-12
        assert abs(out.per_term[pair_name((query, candidate))] - want_terms["i2t"]) < 1e-12
        assert abs(out.per_term[pair_name((candidate, query))] - want_terms["t2i"]) < 1e-12
        fn = lambda b: two_direction_loss(b, query, candidate, 0.07)
        assert loss_gradient_check(fn, batch, 1e-5) < 1e-6


class TestForwardBatch:
    def test_identity_encoders(self):
        cfg = EncoderConfig(d_in=4, d_out=4)
        enc = LinearEncoder(cfg, {"W": np.eye(4), "b": np.zeros(4)})
        x = l2_normalize_rows(np.random.default_rng(5).standard_normal((6, 4)))
        batch = forward_batch(enc, enc, x, x)
        np.testing.assert_allclose(batch.images.rows, x, atol=1e-12)
        np.testing.assert_allclose(batch.texts.rows, x, atol=1e-12)

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(6)
        img_enc = build_encoder(EncoderConfig(8, 4), rng)
        txt_enc = build_encoder(EncoderConfig(8, 4), rng)
        batch = forward_batch(img_enc, txt_enc, rng.standard_normal((7, 8)), rng.standard_normal((7, 8)))
        for mat in (batch.images.rows, batch.texts.rows, batch.fused.rows):
            np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-6)

    def test_fused_rows_match_fuse_sum(self):
        rng = np.random.default_rng(7)
        img_enc = build_encoder(EncoderConfig(8, 4), rng)
        txt_enc = build_encoder(EncoderConfig(8, 4), rng)
        batch = forward_batch(img_enc, txt_enc, rng.standard_normal((5, 8)), rng.standard_normal((5, 8)))
        for j in range(5):
            expected = fuse_sum(
                Embedding(batch.images.rows[j], Modality.IMAGE),
                Embedding(batch.texts.rows[j], Modality.TEXT),
            )
            np.testing.assert_allclose(batch.fused.rows[j], expected.values, atol=1e-12)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(8)
        enc = build_encoder(EncoderConfig(8, 4), rng)
        with pytest.raises(ShapeMismatchError):
            forward_batch(enc, enc, np.zeros((0, 8)), np.zeros((0, 8)))


def small_config(**overrides):
    defaults = dict(
        variant="gcl",
        batch_size=16,
        epochs=2,
        base_lr=1e-3,
        warmup_steps=5,
        seed=11,
        encoder=EncoderConfig(d_in=12, d_out=6),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def small_dataset(seed=11, n_pairs=64, sigma=0.05):
    pairs, _ = generate_dataset(n_pairs=n_pairs, k=4, d_in=12, sigma=sigma, seed=seed)
    return pairs


class TestTrainLoop:
    def test_bit_identical_replay(self):
        pairs = small_dataset()
        run_a, log_a = train(small_config(), pairs)
        run_b, log_b = train(small_config(), pairs)
        for key in run_a.image_encoder.params:
            assert np.array_equal(run_a.image_encoder.params[key], run_b.image_encoder.params[key])
        for key in run_a.text_encoder.params:
            assert np.array_equal(run_a.text_encoder.params[key], run_b.text_encoder.params[key])
        assert json.dumps(log_a) == json.dumps(log_b)

    def test_loss_decreases_over_epochs(self):
        pairs = small_dataset(sigma=0.05, n_pairs=128)
        config = small_config(epochs=5, batch_size=32)
        _, log = train(config, pairs)
        by_epoch = {}
        for record in log:
            by_epoch.setdefault(record["epoch"], []).append(record["loss"])
        means = [float(np.mean(by_epoch[e])) for e in sorted(by_epoch)]
        assert means[-1] < means[0]

    def test_log_structure_and_lr_schedule(self):
        pairs = small_dataset()
        config = small_config()
        _, log = train(config, pairs)
        steps_per_epoch = len(pairs) // config.batch_size
        assert len(log) == steps_per_epoch * config.epochs
        sched = ScheduleConfig(
            total_steps=len(log), warmup_steps=config.warmup_steps, base_lr=config.base_lr
        )
        for record in log:
            assert record["lr"] == lr_at(record["step"], sched)
            assert set(record) >= {"step", "epoch", "loss", "lr", "tau", "per_term"}

    def test_ragged_tail_dropped(self):
        pairs = small_dataset(n_pairs=42)
        _, log = train(small_config(batch_size=16, epochs=1), pairs)
        assert len(log) == 2

    def test_too_small_dataset_rejected(self):
        pairs = small_dataset(n_pairs=8)
        with pytest.raises(ConfigError):
            train(small_config(batch_size=16), pairs)

    def test_wrong_d_in_rejected(self):
        pairs, _ = generate_dataset(n_pairs=32, k=4, d_in=10, sigma=0.1, seed=1)
        with pytest.raises(ShapeMismatchError):
            train(small_config(), pairs)

    @pytest.mark.parametrize(
        "variant", ["cl", "imsep", "gcl_ablation:cross_modal", "gcl_ablation:it_candidate", "gcl_ablation:it_query"]
    )
    def test_all_variants_run(self, variant):
        pairs = small_dataset(n_pairs=32)
        _, log = train(small_config(variant=variant, epochs=1), pairs)
        assert len(log) == 2
        assert all(math.isfinite(r["loss"]) for r in log)

    def test_freeze_image_keeps_its_params(self):
        pairs = small_dataset()
        config = small_config(freeze_image=True)
        model, _ = train(config, pairs)
        init_rng = np.random.default_rng([config.seed, 0])
        fresh_img = build_encoder(config.encoder, init_rng)
        fresh_txt = build_encoder(config.encoder, init_rng)
        for key in fresh_img.params:
            assert np.array_equal(model.image_encoder.params[key], fresh_img.params[key])
        assert not np.array_equal(model.text_encoder.params["W"], fresh_txt.params["W"])

    def test_learnable_tau_stays_in_bounds(self):
        pairs = small_dataset()
        config = small_config(learnable_tau=True, tau_min=0.05, tau_max=0.09, epochs=3)
        model, log = train(config, pairs)
        assert 0.05 <= model.tau <= 0.09
        assert all(0.05 <= r["tau"] <= 0.09 for r in log)
        assert model.tau != pytest.approx(0.07, abs=1e-9)

    def test_mixed_weight_zero_matches_pure_gcl(self):
        pairs = small_dataset()
        second = small_dataset(seed=99)
        pure_model, pure_log = train(small_config(variant="gcl"), pairs)
        mixed_model, mixed_log = train(
            small_config(variant="gcl_plus_triplet", triplet_weight=0.0), pairs, second_pairs=second
        )
        assert json.dumps(pure_log) == json.dumps(mixed_log)
        for key in pure_model.image_encoder.params:
            assert np.array_equal(
                pure_model.image_encoder.params[key], mixed_model.image_encoder.params[key]
            )

    def test_mixed_weight_positive_changes_trajectory(self):
        pairs = small_dataset()
        second = small_dataset(seed=99)
        _, pure_log = train(small_config(variant="gcl"), pairs)
        _, mixed_log = train(
            small_config(variant="gcl_plus_triplet", triplet_weight=0.5), pairs, second_pairs=second
        )
        assert "triplet_loss" in mixed_log[0]
        assert pure_log[-1]["loss"] != mixed_log[-1]["loss"]

    def test_mixed_needs_second_dataset(self):
        pairs = small_dataset()
        with pytest.raises(ConfigError):
            train(small_config(variant="gcl_plus_triplet", triplet_weight=0.5), pairs)

    def test_divergence_detected(self, monkeypatch):
        pairs = small_dataset()

        def exploding_loss(batch, cfg=None):
            zeros = LossGrads(
                np.zeros_like(batch.images.rows),
                np.zeros_like(batch.texts.rows),
                np.zeros_like(batch.fused.rows),
            )
            return LossOutput(value=float("nan"), per_term={}, grads=zeros)

        monkeypatch.setattr(training, "gcl_loss", exploding_loss)
        with pytest.raises(DivergenceDetectedError):
            train(small_config(), pairs)

    def test_non_finite_gradient_dumps_state(self, monkeypatch):
        pairs = small_dataset()

        def bad_grad_loss(batch, cfg=None):
            g = np.full_like(batch.images.rows, np.nan)
            zeros = LossGrads(g, np.zeros_like(batch.texts.rows), np.zeros_like(batch.fused.rows))
            return LossOutput(value=1.0, per_term={}, grads=zeros)

        monkeypatch.setattr(training, "gcl_loss", bad_grad_loss)
        with pytest.raises(NonFiniteGradientError) as exc_info:
            train(small_config(), pairs)
        dump = exc_info.value.state_dump
        assert dump["step"] == 0
        assert "img.W" in dump["param_norms"]


class TestVariantParsing:
    def test_known_variants(self):
        assert parse_variant("gcl") == ("gcl", None)
        assert parse_variant("gcl_ablation:it_query") == ("gcl_ablation", "it_query")

    def test_unknown_variant(self):
        for bad in ("gclx", "gcl_ablation:everything", "ablation"):
            with pytest.raises(ConfigError):
                parse_variant(bad)

    def test_config_hash_stable_and_sensitive(self):
        a = small_config()
        b = small_config()
        c = small_config(seed=12)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64

    def test_config_dict_round_trip(self):
        config = small_config(variant="gcl_ablation:it_query", learnable_tau=True)
        assert TrainConfig.from_dict(config.to_dict()) == config


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        pairs = small_dataset()
        config = small_config()
        path = tmp_path / "model.gclc"
        model, _ = train(config, pairs, checkpoint_path=path)
        ckpt = load_checkpoint(path)
        assert ckpt.config_hash == config_hash(config)
        assert ckpt.seed == config.seed
        assert ckpt.epochs_completed == config.epochs
        np.testing.assert_array_equal(ckpt.arrays["img.W"], model.image_encoder.params["W"])
        assert ckpt.arrays["opt.step"].item() == len(pairs) // config.batch_size * config.epochs

    def test_model_from_checkpoint_encodes_identically(self, tmp_path):
        pairs = small_dataset()
        config = small_config()
        path = tmp_path / "model.gclc"
        model, _ = train(config, pairs, checkpoint_path=path)
        restored = model_from_checkpoint(config, path)
        rng = np.random.default_rng(123)
        x_img = rng.standard_normal((5, config.encoder.d_in))
        x_txt = rng.standard_normal((5, config.encoder.d_in))
        original = model.encode_batch(x_img, x_txt)
        rebuilt = restored.encode_batch(x_img, x_txt)
        assert np.array_equal(original.fused.rows, rebuilt.fused.rows)

    def test_config_mismatch_rejected(self, tmp_path):
        pairs = small_dataset()
        path = tmp_path / "model.gclc"
        train(small_config(), pairs, checkpoint_path=path)
        with pytest.raises(ConfigError):
            model_from_checkpoint(small_config(seed=999), path)

    def test_double_train_writes_identical_bytes(self, tmp_path):
        pairs = small_dataset()
        train(small_config(), pairs, checkpoint_path=tmp_path / "a.gclc")
        train(small_config(), pairs, checkpoint_path=tmp_path / "b.gclc")
        assert (tmp_path / "a.gclc").read_bytes() == (tmp_path / "b.gclc").read_bytes()

    def test_corrupted_magic(self, tmp_path):
        pairs = small_dataset()
        path = tmp_path / "model.gclc"
        train(small_config(epochs=1), pairs, checkpoint_path=path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.offset == 0

    def test_truncation_detected(self, tmp_path):
        pairs = small_dataset()
        path = tmp_path / "model.gclc"
        train(small_config(epochs=1), pairs, checkpoint_path=path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestResume:
    def test_interrupted_then_resumed_matches_uninterrupted(self, tmp_path):
        pairs = small_dataset(n_pairs=96)
        config = small_config(epochs=4, batch_size=16)
        train(config, pairs, checkpoint_path=tmp_path / "full.gclc")
        train(config, pairs, checkpoint_path=tmp_path / "half.gclc", stop_after_epochs=2)
        assert load_checkpoint(tmp_path / "half.gclc").epochs_completed == 2
        train(
            config,
            pairs,
            checkpoint_path=tmp_path / "resumed.gclc",
            resume_from=tmp_path / "half.gclc",
        )
        assert (tmp_path / "resumed.gclc").read_bytes() == (tmp_path / "full.gclc").read_bytes()

    def test_resume_log_continues_step_numbering(self, tmp_path):
        pairs = small_dataset(n_pairs=64)
        config = small_config(epochs=3, batch_size=16)
        _, log_head = train(config, pairs, checkpoint_path=tmp_path / "p.gclc", stop_after_epochs=1)
        _, log_tail = train(config, pairs, resume_from=tmp_path / "p.gclc")
        _, log_full = train(config, pairs)
        assert [r["step"] for r in log_head + log_tail] == [r["step"] for r in log_full]
        assert json.dumps(log_head + log_tail) == json.dumps(log_full)

    def test_resume_config_mismatch_rejected(self, tmp_path):
        pairs = small_dataset()
        config = small_config(epochs=3)
        train(config, pairs, checkpoint_path=tmp_path / "p.gclc", stop_after_epochs=1)
        with pytest.raises(ConfigError, match="hashes to"):
            train(small_config(epochs=3, seed=999), pairs, resume_from=tmp_path / "p.gclc")

    def test_resume_from_finished_run_rejected(self, tmp_path):
        pairs = small_dataset()
        config = small_config(epochs=2)
        train(config, pairs, checkpoint_path=tmp_path / "p.gclc")
        with pytest.raises(ConfigError, match="cannot resume"):
            train(config, pairs, resume_from=tmp_path / "p.gclc")

    def test_stop_after_epochs_validated(self):
        pairs = small_dataset()
        with pytest.raises(ConfigError):
            train(small_config(epochs=2), pairs, stop_after_epochs=0)
        with pytest.raises(ConfigError):
            train(small_config(epochs=2), pairs, stop_after_epochs=3)

    def test_resume_with_learnable_tau(self, tmp_path):
        pairs = small_dataset(n_pairs=64)
        config = small_config(epochs=4, batch_size=16, learnable_tau=True)
        train(config, pairs, checkpoint_path=tmp_path / "full.gclc")
        train(config, pairs, checkpoint_path=tmp_path / "half.gclc", stop_after_epochs=2)
        train(
            config,
            pairs,
            checkpoint_path=tmp_path / "resumed.gclc",
            resume_from=tmp_path / "half.gclc",
        )
        assert (tmp_path / "resumed.gclc").read_bytes() == (tmp_path / "full.gclc").read_bytes()
