"""End-to-end tests for the config-driven experiment runner.

Integration tests run at a deliberately tiny scale (a few dozen concepts,
two epochs) so the whole module stays fast; correctness of the underlying
math is covered by the per-module suites.
"""

import json

import numpy as np
import pytest

import gcl_lab.training as training
from gcl_lab.errors import ConfigError, FormatError, InvalidDimsError, NonFiniteGradientError
from gcl_lab.experiment import (
    ABLATION_VARIANTS,
    SCHEMA_VERSION,
    TASKS,
    ExperimentConfig,
    ExperimentPaths,
    cmd_ablate,
    cmd_eval,
    cmd_generate,
    cmd_report,
    cmd_train,
    cmd_verify,
    materialize_config,
)
from gcl_lab.losses import LossGrads, LossOutput
from gcl_lab.training import load_checkpoint

TINY = {
    "seed": 0,
    "data": {"n_pairs": 160, "eval_pairs": 64, "d_in": 8, "k": 4, "sigma": 0.1},
    "train": {"d_out": 6, "batch_size": 32, "epochs": 2, "warmup_steps": 4},
    "eval": {"k_values": [1, 5], "ablation_k": 5},
}


def tiny_config(out_dir, **top_level) -> ExperimentConfig:
    raw = json.loads(json.dumps(TINY))
    raw["output_dir"] = str(out_dir)
    raw.update(top_level)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_empty_config_materializes_all_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.seed == 0
        assert cfg.variant == "gcl"
        assert cfg.materialized["schema_version"] == SCHEMA_VERSION
        assert cfg.data["n_pairs"] == 5000
        assert cfg.data["eval_pairs"] == 1000
        assert cfg.data["k"] == 8
        assert cfg.data["d_in"] == 32
        assert cfg.data["sigma"] == 0.1
        t = cfg.materialized["train"]
        assert t["d_out"] == 16
        assert t["epochs"] == 3
        assert t["tau"] == 0.45
        assert t["warmup_steps"] == 30
        assert cfg.eval_plan["k_values"] == [1, 5, 10, 20, 50]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"tarin": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in config section 'train'"):
            ExperimentConfig.from_dict({"train": {"epocs": 3}})

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict({"schema_version": 99})

    def test_odd_eval_pairs_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig.from_dict({"data": {"eval_pairs": 999}})

    def test_latent_dim_above_feature_dim_rejected(self):
        with pytest.raises(InvalidDimsError):
            ExperimentConfig.from_dict({"data": {"k": 64, "d_in": 32}})

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            ExperimentConfig.from_dict({"data": {"sigma": -0.1}})

    def test_k_values_sorted_and_deduped(self):
        cfg = ExperimentConfig.from_dict({"eval": {"k_values": [20, 1, 5, 5, 1]}})
        assert cfg.eval_plan["k_values"] == [1, 5, 20]

    def test_empty_k_values_rejected(self):
        with pytest.raises(ConfigError, match="k_values"):
            ExperimentConfig.from_dict({"eval": {"k_values": []}})

    def test_invalid_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            ExperimentConfig.from_dict({"variant": "contrastive"})

    def test_run_hash_ignores_output_dir_only(self):
        a = ExperimentConfig.from_dict({"output_dir": "runs/a"})
        b = ExperimentConfig.from_dict({"output_dir": "runs/b"})
        c = ExperimentConfig.from_dict({"output_dir": "runs/a", "seed": 7})
        assert a.run_hash() == b.run_hash()
        assert a.run_hash() != c.run_hash()

    def test_with_overrides_leaves_original_untouched(self):
        a = ExperimentConfig.from_dict({})
        b = a.with_overrides(seed=3)
        assert a.seed == 0
        assert b.seed == 3
        assert b.materialized["train"] == a.materialized["train"]

    def test_from_file_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(path)

    def test_from_file_round_trips(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "train": {"tau": 0.2}}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.seed == 5
        assert cfg.materialized["train"]["tau"] == 0.2

    def test_train_config_mapping(self):
        cfg = ExperimentConfig.from_dict(
            {"variant": "gcl_ablation:it_query", "seed": 9, "train": {"tau": 0.3, "epochs": 7}}
        )
        tc = cfg.train_config()
        assert tc.variant == "gcl_ablation:it_query"
        assert tc.seed == 9
        assert tc.loss.tau == 0.3
        assert tc.epochs == 7
        assert tc.encoder.d_in == cfg.data["d_in"]

    def test_materialize_rejects_non_dict(self):
        with pytest.raises(ConfigError, match="JSON object"):
            materialize_config([1, 2, 3])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One tiny generate->train->eval run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("run")
    cfg = tiny_config(root)
    paths = ExperimentPaths.for_run(cfg.output_dir)
    cmd_generate(cfg, paths)
    cmd_train(cfg, paths)
    cmd_eval(cfg, paths)
    return cfg, paths


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablate")
    cfg = tiny_config(root)
    paths = ExperimentPaths.for_run(cfg.output_dir)
    cmd_generate(cfg, paths)
    table = cmd_ablate(cfg, paths)
    return cfg, paths, table


class TestPipeline:
    def test_generate_writes_datasets_and_config(self, finished_run):
        _, paths = finished_run
        assert paths.train_data.exists()
        assert paths.eval_data.exists()
        assert not paths.triplet_data.exists()  # plain gcl needs no extra split
        stored = json.loads(paths.config.read_text())
        assert stored["schema_version"] == SCHEMA_VERSION

    def test_train_writes_checkpoint_and_log(self, finished_run):
        cfg, paths = finished_run
        assert paths.checkpoint.exists()
        log = json.loads(paths.train_log.read_text())
        steps_per_epoch = cfg.data["n_pairs"] // cfg.materialized["train"]["batch_size"]
        assert len(log["records"]) == steps_per_epoch * cfg.materialized["train"]["epochs"]
        assert [r["step"] for r in log["records"]] == list(range(len(log["records"])))

    def test_report_covers_all_tasks_and_settings(self, finished_run):
        cfg, paths = finished_run
        payload = json.loads(paths.report.read_text())
        assert payload["config_hash"] == cfg.run_hash()
        assert set(payload["tasks"]) == set(TASKS)
        for by_setting in payload["tasks"].values():
            assert set(by_setting) == {"global", "local"}
            for report in by_setting.values():
                assert list(map(int, report["recall_at"])) == sorted(
                    map(int, report["recall_at"])
                )
                assert len(report["cosine_by_rank"]) >= 1

    def test_csv_tables_written_per_task_and_setting(self, finished_run):
        _, paths = finished_run
        csvs = {p.name for p in paths.csv_dir.iterdir()}
        assert "pca_projection.csv" in csvs
        assert len(csvs) == 2 * len(TASKS) + 1
        sample = (paths.csv_dir / "global_q_i_to_c_t.csv").read_text()
        assert sample.startswith("query_id,best_gt_rank,gt_cosine")

    def test_verify_accepts_untouched_report(self, finished_run):
        cfg, paths = finished_run
        assert cmd_verify(cfg, paths) == {"ok": True, "config_hash": cfg.run_hash()}

    def test_report_summary_mentions_every_task(self, finished_run):
        cfg, paths = finished_run
        text = cmd_report(cfg, paths)
        for task in TASKS:
            assert task in text
        assert "min cross-modality mean cosine" in text

    def test_eval_is_byte_idempotent(self, finished_run):
        cfg, paths = finished_run
        first = paths.report.read_bytes()
        cmd_eval(cfg, paths)
        assert paths.report.read_bytes() == first

    def test_timings_sidecar_holds_wall_clock(self, finished_run):
        _, paths = finished_run
        timings = json.loads(paths.timings.read_text())
        assert {"generate", "train", "eval"} <= set(timings)
        assert timings["train"]["seconds"] > 0


class TestPipelineErrors:
    def test_train_before_generate_fails(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        with pytest.raises(ConfigError, match="generate command first"):
            cmd_train(cfg)

    def test_eval_before_train_fails(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        with pytest.raises(ConfigError, match="train command first"):
            cmd_eval(cfg, paths)

    def test_verify_before_eval_fails(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        with pytest.raises(ConfigError, match="eval command first"):
            cmd_verify(cfg)

    def test_verify_flags_tampered_report(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        cmd_train(cfg, paths)
        cmd_eval(cfg, paths)
        payload = json.loads(paths.report.read_text())
        task = TASKS[0]
        payload["tasks"][task]["global"]["recall_at"]["1"] = 0.123456
        paths.report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with pytest.raises(FormatError, match="does not match recomputation"):
            cmd_verify(cfg, paths)

    def test_dataset_config_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        wider = tiny_config(tmp_path / "run", data={**TINY["data"], "d_in": 16, "k": 4})
        with pytest.raises(ConfigError, match="does not match config d_in"):
            cmd_train(wider, paths)

    def test_non_finite_gradient_leaves_failure_json(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)

        def bad_grad_loss(batch, cfg=None):
            g = np.full_like(batch.images.rows, np.nan)
            zeros = LossGrads(g, np.zeros_like(batch.texts.rows), np.zeros_like(batch.fused.rows))
            return LossOutput(value=1.0, per_term={}, grads=zeros)

        monkeypatch.setattr(training, "gcl_loss", bad_grad_loss)
        with pytest.raises(NonFiniteGradientError, match="non-finite gradients at step 0"):
            cmd_train(cfg, paths)
        dump = json.loads(paths.failure.read_text())
        assert dump["step"] == 0
        assert dump["epoch"] == 0
        assert "img.W" in dump["bad_keys"]
        assert "img.W" in dump["param_norms"]


class TestDeterminism:
    def test_generate_twice_bitwise_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        first = paths.train_data.read_bytes(), paths.eval_data.read_bytes()
        cmd_generate(cfg, paths)
        assert (paths.train_data.read_bytes(), paths.eval_data.read_bytes()) == first

    def test_train_twice_bitwise_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        cmd_train(cfg, paths)
        first = paths.checkpoint.read_bytes()
        first_log = paths.train_log.read_bytes()
        cmd_train(cfg, paths)
        assert paths.checkpoint.read_bytes() == first
        assert paths.train_log.read_bytes() == first_log

    def test_interrupted_resume_matches_straight_run(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "straight")
        paths_a = ExperimentPaths.for_run(cfg_a.output_dir)
        cmd_generate(cfg_a, paths_a)
        cmd_train(cfg_a, paths_a)

        cfg_b = tiny_config(tmp_path / "resumed")
        paths_b = ExperimentPaths.for_run(cfg_b.output_dir)
        cmd_generate(cfg_b, paths_b)
        cmd_train(cfg_b, paths_b, stop_after_epochs=1)
        cmd_train(cfg_b, paths_b, resume=True)

        assert paths_b.checkpoint.read_bytes() == paths_a.checkpoint.read_bytes()
        log_a = json.loads(paths_a.train_log.read_text())
        log_b = json.loads(paths_b.train_log.read_text())
        assert log_a == log_b

    def test_resume_without_checkpoint_fails(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        with pytest.raises(ConfigError, match="cannot resume"):
            cmd_train(cfg, paths, resume=True)

    def test_zero_weight_mixed_objective_matches_plain_gcl(self, tmp_path):
        plain = tiny_config(tmp_path / "plain")
        paths_plain = ExperimentPaths.for_run(plain.output_dir)
        cmd_generate(plain, paths_plain)
        cmd_train(plain, paths_plain)

        mixed = tiny_config(
            tmp_path / "mixed",
            variant="gcl_plus_triplet",
            train={**TINY["train"], "triplet_weight": 0.0},
        )
        paths_mixed = ExperimentPaths.for_run(mixed.output_dir)
        cmd_generate(mixed, paths_mixed)
        cmd_train(mixed, paths_mixed)

        a = load_checkpoint(paths_plain.checkpoint)
        b = load_checkpoint(paths_mixed.checkpoint)
        assert set(a.arrays) == set(b.arrays)
        for name, arr in a.arrays.items():
            np.testing.assert_array_equal(arr, b.arrays[name])


class TestAblate:
    def test_table_has_six_variant_rows(self, ablation_run):
        _, _, table = ablation_run
        assert [row["variant"] for row in table["rows"]] == list(ABLATION_VARIANTS)
        for row in table["rows"]:
            assert set(row) == {"variant", *TASKS}

    def test_sub_runs_share_parent_datasets(self, ablation_run):
        _, paths, _ = ablation_run
        for variant in ABLATION_VARIANTS:
            sub = paths.root / "ablation" / variant.replace(":", "_")
            assert (sub / "checkpoint.gclc").exists()
            assert not (sub / "data").exists()

    def test_csv_matches_json(self, ablation_run):
        _, paths, table = ablation_run
        lines = paths.ablation_csv.read_text().strip().split("\n")
        assert lines[0] == "variant," + ",".join(TASKS)
        assert len(lines) == 1 + len(ABLATION_VARIANTS)
        for line, row in zip(lines[1:], table["rows"]):
            cells = line.split(",")
            assert cells[0] == row["variant"]
            for got, task in zip(cells[1:], TASKS):
                assert float(got) == pytest.approx(row[task], abs=5e-7)

    def test_rerun_is_identical(self, ablation_run):
        cfg, paths, _ = ablation_run
        first = paths.ablation_json.read_bytes()
        cmd_ablate(cfg, paths)
        assert paths.ablation_json.read_bytes() == first

    def test_variants_actually_differ(self, ablation_run):
        """Different losses must leave fingerprints: the six checkpoints differ."""
        _, paths, _ = ablation_run
        blobs = set()
        for variant in ABLATION_VARIANTS:
            sub = paths.root / "ablation" / variant.replace(":", "_")
            blobs.add((sub / "checkpoint.gclc").read_bytes())
        assert len(blobs) == len(ABLATION_VARIANTS)

    def test_ablation_k_must_be_in_grid(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "run", eval={"k_values": [1, 5], "ablation_k": 3}
        )
        paths = ExperimentPaths.for_run(cfg.output_dir)
        cmd_generate(cfg, paths)
        with pytest.raises(ConfigError, match="ablation_k"):
            cmd_ablate(cfg, paths)
