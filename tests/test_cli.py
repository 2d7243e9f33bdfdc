"""Exit-code contract and flag plumbing for the command-line interface.

Tests call main(argv) in-process so the suite stays fast; one subprocess
test confirms the installed console script wires up to the same entry.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gcl_lab.cli import _THREAD_ENV_VARS, build_parser, main
from gcl_lab.experiment import ExperimentConfig

from test_training import checkpoint_with_shape

TINY = {
    "data": {"n_pairs": 96, "eval_pairs": 32, "d_in": 8, "k": 4, "sigma": 0.1},
    "train": {"d_out": 6, "batch_size": 32, "epochs": 2, "warmup_steps": 4},
    "eval": {"k_values": [1, 5], "ablation_k": 5},
}


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    raw = json.loads(json.dumps(TINY))
    raw["output_dir"] = str(tmp_path / "run")
    path.write_text(json.dumps(raw))
    return path


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_happy_path_returns_zero(self, tiny_cfg):
        assert run_cli("generate", "--config", str(tiny_cfg)) == 0

    def test_invalid_dims_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"k": 64, "d_in": 32}}))
        assert run_cli("generate", "--config", str(path)) == 2
        assert "config error:" in capsys.readouterr().err

    def test_malformed_json_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for content, message in ((b"{oops", "not valid JSON"), (b"\xff{}", "not UTF-8")):
            path.write_bytes(content)
            assert run_cli("generate", "--config", str(path)) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize(
        "eval_section, message",
        [
            ({"k_values": [0, 5]}, "eval.k_values"),
            ({"k_values": [2.7]}, "eval.k_values"),
            ({"k_values": ["7"]}, "eval.k_values"),
            ({"k_values": [True, 5]}, "eval.k_values"),
            ({"k_values": 5}, "eval.k_values"),
            ({"rank_cap": 0}, "eval.rank_cap"),
            ({"rank_cap": 2.5}, "eval.rank_cap"),
            ({"rank_cap": False}, "eval.rank_cap"),
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "train", "eval"])
    def test_bad_eval_grid_exits_two_before_writing(self, tmp_path, capsys, command, eval_section, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "eval": eval_section}))
        out = tmp_path / "run"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("data", "d_in", 32.5),
            ("data", "n_pairs", "100"),
            ("data", "sigma", "x"),
            ("train", "tau", "0.1"),
            (None, "seed", -1),
            (None, "seed", 1.5),
            ("train", "batch_size", 12.5),
            ("train", "epochs", True),
            ("train", "hidden", 4.0),
            ("train", "freeze_image", 0),
            ("data", "sigma", float("nan")),
            ("train", "base_lr", float("inf")),
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "train", "eval", "ablate", "verify"])
    def test_field_of_wrong_type_exits_two_before_writing(self, tmp_path, capsys, command, section, field, value):
        raw = json.loads(json.dumps(TINY))
        (raw.setdefault(section, {}) if section else raw)[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and (f"{section}.{field}" if section else field) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "eval", "ablate", "verify"])
    def test_learnable_tau_starting_outside_its_range_exits_two_before_writing(self, tmp_path, capsys, command):
        raw = json.loads(json.dumps(TINY))
        raw["train"].update(learnable_tau=True, tau=0.45, tau_max=0.2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "learnable tau starts at 0.45, outside [0.01, 0.2]" in err
        assert not out.exists()
        raw["train"]["learnable_tau"] = False  # a fixed tau is not held to the learnable range
        ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_imsep_batch_of_one_exits_two_before_writing(self, tmp_path, capsys, command):
        raw = {**TINY, "variant": "imsep", "train": {**TINY["train"], "batch_size": 1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "imsep needs batch_size >= 2" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message, fitting",
        [  # a batch of the whole training set, and a K of the whole local pool, still fit
            ({"data": {"n_pairs": 100}, "train": {"batch_size": 128}},
             "train.batch_size=128 leaves data.n_pairs=100 fewer than one batch", {"train": {"batch_size": 100}}),
            ({"data": {"eval_pairs": 4}, "eval": {"k_values": [5, 10], "ablation_k": 5}},
             "no eval.k_values entry fits the local pools of size 2", {"eval": {"k_values": [2, 10], "ablation_k": 2}}),
        ],
    )
    @pytest.mark.parametrize("command", ["generate", "train", "eval", "ablate", "verify"])
    def test_config_that_cannot_finish_exits_two(self, tmp_path, capsys, command, overrides, message, fitting):
        raw = json.loads(json.dumps(TINY))
        for section, fields in overrides.items():
            raw[section].update(fields)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()
        for section, fields in fitting.items():
            raw[section].update(fields)
        ExperimentConfig.from_dict(raw)

    def test_ablate_checks_the_imsep_batch_before_any_sub_run(self, tmp_path, capsys):
        raw = {**TINY, "variant": "gcl", "train": {**TINY["train"], "batch_size": 1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert run_cli("generate", "--config", str(path), "--out", str(out)) == 0
        assert run_cli("ablate", "--config", str(path), "--out", str(out)) == 2
        assert "imsep needs batch_size >= 2" in capsys.readouterr().err
        assert not (out / "ablation").exists()

    def test_valid_configs_keep_their_materialized_dict_and_run_hash(self):
        # ints where floats are expected stay ints, so the canonical form and its hash do not move
        raw = {**TINY, "seed": 3, "train": {**TINY["train"], "tau": 1, "base_lr": 1, "hidden": 5}}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.materialized["train"]["tau"] == 1 and type(cfg.materialized["train"]["tau"]) is int
        # the hashes these configs had before field types were checked
        assert cfg.run_hash() == "d5c502a5408bdd7c0e95de9675b4509f1d805422dcd8d93e4c6c441a21adb9ad"
        assert ExperimentConfig.from_dict({}).run_hash() == (
            "14c82dda6a6f285a36cdc8d37c492af9cd6fb62f4a367165a436a49bc16e3dff"
        )

    def test_missing_artifacts_exit_two(self, tiny_cfg, capsys):
        assert run_cli("train", "--config", str(tiny_cfg)) == 2
        assert "generate command first" in capsys.readouterr().err

    def test_tampered_report_exits_one(self, tiny_cfg, tmp_path, capsys):
        for command in ("generate", "train", "eval"):
            assert run_cli(command, "--config", str(tiny_cfg)) == 0
        report = tmp_path / "run" / "report.json"
        payload = json.loads(report.read_text())
        payload["tasks"]["q_i->c_t"]["global"]["recall_at"]["1"] = 0.5
        report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        assert run_cli("verify", "--config", str(tiny_cfg)) == 1
        assert "does not match recomputation" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, message", [((0,) * 70, "70 dimensions"), ((65536,) * 4, "truncated data")])
    def test_checkpoint_with_impossible_shape_exits_one(self, tiny_cfg, tmp_path, capsys, dims, message):
        for command in ("generate", "train"):
            assert run_cli(command, "--config", str(tiny_cfg)) == 0
        checkpoint = tmp_path / "run" / "checkpoint.gclc"
        checkpoint.write_bytes(checkpoint_with_shape(dims, header=checkpoint.read_bytes()))
        assert run_cli("eval", "--config", str(tiny_cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "byte offset" in err

    def test_threads_below_one_exits_two(self, tiny_cfg, capsys):
        assert run_cli("generate", "--config", str(tiny_cfg), "--threads", "0") == 2
        assert "--threads" in capsys.readouterr().err

    def test_invalid_log_level_exits_two(self, tiny_cfg, monkeypatch, capsys):
        monkeypatch.setenv("GCL_LOG_LEVEL", "loud")
        assert run_cli("generate", "--config", str(tiny_cfg)) == 2
        assert "GCL_LOG_LEVEL" in capsys.readouterr().err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("trian")
        assert exc.value.code == 2

    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2


class TestFlags:
    def test_out_overrides_output_dir(self, tiny_cfg, tmp_path):
        other = tmp_path / "elsewhere"
        assert run_cli("generate", "--config", str(tiny_cfg), "--out", str(other)) == 0
        assert (other / "data" / "train.gcld").exists()
        stored = json.loads((other / "config.json").read_text())
        assert stored["output_dir"] == str(other)

    def test_seed_override_lands_in_stored_config(self, tiny_cfg, tmp_path):
        assert run_cli("generate", "--config", str(tiny_cfg), "--seed", "7") == 0
        stored = json.loads((tmp_path / "run" / "config.json").read_text())
        assert stored["seed"] == 7

    def test_seed_override_changes_data(self, tiny_cfg, tmp_path):
        run_cli("generate", "--config", str(tiny_cfg))
        first = (tmp_path / "run" / "data" / "train.gcld").read_bytes()
        run_cli("generate", "--config", str(tiny_cfg), "--seed", "7")
        assert (tmp_path / "run" / "data" / "train.gcld").read_bytes() != first

    def test_threads_cap_exported(self, tiny_cfg, monkeypatch):
        for var in _THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert run_cli("generate", "--config", str(tiny_cfg), "--threads", "2") == 0
        import os

        for var in _THREAD_ENV_VARS:
            assert os.environ[var] == "2"

    def test_defaults_apply_without_config(self, tmp_path):
        # Only parse + config materialization; generation at default scale is
        # cheap but not free, so point output at tmp and run the real thing.
        assert run_cli("generate", "--out", str(tmp_path / "d")) == 0
        stored = json.loads((tmp_path / "d" / "config.json").read_text())
        assert stored["data"]["n_pairs"] == 5000

    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("generate", "train", "eval", "ablate", "verify", "report"):
            args = parser.parse_args([command, "--seed", "1"])
            assert args.command == command
            assert args.seed == 1


class TestWorkflow:
    def test_full_pipeline_through_cli(self, tiny_cfg, tmp_path, capsys):
        for command in ("generate", "train", "eval", "verify", "report"):
            assert run_cli(command, "--config", str(tiny_cfg)) == 0, command
        out = capsys.readouterr().out
        assert "report verified" in out
        assert "q_i->c_t" in out

    def test_interrupt_and_resume_through_cli(self, tiny_cfg, tmp_path):
        straight = tmp_path / "straight"
        assert run_cli("generate", "--config", str(tiny_cfg), "--out", str(straight)) == 0
        assert run_cli("train", "--config", str(tiny_cfg), "--out", str(straight)) == 0

        resumed = tmp_path / "resumed"
        assert run_cli("generate", "--config", str(tiny_cfg), "--out", str(resumed)) == 0
        assert (
            run_cli(
                "train", "--config", str(tiny_cfg), "--out", str(resumed),
                "--stop-after-epochs", "1",
            )
            == 0
        )
        assert run_cli("train", "--config", str(tiny_cfg), "--out", str(resumed), "--resume") == 0
        assert (resumed / "checkpoint.gclc").read_bytes() == (straight / "checkpoint.gclc").read_bytes()

    def test_ablate_prints_six_rows(self, tiny_cfg, capsys):
        assert run_cli("generate", "--config", str(tiny_cfg)) == 0
        assert run_cli("ablate", "--config", str(tiny_cfg)) == 0
        out = capsys.readouterr().out
        for variant in ("gcl", "cl", "imsep", "gcl_ablation:cross_modal"):
            assert variant in out

    def test_console_script_subprocess(self, tiny_cfg):
        result = subprocess.run(
            [sys.executable, "-m", "gcl_lab.cli", "generate", "--config", str(tiny_cfg)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "train" in result.stdout


def with_report_field(edit):
    """A corruption of report.json that parses but breaks one field the summary reads."""

    def corrupt(blob: bytes) -> bytes:
        payload = json.loads(blob)
        edit(payload)
        return json.dumps(payload).encode()

    return corrupt


def rename_variant(payload):
    payload["varianu"] = payload.pop("variant")


def recall_as_list(payload):
    payload["tasks"]["q_i->c_t"]["local"]["recall_at"] = [0.5, 0.75]


# case -> (file in the run directory, corruption, command that reads it)
CORRUPT_ARTIFACTS = {
    "gcld-magic": ("data/eval.gcld", lambda blob: b"XXXX" + blob[4:], ["eval"]),
    "sidecar-undecodable": ("data/train.gcld.json", lambda blob: b"\x80{", ["train"]),
    "gclc-version": ("checkpoint.gclc", lambda blob: blob[:4] + b"\x09\x00" + blob[6:], ["eval"]),
    "train-log-truncated": ("train_log.json", lambda blob: blob[:-50], ["train", "--resume"]),
    "report-truncated-verify": ("report.json", lambda blob: blob[:-50], ["verify"]),
    "report-truncated-report": ("report.json", lambda blob: blob[:-50], ["report"]),
    "report-missing-variant": ("report.json", with_report_field(rename_variant), ["report"]),
    "report-recall-at-list": ("report.json", with_report_field(recall_as_list), ["report"]),
    "timings-truncated": ("timings.json", lambda blob: blob[:-5], ["eval"]),
}


@pytest.fixture(scope="module")
def evaluated_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluated")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "output_dir": str(root / "run")}))
    for command in ("generate", "train", "eval"):
        assert run_cli(command, "--config", str(cfg)) == 0
    return cfg, root / "run"


@pytest.mark.parametrize("case", sorted(CORRUPT_ARTIFACTS))
def test_corrupt_artifact_exits_one_naming_the_file(evaluated_run, case, tmp_path, capsys):
    cfg, run = evaluated_run
    name, corrupt, command = CORRUPT_ARTIFACTS[case]
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / name).write_bytes(corrupt((copy / name).read_bytes()))
    capsys.readouterr()
    assert run_cli(*command, "--config", str(cfg), "--out", str(copy)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and Path(name).name in err, err
