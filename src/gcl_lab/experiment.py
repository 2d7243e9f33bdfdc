"""Config-driven experiment orchestration behind the command-line interface.

An experiment is described by one JSON config with a versioned schema. All
defaults are materialized into the stored config so artifacts are fully
self-describing, and the run hash is the sha256 of that canonical form
(minus the output directory, which locates a run without identifying it).

One run directory holds everything an experiment produces, under the names
in _RUN_FILES.

Evaluation protocol: the eval dataset is generated with duplication 2, so
each concept has two independently-noised views. View 0 becomes the three
candidate banks (image, text, fused; candidate id = 3*concept + bank index)
and view 1 becomes the queries (query id = concept). Each of the nine
(query modality -> candidate modality) tasks is scored against its local
bank and against the global union of all three banks.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .artifacts import read_json, reading, record_timing, write_json, write_text
from .diagnostics import PcaProjection, modality_gap_table, pca_2d
from .embeddings import MODALITIES, Modality
from .errors import ConfigError, FormatError, InvalidDimsError, NonFiniteGradientError
from .evaluation import (
    Bank,
    Query,
    QuerySet,
    build_global_pool,
    build_local_pool,
    build_report,
    cosine_by_rank,
    rank_banks,
    report_csv,
)
from .losses import DenominatorMode, LossConfig
from .synth import dataset_to_arrays, generate_dataset, read_dataset, write_dataset
from .training import (
    EncoderConfig,
    TrainConfig,
    config_hash,
    load_checkpoint,
    model_from_checkpoint,
    train,
)

SCHEMA_VERSION = 1

ABLATION_VARIANTS = (
    "gcl",
    "gcl_ablation:cross_modal",
    "gcl_ablation:it_candidate",
    "gcl_ablation:it_query",
    "imsep",
    "cl",
)

_DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "output_dir": "run",
    "variant": "gcl",
    "data": {
        "n_pairs": 5000,
        "eval_pairs": 1000,
        "d_in": 32,
        "k": 8,
        "sigma": 0.1,
    },
    "train": {
        "d_out": 16,
        "hidden": None,
        "batch_size": 128,
        "epochs": 3,
        "base_lr": 1e-3,
        "weight_decay": 0.0,
        "warmup_steps": 30,
        "tau": 0.45,
        "learnable_tau": False,
        "tau_min": 0.01,
        "tau_max": 1.0,
        "renormalize_fusion": True,
        "freeze_image": False,
        "freeze_text": False,
        "triplet_weight": 0.0,
        "denominator_mode": "algorithm_masked",
    },
    "eval": {
        "k_values": [1, 5, 10, 20, 50],
        "rank_cap": None,
        "ablation_k": 5,
    },
}

# JSON types a field takes, by its default's type: an int is not a bool or a
# float, a float may be an int, and a null default (hidden, rank_cap) takes an int
_FIELD_TYPES = {bool: (bool,), int: (int,), float: (float, int), type(None): (type(None), int)}


TASKS = tuple(
    f"q_{qm.code}->c_{cm.code}" for qm in MODALITIES for cm in MODALITIES
)


def materialize_config(raw: dict) -> dict:
    """Fill every default, reject unknown keys and fields of the wrong type; returns the canonical dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"experiment config must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}, expected {SCHEMA_VERSION}")
    out, given = {}, []
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            section = raw.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            bad = set(section) - set(default)
            if bad:
                raise ConfigError(f"unknown keys in config section {key!r}: {sorted(bad)}")
            out[key] = {**default, **section}
            given += [(f"{key}.{name}", value, default[name]) for name, value in section.items()]
        else:
            out[key] = raw.get(key, default)
            given.append((key, out[key], default))
    for name, value, default in given:
        allowed = _FIELD_TYPES.get(type(default), (type(default),))
        # Python's JSON reader also takes NaN and Infinity
        if type(value) not in allowed or (type(value) is float and not math.isfinite(value)):
            kinds = " or ".join({type(None): "null", float: "finite float"}.get(t, t.__name__) for t in allowed)
            raise ConfigError(f"config field {name} must be {kinds}, got {value!r}")
    if out["seed"] < 0:
        raise ConfigError(f"config field seed must be >= 0, got {out['seed']}")
    k_values, rank_cap = out["eval"]["k_values"], out["eval"]["rank_cap"]
    if not k_values or any(type(k) is not int or k < 1 for k in k_values):
        raise ConfigError(f"eval.k_values must be a non-empty list of ints >= 1, got {k_values!r}")
    if rank_cap is not None and rank_cap < 1:
        raise ConfigError(f"eval.rank_cap must be null or an int >= 1, got {rank_cap!r}")
    out["eval"]["k_values"] = sorted(set(k_values))
    data = out["data"]
    if data["eval_pairs"] % 2 != 0:
        raise ConfigError(f"data.eval_pairs must be even (two views per concept), got {data['eval_pairs']}")
    if data["k"] > data["d_in"]:
        raise InvalidDimsError(f"latent dim k={data['k']} cannot exceed feature dim d_in={data['d_in']}")
    if data["sigma"] < 0:
        raise ConfigError(f"data.sigma must be >= 0, got {data['sigma']}")
    # what training and evaluation would reject only after generate has written the datasets
    if out["train"]["batch_size"] > data["n_pairs"]:
        raise ConfigError(f"train.batch_size={out['train']['batch_size']} leaves data.n_pairs={data['n_pairs']} "
                          "fewer than one batch")
    if out["eval"]["k_values"][0] > data["eval_pairs"] // 2:
        raise ConfigError(f"no eval.k_values entry fits the local pools of size {data['eval_pairs'] // 2}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A materialized experiment config plus typed accessors."""

    materialized: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls(materialize_config(raw))
        cfg.train_config()  # surface invalid training fields immediately
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def with_overrides(self, **top_level) -> "ExperimentConfig":
        merged = json.loads(json.dumps(self.materialized))
        merged.update(top_level)
        return ExperimentConfig.from_dict(merged)

    @property
    def seed(self) -> int:
        return self.materialized["seed"]

    @property
    def variant(self) -> str:
        return self.materialized["variant"]

    @property
    def output_dir(self) -> Path:
        return Path(self.materialized["output_dir"])

    @property
    def data(self) -> dict:
        return self.materialized["data"]

    @property
    def eval_plan(self) -> dict:
        return self.materialized["eval"]

    def run_hash(self) -> str:
        """sha256 of the canonical config, excluding the output location."""
        identity = {k: v for k, v in self.materialized.items() if k != "output_dir"}
        canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def train_config(self) -> TrainConfig:
        t = self.materialized["train"]
        return TrainConfig(
            variant=self.variant,
            loss=LossConfig(
                tau=t["tau"],
                denominator_mode=DenominatorMode(t["denominator_mode"]),
            ),
            batch_size=t["batch_size"],
            epochs=t["epochs"],
            base_lr=t["base_lr"],
            weight_decay=t["weight_decay"],
            warmup_steps=t["warmup_steps"],
            seed=self.seed,
            encoder=EncoderConfig(
                d_in=self.data["d_in"], d_out=t["d_out"], hidden=t["hidden"]
            ),
            renormalize_fusion=t["renormalize_fusion"],
            freeze_image=t["freeze_image"],
            freeze_text=t["freeze_text"],
            learnable_tau=t["learnable_tau"],
            tau_min=t["tau_min"],
            tau_max=t["tau_max"],
            triplet_weight=t["triplet_weight"],
        )


# ExperimentPaths attribute -> (its directory attribute, file name)
_RUN_FILES = {
    "config": ("root", "config.json"),  # materialized config
    "train_data": ("data_dir", "train.gcld"),  # training pairs (+ .json sidecar)
    "eval_data": ("data_dir", "eval.gcld"),  # evaluation pairs, two views per concept
    "triplet_data": ("data_dir", "triplet.gcld"),  # extra pairs for the mixed objective (when used)
    "checkpoint": ("root", "checkpoint.gclc"),  # final weights + optimizer state
    "train_log": ("root", "train_log.json"),  # one record per optimization step
    "report": ("root", "report.json"),  # retrieval metrics + gap diagnostics (deterministic)
    "timings": ("root", "timings.json"),  # wall-clock numbers (the one nondeterministic file)
    "failure": ("root", "failure.json"),  # training state at a non-finite gradient (failed runs only)
    "csv_dir": ("root", "csv"),  # per-task per-query tables, projection scatter
    "ablation_json": ("root", "ablation.json"),  # Recall@ablation_k of every loss variant
    "ablation_csv": ("root", "ablation.csv"),  # the same table as CSV
}


@dataclass(frozen=True)
class ExperimentPaths:
    """All artifact locations for one run directory, by the names in _RUN_FILES.

    data_dir may point at another run's data directory so ablation sub-runs
    can share datasets with their parent.
    """

    root: Path
    data_dir: Path

    @classmethod
    def for_run(cls, output_dir: str | Path, data_dir: str | Path | None = None) -> "ExperimentPaths":
        root = Path(output_dir)
        return cls(root=root, data_dir=Path(data_dir) if data_dir is not None else root / "data")

    def __getattr__(self, name: str) -> Path:
        if name not in _RUN_FILES:
            raise AttributeError(name)
        directory, file_name = _RUN_FILES[name]
        return getattr(self, directory) / file_name


def _require(path: Path, what: str, command: str) -> None:
    """A missing input artifact is a usage error: name the command that makes it."""
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist; run the {command} command first")


def cmd_generate(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Write the train/eval (and, if needed, mixed-objective) datasets."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    started = time.perf_counter()
    d = cfg.data
    # All splits share one world (projection_seed) while drawing disjoint
    # concepts and noise from their own sample seeds.
    def draw(n_pairs, seed, duplication, split):
        return generate_dataset(
            n_pairs=n_pairs, k=d["k"], d_in=d["d_in"], sigma=d["sigma"], seed=seed,
            duplication=duplication, split=split, projection_seed=cfg.seed,
        )

    train_pairs, train_manifest = draw(d["n_pairs"], cfg.seed, 1, "train")
    eval_pairs, eval_manifest = draw(d["eval_pairs"], cfg.seed + 1, 2, "eval")
    write_dataset(train_pairs, train_manifest, paths.train_data)
    write_dataset(eval_pairs, eval_manifest, paths.eval_data)
    summary = {
        "train": {"path": str(paths.train_data), "n_pairs": train_manifest.n_pairs},
        "eval": {"path": str(paths.eval_data), "n_pairs": eval_manifest.n_pairs},
    }
    if cfg.train_config().uses_mixed:
        triplet_pairs, triplet_manifest = draw(d["n_pairs"], cfg.seed + 2, 1, "train")
        write_dataset(triplet_pairs, triplet_manifest, paths.triplet_data)
        summary["triplet"] = {"path": str(paths.triplet_data), "n_pairs": triplet_manifest.n_pairs}
    write_json(paths.config, cfg.materialized)
    record_timing(paths.timings, "generate", {"seconds": time.perf_counter() - started})
    return summary


def cmd_train(
    cfg: ExperimentConfig,
    paths: ExperimentPaths | None = None,
    resume: bool = False,
    stop_after_epochs: int | None = None,
) -> dict:
    """Train on the generated data; writes checkpoint.gclc and train_log.json.

    A non-finite gradient leaves the training state at failure in
    failure.json before the error propagates.
    """
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    _require(paths.train_data, "training dataset", "generate")
    train_config = cfg.train_config()
    pairs, manifest = read_dataset(paths.train_data)
    if manifest.d_in != cfg.data["d_in"]:
        raise ConfigError(f"dataset d_in={manifest.d_in} does not match config d_in={cfg.data['d_in']}")
    second_pairs = None
    if train_config.uses_mixed:
        _require(paths.triplet_data, "mixed-objective dataset", "generate")
        second_pairs, _ = read_dataset(paths.triplet_data)
    resume_from = None
    existing_records = []
    if resume:
        _require(paths.checkpoint, "cannot resume: checkpoint", "train")
        resume_from = paths.checkpoint
        if paths.train_log.exists():  # read before training, so a bad log leaves the checkpoint alone
            existing_records = read_json(paths.train_log, "training log").get("records")
            if not isinstance(existing_records, list):
                raise FormatError(f"training log {paths.train_log} has no list of records")

    paths.failure.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        _, log = train(train_config, pairs, second_pairs=second_pairs, checkpoint_path=paths.checkpoint,
                       resume_from=resume_from, stop_after_epochs=stop_after_epochs)
    except NonFiniteGradientError as exc:
        if exc.state_dump is not None:
            write_json(paths.failure, exc.state_dump)
        raise
    elapsed = time.perf_counter() - started
    records = existing_records + log
    write_json(paths.train_log, {"config_hash": config_hash(train_config), "records": records})
    write_json(paths.config, cfg.materialized)
    ckpt = load_checkpoint(paths.checkpoint)
    record_timing(
        paths.timings,
        "train",
        {"seconds": elapsed, "steps": len(log), "steps_per_second": len(log) / elapsed if elapsed > 0 else None},
    )
    return {
        "checkpoint": str(paths.checkpoint),
        "steps": len(records),
        "epochs_completed": ckpt.epochs_completed,
        "final_loss": records[-1]["loss"] if records else None,
    }


def _encode_eval_views(cfg: ExperimentConfig, paths: ExperimentPaths):
    """Encode the eval dataset and split it into candidate/query views."""
    _require(paths.eval_data, "evaluation dataset", "generate")
    _require(paths.checkpoint, "checkpoint", "train")
    train_config = cfg.train_config()
    model = model_from_checkpoint(train_config, paths.checkpoint)
    pairs, manifest = read_dataset(paths.eval_data)
    if manifest.duplication != 2:
        raise FormatError(
            f"evaluation dataset {paths.eval_data} must have duplication 2 (candidate/query views), "
            f"got {manifest.duplication}"
        )
    _, x_img, x_txt = dataset_to_arrays(pairs)
    batch = model.encode_batch(x_img, x_txt)
    view0 = np.arange(0, len(pairs), 2)  # candidates
    view1 = np.arange(1, len(pairs), 2)  # queries
    candidate_rows = {m: rows[view0] for m, rows in batch.rows.items()}
    query_rows = {m: rows[view1] for m, rows in batch.rows.items()}
    return candidate_rows, query_rows


def _candidate_banks(candidate_rows: dict[Modality, np.ndarray]) -> dict[Modality, Bank]:
    """Each modality's candidates as a bank: candidate c has id 3 * c + bank index."""
    return {
        m: Bank(np.arange(b, 3 * len(candidate_rows[m]), 3), candidate_rows[m]) for b, m in enumerate(MODALITIES)
    }


def _query_set_for_task(
    query_rows: dict[Modality, np.ndarray], query_modality: Modality, cand_modality: Modality
) -> QuerySet:
    """One task's queries as a QuerySet: query c's ground truth is candidate c of the task's bank."""
    rows, bank_index = query_rows[query_modality], MODALITIES.index(cand_modality)
    concepts = range(rows.shape[0])
    queries = list(map(Query, concepts, rows, repeat(query_modality)))
    return QuerySet(queries, {c: {3 * c + bank_index} for c in concepts})


def compute_run_report(cfg: ExperimentConfig, paths: ExperimentPaths) -> tuple[dict, PcaProjection]:
    """The report.json payload, built in memory (no files written), plus the
    PCA projection that csv/pca_projection.csv tabulates. One rank_banks pass
    per query modality ranks its three tasks in the global and local pools;
    build_report and cosine_by_rank read each entry off it."""
    candidate_rows, query_rows = _encode_eval_views(cfg, paths)
    banks = _candidate_banks(candidate_rows)
    global_pool = build_global_pool([banks[m] for m in MODALITIES])
    local_pools = {m: build_local_pool(banks[m]) for m in MODALITIES}

    k_values, rank_cap = cfg.eval_plan["k_values"], cfg.eval_plan["rank_cap"]
    n = len(query_rows[MODALITIES[0]])  # one query and one candidate per bank for each concept
    # the configured K that fit each pool, ascending; the global pool holds a local one
    global_k, local_k = ([k for k in k_values if k <= size] for size in (global_pool.size, n))
    if not local_k:
        raise ConfigError(f"no configured K fits the local pools of size {n}")
    tasks: dict[str, dict[str, dict]] = {}
    for query_modality in MODALITIES:
        rankings = rank_banks(query_rows[query_modality], global_pool, global_k[-1], local_k[-1])
        global_curve = cosine_by_rank(rankings[0][0], global_pool, global_k[-1]).tolist()
        for cand_modality, (in_global, in_local) in zip(MODALITIES, rankings):
            local_pool = local_pools[cand_modality]
            tasks[f"q_{query_modality.code}->c_{cand_modality.code}"] = {
                "global": {**build_report(in_global, global_pool, global_k, rank_cap), "cosine_by_rank": global_curve},
                "local": {
                    **build_report(in_local, local_pool, local_k, rank_cap),
                    "cosine_by_rank": cosine_by_rank(in_local, local_pool, local_k[-1]).tolist(),
                },
            }

    gap_samples = {m: candidate_rows[m] for m in MODALITIES}
    gap = modality_gap_table(gap_samples)
    pca = pca_2d(gap_samples)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.run_hash(),
        "variant": cfg.variant,
        "seed": cfg.seed,
        "tasks": tasks,
        "gap": gap.to_json_dict(),
        "pca": {
            "components": pca.components.tolist(),
            "explained_variance_ratio": pca.explained_variance_ratio.tolist(),
        },
        "training_log": paths.train_log.name,
        "checkpoint": paths.checkpoint.name,
    }
    return payload, pca


def cmd_eval(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Evaluate the checkpoint; writes report.json plus per-task CSV tables."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    started = time.perf_counter()
    payload, pca = compute_run_report(cfg, paths)
    write_json(paths.report, payload)
    for task, by_setting in payload["tasks"].items():
        for setting, task_report in by_setting.items():
            stem = f"{setting}_{task.replace('->', '_to_')}"
            write_text(paths.csv_dir / f"{stem}.csv", report_csv(task_report))
    write_text(paths.csv_dir / "pca_projection.csv", pca.to_csv())
    record_timing(paths.timings, "eval", {"seconds": time.perf_counter() - started})
    return payload


def cmd_verify(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Recompute every report metric from the artifacts and compare exactly.

    Returns {"ok": True} or raises FormatError naming the first mismatch.
    """
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    _require(paths.report, "report", "eval")
    stored = read_json(paths.report, "report")
    recomputed, _ = compute_run_report(cfg, paths)  # JSON-native, so no round trip
    if stored == recomputed:
        return {"ok": True, "config_hash": recomputed["config_hash"]}
    diffs = _first_differences(stored, recomputed, path="report")
    raise FormatError(f"stored report does not match recomputation: {diffs}")


def _first_differences(a, b, path: str, limit: int = 3) -> str:
    """Human-readable description of the first few leaf-level mismatches."""
    found: list[str] = []

    def walk(x, y, where):
        if len(found) >= limit:
            return
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x or key not in y:
                    found.append(f"{where}.{key} present on one side only")
                else:
                    walk(x[key], y[key], f"{where}.{key}")
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                found.append(f"{where} lengths {len(x)} != {len(y)}")
                return
            for i, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{where}[{i}]")
        elif x != y:
            found.append(f"{where}: stored {x!r} != recomputed {y!r}")

    walk(a, b, path)
    return "; ".join(found) if found else "structures differ"


def cmd_ablate(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Train/evaluate all six loss variants on one dataset and tabulate them.

    Sub-runs live in <output_dir>/ablation/<variant>/ and share the parent's
    datasets. The table reports global-pool Recall@ablation_k for every task.
    """
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    _require(paths.train_data, "training dataset", "generate")
    _require(paths.eval_data, "evaluation dataset", "generate")
    _, eval_manifest = read_dataset(paths.eval_data)  # the pool is what is on disk, not what cfg.data says
    k, pool_size = cfg.eval_plan["ablation_k"], 3 * eval_manifest.n_pairs // 2
    if k not in cfg.eval_plan["k_values"] or k > pool_size:
        raise ConfigError(
            f"ablation_k={k} not in evaluated K grid {cfg.eval_plan['k_values']} "
            f"up to the global pool size {pool_size}"
        )
    for variant in ABLATION_VARIANTS:  # every sub-run's config (imsep: batch_size >= 2) is checked before any trains
        cfg.with_overrides(variant=variant)
    started = time.perf_counter()
    rows = []
    for variant in ABLATION_VARIANTS:
        sub_root = paths.root / "ablation" / variant.replace(":", "_")
        sub_paths = ExperimentPaths.for_run(sub_root, data_dir=paths.data_dir)
        sub_cfg = cfg.with_overrides(variant=variant, output_dir=str(sub_root))
        cmd_train(sub_cfg, paths=sub_paths)
        tasks = compute_run_report(sub_cfg, sub_paths)[0]["tasks"]
        rows.append({"variant": variant, **{t: tasks[t]["global"]["recall_at"][str(k)] for t in TASKS}})
    table = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.run_hash(),
        "setting": "global",
        "k": k,
        "tasks": list(TASKS),
        "rows": rows,
    }
    write_json(paths.ablation_json, table)
    lines = ["variant," + ",".join(TASKS)]
    for row in rows:
        lines.append(row["variant"] + "," + ",".join(f"{row[t]:.6f}" for t in TASKS))
    write_text(paths.ablation_csv, "\n".join(lines) + "\n")
    record_timing(paths.timings, "ablate", {"seconds": time.perf_counter() - started})
    return table


def _report_field(payload: dict, *keys: str, kind: tuple = (int, float)):
    """payload[keys[0]][keys[1]]...; raises FormatError unless it is there and of a type in kind."""
    value = payload
    for depth, key in enumerate(keys):
        if type(value) is not dict or key not in value:
            raise FormatError(f"report has no field {'.'.join(keys[: depth + 1])}")
        value = value[key]
    if type(value) not in kind:
        expected = " or ".join(t.__name__ for t in kind)
        raise FormatError(f"report field {'.'.join(keys)} is a {type(value).__name__}, expected {expected}")
    return value


def format_report_summary(payload: dict) -> str:
    """Render a stored report as a fixed-width text table.

    Raises FormatError when a field it reads is missing or has the wrong type.
    """
    tasks = _report_field(payload, "tasks", kind=(dict,))
    recalls = {
        (task, setting): _report_field(payload, "tasks", task, setting, "recall_at", kind=(dict,))
        for task in sorted(tasks)
        for setting in ("global", "local")
    }
    for (task, setting), recall_at in recalls.items():
        for k, value in recall_at.items():
            if not k.isdecimal() or type(value) not in (int, float):
                raise FormatError(f"report field tasks.{task}.{setting}.recall_at.{k} is not a number at a K")
    ratio = _report_field(payload, "pca", "explained_variance_ratio", kind=(list,))
    if len(ratio) < 2 or not all(type(r) in (int, float) for r in ratio[:2]):
        raise FormatError("report field pca.explained_variance_ratio does not start with two numbers")
    lines = [
        f"variant: {_report_field(payload, 'variant', kind=(str,))}    "
        f"seed: {_report_field(payload, 'seed', kind=(int,))}",
        f"config:  {_report_field(payload, 'config_hash', kind=(str,))[:16]}...",
        "",
    ]
    k_strings = sorted(next(iter(recalls.values()), {}), key=int)
    header = f"{'task':14s} {'setting':8s}" + "".join(f"  R@{k:>3s}" for k in k_strings)
    lines.append(header)
    lines.append("-" * len(header))
    for (task, setting), recall_at in recalls.items():
        cells = "".join(f"  {recall_at.get(k, float('nan')):.3f}" for k in k_strings)
        lines.append(f"{task:14s} {setting:8s}{cells}")
    lines.append("")
    lines.append(f"min cross-modality mean cosine: {_report_field(payload, 'gap', 'min_cross_modality_cosine'):.4f}")
    lines.append(f"top-2 explained variance: {ratio[0]:.3f} + {ratio[1]:.3f}")
    return "\n".join(lines)


def cmd_report(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> str:
    """Summarize an existing report.json as human-readable text."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    _require(paths.report, "report", "eval")
    payload = read_json(paths.report, "report")
    with reading(paths.report):
        return format_report_summary(payload)
