"""Config-driven experiment orchestration behind the command-line interface.

An experiment is described by one JSON config with a versioned schema. All
defaults are materialized into the stored config so artifacts are fully
self-describing, and the run hash is the sha256 of that canonical form
(minus the output directory, which locates a run without identifying it).

One run directory holds everything an experiment produces:

    config.json          materialized config
    data/train.gcld      training pairs (+ .json sidecar)
    data/eval.gcld       evaluation pairs, two views per concept
    data/triplet.gcld    extra pairs for the mixed objective (when used)
    checkpoint.gclc      final weights + optimizer state
    train_log.json       one record per optimization step
    report.json          retrieval metrics + gap diagnostics (deterministic)
    timings.json         wall-clock numbers (the one nondeterministic file)
    failure.json         training state at a non-finite gradient (failed runs only)
    csv/                 per-task per-query tables, projection scatter

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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import GapReport, PcaProjection, modality_gap_table, pca_2d
from .embeddings import MODALITIES, Modality
from .errors import ConfigError, FormatError, InvalidDimsError, NonFiniteGradientError
from .evaluation import (
    Candidate,
    Query,
    QuerySet,
    RetrievalReport,
    build_global_pool,
    build_local_pool,
    build_report,
    cosine_by_rank,
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

TASKS = tuple(
    f"q_{qm.code}->c_{cm.code}" for qm in MODALITIES for cm in MODALITIES
)


def _task_modalities(task: str) -> tuple[Modality, Modality]:
    query_part, cand_part = task.split("->")
    by_code = {m.code: m for m in MODALITIES}
    return by_code[query_part[2:]], by_code[cand_part[2:]]


def materialize_config(raw: dict) -> dict:
    """Fill every default and reject unknown keys; returns the canonical dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"experiment config must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version}, expected {SCHEMA_VERSION}")
    out: dict = {}
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
        else:
            out[key] = raw.get(key, default)
    if not out["eval"]["k_values"]:
        raise ConfigError("eval.k_values must be non-empty")
    out["eval"]["k_values"] = sorted(set(int(k) for k in out["eval"]["k_values"]))
    if out["data"]["eval_pairs"] % 2 != 0:
        raise ConfigError(
            f"data.eval_pairs must be even (two views per concept), got {out['data']['eval_pairs']}"
        )
    if out["data"]["k"] > out["data"]["d_in"]:
        raise InvalidDimsError(
            f"latent dim k={out['data']['k']} cannot exceed feature dim d_in={out['data']['d_in']}"
        )
    if out["data"]["sigma"] < 0:
        raise ConfigError(f"data.sigma must be >= 0, got {out['data']['sigma']}")
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
            raw = json.loads(Path(path).read_text())
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


@dataclass(frozen=True)
class ExperimentPaths:
    """All artifact locations for one run directory.

    data_dir may point at another run's data directory so ablation sub-runs
    can share datasets with their parent.
    """

    root: Path
    data_dir: Path

    @classmethod
    def for_run(cls, output_dir: str | Path, data_dir: str | Path | None = None) -> "ExperimentPaths":
        root = Path(output_dir)
        return cls(root=root, data_dir=Path(data_dir) if data_dir is not None else root / "data")

    @property
    def config(self) -> Path:
        return self.root / "config.json"

    @property
    def train_data(self) -> Path:
        return self.data_dir / "train.gcld"

    @property
    def eval_data(self) -> Path:
        return self.data_dir / "eval.gcld"

    @property
    def triplet_data(self) -> Path:
        return self.data_dir / "triplet.gcld"

    @property
    def checkpoint(self) -> Path:
        return self.root / "checkpoint.gclc"

    @property
    def train_log(self) -> Path:
        return self.root / "train_log.json"

    @property
    def report(self) -> Path:
        return self.root / "report.json"

    @property
    def timings(self) -> Path:
        return self.root / "timings.json"

    @property
    def failure(self) -> Path:
        return self.root / "failure.json"

    @property
    def csv_dir(self) -> Path:
        return self.root / "csv"

    @property
    def ablation_json(self) -> Path:
        return self.root / "ablation.json"

    @property
    def ablation_csv(self) -> Path:
        return self.root / "ablation.csv"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record_timing(paths: ExperimentPaths, command: str, seconds: float, extra: dict | None = None) -> None:
    timings = {}
    if paths.timings.exists():
        timings = json.loads(paths.timings.read_text())
    entry: dict = {"seconds": seconds}
    if extra:
        entry.update(extra)
    timings[command] = entry
    _write_json(paths.timings, timings)


def _write_config(cfg: ExperimentConfig, paths: ExperimentPaths) -> None:
    _write_json(paths.config, cfg.materialized)


def cmd_generate(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Write the train/eval (and, if needed, mixed-objective) datasets."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    started = time.perf_counter()
    d = cfg.data
    # All splits share one world (projection_seed) while drawing disjoint
    # concepts and noise from their own sample seeds.
    train_pairs, train_manifest = generate_dataset(
        n_pairs=d["n_pairs"], k=d["k"], d_in=d["d_in"], sigma=d["sigma"], seed=cfg.seed,
        duplication=1, split="train", projection_seed=cfg.seed,
    )
    eval_pairs, eval_manifest = generate_dataset(
        n_pairs=d["eval_pairs"], k=d["k"], d_in=d["d_in"], sigma=d["sigma"], seed=cfg.seed + 1,
        duplication=2, split="eval", projection_seed=cfg.seed,
    )
    paths.data_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(train_pairs, train_manifest, paths.train_data)
    write_dataset(eval_pairs, eval_manifest, paths.eval_data)
    summary = {
        "train": {"path": str(paths.train_data), "n_pairs": train_manifest.n_pairs},
        "eval": {"path": str(paths.eval_data), "n_pairs": eval_manifest.n_pairs},
    }
    needs_triplet = cfg.variant == "gcl_plus_triplet" and cfg.materialized["train"]["triplet_weight"] > 0
    if needs_triplet:
        triplet_pairs, triplet_manifest = generate_dataset(
            n_pairs=d["n_pairs"], k=d["k"], d_in=d["d_in"], sigma=d["sigma"], seed=cfg.seed + 2,
            duplication=1, split="train", projection_seed=cfg.seed,
        )
        write_dataset(triplet_pairs, triplet_manifest, paths.triplet_data)
        summary["triplet"] = {"path": str(paths.triplet_data), "n_pairs": triplet_manifest.n_pairs}
    _write_config(cfg, paths)
    _record_timing(paths, "generate", time.perf_counter() - started)
    return summary


def _require_dataset(path: Path, what: str) -> None:
    if not path.exists():
        raise ConfigError(f"{what} dataset {path} does not exist; run the generate command first")


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
    _require_dataset(paths.train_data, "training")
    train_config = cfg.train_config()
    pairs, manifest = read_dataset(paths.train_data)
    if manifest.d_in != cfg.data["d_in"]:
        raise ConfigError(
            f"dataset d_in={manifest.d_in} does not match config d_in={cfg.data['d_in']}"
        )
    second_pairs = None
    if train_config.variant == "gcl_plus_triplet" and train_config.triplet_weight > 0:
        _require_dataset(paths.triplet_data, "mixed-objective")
        second_pairs, _ = read_dataset(paths.triplet_data)
    resume_from = None
    if resume:
        if not paths.checkpoint.exists():
            raise ConfigError(f"cannot resume: checkpoint {paths.checkpoint} does not exist")
        resume_from = paths.checkpoint

    paths.failure.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        _, log = train(
            train_config,
            pairs,
            second_pairs=second_pairs,
            checkpoint_path=paths.checkpoint,
            resume_from=resume_from,
            stop_after_epochs=stop_after_epochs,
        )
    except NonFiniteGradientError as exc:
        if exc.state_dump is not None:
            _write_json(paths.failure, exc.state_dump)
        raise
    elapsed = time.perf_counter() - started

    existing_records = []
    if resume and paths.train_log.exists():
        existing_records = json.loads(paths.train_log.read_text())["records"]
    records = existing_records + log
    _write_json(
        paths.train_log,
        {"config_hash": config_hash(train_config), "records": records},
    )
    _write_config(cfg, paths)
    ckpt = load_checkpoint(paths.checkpoint)
    _record_timing(
        paths,
        "train",
        elapsed,
        extra={"steps": len(log), "steps_per_second": len(log) / elapsed if elapsed > 0 else None},
    )
    return {
        "checkpoint": str(paths.checkpoint),
        "steps": len(records),
        "epochs_completed": ckpt.epochs_completed,
        "final_loss": records[-1]["loss"] if records else None,
    }


def _encode_eval_views(cfg: ExperimentConfig, paths: ExperimentPaths):
    """Encode the eval dataset and split it into candidate/query views."""
    _require_dataset(paths.eval_data, "evaluation")
    if not paths.checkpoint.exists():
        raise ConfigError(f"checkpoint {paths.checkpoint} does not exist; run the train command first")
    train_config = cfg.train_config()
    model = model_from_checkpoint(train_config, paths.checkpoint)
    pairs, manifest = read_dataset(paths.eval_data)
    if manifest.duplication != 2:
        raise FormatError(
            f"evaluation dataset must have duplication 2 (candidate/query views), got {manifest.duplication}"
        )
    _, x_img, x_txt = dataset_to_arrays(pairs)
    batch = model.encode_batch(x_img, x_txt)
    view0 = np.arange(0, len(pairs), 2)  # candidates
    view1 = np.arange(1, len(pairs), 2)  # queries
    rows = {
        Modality.IMAGE: batch.images.rows,
        Modality.TEXT: batch.texts.rows,
        Modality.FUSED: batch.fused.rows,
    }
    candidate_rows = {m: rows[m][view0] for m in MODALITIES}
    query_rows = {m: rows[m][view1] for m in MODALITIES}
    return candidate_rows, query_rows


def _candidate_banks(candidate_rows: dict[Modality, np.ndarray]) -> dict[Modality, list[Candidate]]:
    banks: dict[Modality, list[Candidate]] = {}
    for bank_index, modality in enumerate(MODALITIES):
        rows = candidate_rows[modality]
        banks[modality] = [
            Candidate(
                id=3 * concept + bank_index,
                embedding=rows[concept],
                modality=modality,
                source_task=f"c_{modality.code}",
            )
            for concept in range(rows.shape[0])
        ]
    return banks


def _query_set_for_task(
    query_rows: dict[Modality, np.ndarray], query_modality: Modality, cand_modality: Modality
) -> QuerySet:
    rows = query_rows[query_modality]
    bank_index = MODALITIES.index(cand_modality)
    queries = [
        Query(id=concept, embedding=rows[concept], modality=query_modality)
        for concept in range(rows.shape[0])
    ]
    ground_truth = {concept: {3 * concept + bank_index} for concept in range(rows.shape[0])}
    return QuerySet(queries=queries, ground_truth=ground_truth)


@dataclass
class RunReport:
    """Everything cmd_eval measures, recomputable from the run's artifacts."""

    config_hash: str
    variant: str
    seed: int
    tasks: dict[str, dict[str, RetrievalReport]]  # task -> setting -> report
    cosine_curves: dict[str, dict[str, list[float]]]
    gap: GapReport
    pca: PcaProjection
    training_log: str
    checkpoint: str

    def to_json_dict(self) -> dict:
        tasks = {}
        for task, by_setting in self.tasks.items():
            tasks[task] = {
                setting: report.to_json_dict() for setting, report in by_setting.items()
            }
            for setting in tasks[task]:
                tasks[task][setting]["cosine_by_rank"] = self.cosine_curves[task][setting]
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "variant": self.variant,
            "seed": self.seed,
            "tasks": tasks,
            "gap": self.gap.to_json_dict(),
            "pca": {
                "components": self.pca.components.tolist(),
                "explained_variance_ratio": self.pca.explained_variance_ratio.tolist(),
            },
            "training_log": self.training_log,
            "checkpoint": self.checkpoint,
        }


def compute_run_report(cfg: ExperimentConfig, paths: ExperimentPaths) -> RunReport:
    """Build the full evaluation report in memory (no files written)."""
    candidate_rows, query_rows = _encode_eval_views(cfg, paths)
    banks = _candidate_banks(candidate_rows)
    global_pool = build_global_pool([banks[m] for m in MODALITIES])
    local_pools = {m: build_local_pool(banks[m]) for m in MODALITIES}

    k_values = cfg.eval_plan["k_values"]
    rank_cap = cfg.eval_plan["rank_cap"]
    tasks: dict[str, dict[str, RetrievalReport]] = {}
    curves: dict[str, dict[str, list[float]]] = {}
    for task in TASKS:
        query_modality, cand_modality = _task_modalities(task)
        queries = _query_set_for_task(query_rows, query_modality, cand_modality)
        tasks[task] = {}
        curves[task] = {}
        for setting, pool in (("global", global_pool), ("local", local_pools[cand_modality])):
            usable_k = [k for k in k_values if k <= pool.size]
            if not usable_k:
                raise ConfigError(f"no configured K fits pool of size {pool.size} for task {task}")
            tasks[task][setting] = build_report(queries, pool, usable_k, rank_cap=rank_cap)
            max_rank = min(max(usable_k), pool.size)
            curves[task][setting] = [
                float(v) for v in cosine_by_rank(queries, pool, max_rank)
            ]

    gap_samples = {m: candidate_rows[m] for m in MODALITIES}
    gap = modality_gap_table(gap_samples)
    pca = pca_2d(gap_samples)
    return RunReport(
        config_hash=cfg.run_hash(),
        variant=cfg.variant,
        seed=cfg.seed,
        tasks=tasks,
        cosine_curves=curves,
        gap=gap,
        pca=pca,
        training_log=paths.train_log.name,
        checkpoint=paths.checkpoint.name,
    )


def _task_file_stem(setting: str, task: str) -> str:
    return f"{setting}_{task.replace('->', '_to_')}"


def cmd_eval(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Evaluate the checkpoint; writes report.json plus per-task CSV tables."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    started = time.perf_counter()
    report = compute_run_report(cfg, paths)
    payload = report.to_json_dict()
    _write_json(paths.report, payload)
    paths.csv_dir.mkdir(parents=True, exist_ok=True)
    for task, by_setting in report.tasks.items():
        for setting, task_report in by_setting.items():
            stem = _task_file_stem(setting, task)
            (paths.csv_dir / f"{stem}.csv").write_text(task_report.to_csv())
    (paths.csv_dir / "pca_projection.csv").write_text(report.pca.to_csv())
    _record_timing(paths, "eval", time.perf_counter() - started)
    return payload


def cmd_verify(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Recompute every report metric from the artifacts and compare exactly.

    Returns {"ok": True} or raises FormatError naming the first mismatch.
    """
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    if not paths.report.exists():
        raise ConfigError(f"report {paths.report} does not exist; run the eval command first")
    stored = json.loads(paths.report.read_text())
    recomputed = json.loads(json.dumps(compute_run_report(cfg, paths).to_json_dict()))
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


def _safe_variant_dirname(variant: str) -> str:
    return variant.replace(":", "_")


def cmd_ablate(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> dict:
    """Train/evaluate all six loss variants on one dataset and tabulate them.

    Sub-runs live in <output_dir>/ablation/<variant>/ and share the parent's
    datasets. The table reports global-pool Recall@ablation_k for every task.
    """
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    _require_dataset(paths.train_data, "training")
    _require_dataset(paths.eval_data, "evaluation")
    started = time.perf_counter()
    k = cfg.eval_plan["ablation_k"]
    rows = []
    for variant in ABLATION_VARIANTS:
        sub_root = paths.root / "ablation" / _safe_variant_dirname(variant)
        sub_paths = ExperimentPaths.for_run(sub_root, data_dir=paths.data_dir)
        sub_paths.root.mkdir(parents=True, exist_ok=True)
        sub_cfg = cfg.with_overrides(variant=variant, output_dir=str(sub_root))
        cmd_train(sub_cfg, paths=sub_paths)
        report = compute_run_report(sub_cfg, sub_paths)
        row: dict = {"variant": variant}
        for task in TASKS:
            task_report = report.tasks[task]["global"]
            if k not in task_report.recall_at:
                raise ConfigError(
                    f"ablation_k={k} not in evaluated K grid {task_report.k_values}"
                )
            row[task] = task_report.recall_at[k]
        rows.append(row)
    table = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.run_hash(),
        "setting": "global",
        "k": k,
        "tasks": list(TASKS),
        "rows": rows,
    }
    _write_json(paths.ablation_json, table)
    lines = ["variant," + ",".join(TASKS)]
    for row in rows:
        lines.append(row["variant"] + "," + ",".join(f"{row[t]:.6f}" for t in TASKS))
    paths.ablation_csv.write_text("\n".join(lines) + "\n")
    _record_timing(paths, "ablate", time.perf_counter() - started)
    return table


def format_report_summary(payload: dict) -> str:
    """Render a stored report as a fixed-width text table."""
    lines = [
        f"variant: {payload['variant']}    seed: {payload['seed']}",
        f"config:  {payload['config_hash'][:16]}...",
        "",
    ]
    tasks = payload["tasks"]
    k_strings: list[str] = []
    for by_setting in tasks.values():
        for report in by_setting.values():
            k_strings = sorted(report["recall_at"], key=int)
            break
        break
    header = f"{'task':14s} {'setting':8s}" + "".join(f"  R@{k:>3s}" for k in k_strings)
    lines.append(header)
    lines.append("-" * len(header))
    for task in sorted(tasks):
        for setting in ("global", "local"):
            report = tasks[task][setting]
            cells = "".join(
                f"  {report['recall_at'].get(k, float('nan')):.3f}" for k in k_strings
            )
            lines.append(f"{task:14s} {setting:8s}{cells}")
    gap = payload["gap"]
    lines.append("")
    lines.append(f"min cross-modality mean cosine: {gap['min_cross_modality_cosine']:.4f}")
    ratio = payload["pca"]["explained_variance_ratio"]
    lines.append(f"top-2 explained variance: {ratio[0]:.3f} + {ratio[1]:.3f}")
    return "\n".join(lines)


def cmd_report(cfg: ExperimentConfig, paths: ExperimentPaths | None = None) -> str:
    """Summarize an existing report.json as human-readable text."""
    paths = paths or ExperimentPaths.for_run(cfg.output_dir)
    if not paths.report.exists():
        raise ConfigError(f"report {paths.report} does not exist; run the eval command first")
    return format_report_summary(json.loads(paths.report.read_text()))
