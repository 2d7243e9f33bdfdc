"""Span tracing of gcl_lab from outside the package.

The tracer replaces each public function at the name its caller looks it up
(``gcl_lab.training.gcl_loss``, ``LinearEncoder.forward`` on the class, ...)
with a wrapper that records one span per call: name, start, end, parent span
and run id. Spans stay in memory until the benchmark writes them out. A
target that no longer exists is listed in ``absent`` and its metrics are left
out, so a later rename does not crash the benchmark.

The wrappers only time calls and read argument sizes, so a traced run must
produce byte-identical artifacts; the benchmark checks that.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

from workloads import MODULES

# Span names that are stage roots opened by the benchmark itself; their self
# time is CLI glue (argument parsing, config loading, printing).
STAGE_PREFIX = "stage."


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _file_bytes(position, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, position, name))


def _scored(args, kwargs, result):
    queries = _arg(args, kwargs, 0, "queries")
    pool = _arg(args, kwargs, 1, "pool")
    return len(queries.queries) * pool.size


# (span name, module, attribute path, counter name, counter). The span name's
# first part is the gcl_lab module that owns the function; the module and
# attribute are where the caller looks the function up.
TARGETS = (
    ("synth.generate_dataset", "gcl_lab.experiment", "generate_dataset", None, None),
    ("synth.write_dataset", "gcl_lab.experiment", "write_dataset",
     "synth.write_dataset.bytes", _file_bytes(2, "path")),
    ("synth.read_dataset", "gcl_lab.experiment", "read_dataset",
     "synth.read_dataset.bytes", _file_bytes(0, "path")),
    ("synth.dataset_to_arrays", "gcl_lab.experiment", "dataset_to_arrays", None, None),
    ("synth.dataset_to_arrays", "gcl_lab.training", "dataset_to_arrays", None, None),
    ("losses.gcl_loss", "gcl_lab.training", "gcl_loss", None, None),
    ("losses.gcl_loss_ablation", "gcl_lab.training", "gcl_loss_ablation", None, None),
    ("losses.cl_loss", "gcl_lab.training", "cl_loss", None, None),
    ("losses.intra_modality_separation_loss", "gcl_lab.training",
     "intra_modality_separation_loss", None, None),
    ("encoders.forward", "gcl_lab.encoders", "LinearEncoder.forward", None, None),
    ("encoders.forward", "gcl_lab.encoders", "MlpEncoder.forward", None, None),
    ("encoders.backward", "gcl_lab.encoders", "LinearEncoder.backward", None, None),
    ("encoders.backward", "gcl_lab.encoders", "MlpEncoder.backward", None, None),
    ("embeddings.fuse_sum_rows", "gcl_lab.training", "fuse_sum_rows", None, None),
    ("training.fusion_backprop", "gcl_lab.training", "fusion_backprop", None, None),
    ("optim.adamw_step", "gcl_lab.training", "adamw_step", None, None),
    ("training.train", "gcl_lab.experiment", "train",
     "training.steps", lambda args, kwargs, result: len(result[1])),
    ("training.save_checkpoint", "gcl_lab.training", "save_checkpoint",
     "training.save_checkpoint.bytes", _file_bytes(0, "path")),
    ("training.load_checkpoint", "gcl_lab.training", "load_checkpoint", None, None),
    ("training.load_checkpoint", "gcl_lab.experiment", "load_checkpoint", None, None),
    ("evaluation.build_report", "gcl_lab.experiment", "build_report",
     "evaluation.candidates_scored", _scored),
    ("evaluation.cosine_by_rank", "gcl_lab.experiment", "cosine_by_rank",
     "evaluation.candidates_scored", _scored),
    ("evaluation.pools", "gcl_lab.experiment", "build_global_pool", None, None),
    ("evaluation.pools", "gcl_lab.experiment", "build_local_pool", None, None),
    ("diagnostics.modality_gap_table", "gcl_lab.experiment", "modality_gap_table", None, None),
    ("diagnostics.pca_2d", "gcl_lab.experiment", "pca_2d", None, None),
    ("experiment.compute_run_report", "gcl_lab.experiment", "compute_run_report", None, None),
    ("experiment.cmd_generate", "gcl_lab.experiment", "cmd_generate", None, None),
    ("experiment.cmd_train", "gcl_lab.experiment", "cmd_train", None, None),
    ("experiment.cmd_eval", "gcl_lab.experiment", "cmd_eval", None, None),
    ("experiment.cmd_verify", "gcl_lab.experiment", "cmd_verify", None, None),
    ("experiment.cmd_ablate", "gcl_lab.experiment", "cmd_ablate", None, None),
)

LOSS_FUNCTIONS = ("gcl_loss", "gcl_loss_ablation", "cl_loss", "intra_modality_separation_loss")


class Tracer:
    """Installs the wrappers and keeps every span and count they record."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, run_id)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (run_id, counter)
        self.absent: list[str] = []
        self.failed_counters: set[str] = set()
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self, run_id: str) -> None:
        """Wrap every target and record spans under ``run_id`` until ``uninstall``."""
        self.run_id = run_id
        self.absent = []
        for name, module, attr, counter_name, counter in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, counter_name, counter))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()
        self.run_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, such as a stage root."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, perf_counter())

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, end) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1, self.run_id)

    def _wrap(self, fn, name, counter_name, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name, start, perf_counter())
            if counter is not None and counter_name not in tracer.failed_counters:
                try:
                    tracer.counts[(tracer.run_id, counter_name)] += counter(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    tracer.failed_counters.add(counter_name)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, extra: dict) -> None:
        payload = {
            **extra,
            "absent_targets": self.absent,
            "failed_counters": sorted(self.failed_counters),
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def analyse(tracer: Tracer, run_id: str) -> dict:
    """Per-span-name totals and self times, and per-stage module splits, for one run id."""
    rows = [(i, s) for i, s in enumerate(tracer.spans) if s is not None and s[4] == run_id]
    child_time: dict[int, float] = defaultdict(float)
    for _, (_, start, end, parent, _) in rows:
        if parent >= 0:
            child_time[parent] += end - start
    stage_of: dict[int, str] = {}
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    stage_wall: dict[str, float] = defaultdict(float)
    stage_module: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, parent, _) in rows:
        duration = end - start
        own = duration - child_time[index]
        stage = name[len(STAGE_PREFIX):] if parent < 0 and name.startswith(STAGE_PREFIX) else stage_of.get(parent)
        stage_of[index] = stage
        total[name] += duration
        self_time[name] += own
        calls[name] += 1
        durations[name].append(duration)
        if name.startswith(STAGE_PREFIX):
            stage_wall[stage] += duration
            stage_module[stage]["(cli glue)"] += own
        elif stage is not None:
            stage_module[stage][name.split(".")[0]] += own
    return {
        "total": total,
        "self": self_time,
        "calls": calls,
        "durations": durations,
        "stage_wall": stage_wall,
        "stage_module": stage_module,
        "counts": {c: v for (r, c), v in tracer.counts.items() if r == run_id},
    }


def layer_metrics(a: dict, failed_counters: set[str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    total, self_time, calls = a["total"], a["self"], a["calls"]
    out: dict[str, tuple[float, str]] = {}

    def seconds(metric, span, table=total):
        if span in calls:
            out[metric] = (table[span], "s")

    def count(metric, value_of):
        out[metric] = (value_of, "count")

    for fn in ("generate_dataset", "write_dataset", "read_dataset", "dataset_to_arrays"):
        seconds(f"synth.{fn}.s", f"synth.{fn}")
    loss_spans = [f"losses.{fn}" for fn in LOSS_FUNCTIONS if f"losses.{fn}" in calls]
    if loss_spans:
        out["losses.s"] = (sum(total[s] for s in loss_spans), "s")
        count("losses.calls", sum(calls[s] for s in loss_spans))
        all_ms = [d * 1e3 for s in loss_spans for d in a["durations"][s]]
        out["losses.call_ms.p50"] = (statistics.median(all_ms), "ms")
    seconds("encoders.forward.s", "encoders.forward")
    if "encoders.forward" in calls:
        count("encoders.forward.calls", calls["encoders.forward"])
    seconds("encoders.backward.s", "encoders.backward")
    seconds("embeddings.fuse_sum_rows.s", "embeddings.fuse_sum_rows")
    seconds("training.fusion_backprop.s", "training.fusion_backprop")
    seconds("optim.adamw_step.s", "optim.adamw_step")
    if "optim.adamw_step" in calls:
        count("optim.adamw_step.calls", calls["optim.adamw_step"])
    seconds("training.train.self_s", "training.train", self_time)
    seconds("training.save_checkpoint.s", "training.save_checkpoint")
    seconds("training.load_checkpoint.s", "training.load_checkpoint")
    for name in ("evaluation.build_report", "evaluation.cosine_by_rank"):
        seconds(f"{name}.s", name)
        if name in calls:
            count(f"{name}.calls", calls[name])
    seconds("evaluation.pools.s", "evaluation.pools")
    seconds("diagnostics.modality_gap_table.s", "diagnostics.modality_gap_table")
    seconds("diagnostics.pca_2d.s", "diagnostics.pca_2d")
    seconds("experiment.compute_run_report.s", "experiment.compute_run_report")
    seconds("experiment.compute_run_report.self_s", "experiment.compute_run_report", self_time)
    for stage in ("generate", "train", "eval", "verify"):
        seconds(f"experiment.cmd_{stage}.self_s", f"experiment.cmd_{stage}", self_time)
    for counter, unit in (
        ("synth.write_dataset.bytes", "bytes"),
        ("synth.read_dataset.bytes", "bytes"),
        ("training.save_checkpoint.bytes", "bytes"),
        ("training.steps", "count"),
        ("evaluation.candidates_scored", "count"),
    ):
        if counter in a["counts"] and counter not in failed_counters:
            out[counter] = (a["counts"][counter], unit)
    module_self: dict[str, float] = defaultdict(float)
    for by_module in a["stage_module"].values():
        for module, seconds_ in by_module.items():
            module_self[module] += seconds_
    for module in MODULES:
        out[f"{module}.self_s"] = (module_self[module], "s")
    wall = sum(a["stage_wall"].values())
    accounted = sum(module_self[m] for m in MODULES)
    out["trace.accounted_share"] = (accounted / wall if wall else 0.0, "ratio")
    count("trace.spans", sum(calls.values()))
    return out
