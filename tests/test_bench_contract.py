"""The benchmark's traced run still finds every function it reports on.

``perfbench/tracer.py`` wraps public functions at the names their callers
look them up (``gcl_lab.experiment.build_report``, ...). A rename in the
package, or a broken ``evaluation.candidates_scored`` counter, silently drops
per-layer metrics from a ``--trace 1`` result. This runs the CLI stages once
under the tracer at a tiny scale and checks that every per-layer metric that
BENCHMARK.json declares is produced, finite.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from gcl_lab.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracer import Tracer, analyse, layer_metrics  # noqa: E402

TINY = {
    "variant": "gcl",
    "data": {"n_pairs": 256, "eval_pairs": 40, "d_in": 8, "k": 4},
    "train": {"d_out": 6, "batch_size": 32, "epochs": 1, "warmup_steps": 2},
}
STAGES = ("generate", "train", "eval", "verify")
# Measured by the benchmark from untraced and traced passes, not by the tracer.
NOT_FROM_TRACER = {"trace.overhead_s"}


def run_traced(root, config):
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    tracer = Tracer()
    tracer.install("contract")
    try:
        for stage in STAGES:
            with tracer.span(f"stage.{stage}"):
                code = main([stage, "--config", str(cfg), "--out", str(root / "run"), "--threads", "1"])
            assert code == 0, f"stage {stage} exited with {code}"
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return run_traced(tmp_path_factory.mktemp("bench"), TINY)


def missing_metrics(tracer):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layer_metrics(analyse(tracer, "contract"), tracer.failed_counters)
    assert all(math.isfinite(value) for value, _ in metrics.values())
    return [m["name"] for m in declared if m["name"] not in NOT_FROM_TRACER and m["name"] not in metrics]


def test_every_wrap_target_exists(traced_run):
    assert traced_run.absent == []


def test_every_counter_reads(traced_run):
    assert traced_run.failed_counters == set()


def test_every_declared_per_layer_metric_is_produced(traced_run):
    assert missing_metrics(traced_run) == []


def test_cl_run_produces_every_declared_per_layer_metric(tmp_path):
    # The data-io workload trains cl, which reads no fused rows: every function
    # the tracer wraps must still be called by its name on that path.
    tracer = run_traced(tmp_path, {**TINY, "variant": "cl"})
    assert tracer.absent == [] and tracer.failed_counters == set()
    assert missing_metrics(tracer) == []
