"""End-to-end benchmark of the gcl-lab pipeline, with an optional traced run.

    python3 perfbench/run.py --workload ref-pipeline --seed 1 --seconds 30 --trace 0

Run it from the root of a gcl-lab checkout; it imports the package from
``src/``. One process runs one workload (see ``workloads.py``): it pins the
BLAS/OpenMP pools to one thread as ``gcl-lab --threads 1`` does and runs the
workload's CLI stages in-process through ``gcl_lab.cli.main``.

The benchmark also fixes glibc's allocator thresholds (see ``pin_allocator``),
so freed memory stays in the heap and re-runs of a stage fault no pages.

``--trace 0`` runs the pipeline once to warm up and then re-runs single
stages until ``--seconds`` would be exceeded (see ``sample_stages``); each
stage time is the median of its samples. ``setup_s`` is the median time from
starting a fresh interpreter to the point where the first stage could begin,
over several probe processes spread over the run. ``--trace 1`` runs one
warm-up pass, then alternates untraced and traced passes and reports
per-layer metrics from the traced ones (see ``tracer.py``); the spans are
written to ``.perfbench-runs/``.

Outputs are checked on every run: against ``reference.json`` (recorded by
``record_reference.py``), by ``gcl-lab verify``, and for byte-identical
artifacts across re-runs and between traced and untraced passes. A failed
check counts as a failed operation and does not stop the run.

Text lines start with ``#``; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import MODULES, REFERENCE_SEEDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
REFERENCE = BENCH_DIR / "reference.json"

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7
# Shortest stretch of stage re-runs timed as one sample (see sample_stages).
BATCH_S = 1.0
LOSS_RTOL = 1e-9
# mallopt parameters of glibc's malloc.h, and the largest mmap threshold it accepts.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_MAX = 32 << 20


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise SystemExit(
            "perfbench: numpy was imported before the BLAS/OpenMP thread pin was applied; "
            "the pools would keep their default size"
        )
    for var in THREAD_ENV_VARS:
        os.environ[var] = "1"


def pin_allocator() -> None:
    """Keep freed memory in the heap, so a stage re-run touches no fresh pages.

    By default glibc returns freed memory to the kernel (trim) and moves its
    mmap threshold with each free, so how many pages a re-run must fault in
    depends on the heap the previous stage left (2k to 90k faults per
    execution of the ref-pipeline train stage on a 2-vCPU Xeon VM, which
    moved its time by up to a third). A fixed threshold and no trimming make
    warm re-runs fault-free, so stage times measure the program's own work.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        raise SystemExit("perfbench: the C library has no mallopt (glibc is required)") from None
    if not (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) and mallopt(M_TRIM_THRESHOLD, 2**31 - 1)):
        raise SystemExit("perfbench: mallopt refused the allocator thresholds")


def setup(workload, bench_seed: int, run_root: Path):
    """Everything before the first stage after the thread pin: imports, config, run directory."""
    if not (SRC / "gcl_lab").is_dir():
        raise SystemExit(f"perfbench: no gcl_lab package under {SRC}; run from a gcl-lab checkout")
    sys.path.insert(0, str(SRC))
    import gcl_lab.cli
    import gcl_lab.experiment

    cfg = gcl_lab.experiment.ExperimentConfig.from_dict(workload.experiment_config(bench_seed))
    run_root.mkdir(parents=True, exist_ok=True)
    cfg_path = run_root / "config.json"
    cfg_path.write_text(json.dumps(cfg.materialized, indent=2, sort_keys=True) + "\n")
    return gcl_lab.cli.main, cfg_path


def setup_probe(args, index: int) -> float:
    """Wall time from spawning an interpreter to its 'ready' line."""
    probe_dir = RUNS / f"probe-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-probe", str(probe_dir),
    ]
    seconds = None
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True) as proc:
        lines = []
        for line in proc.stdout:
            if line.strip() == "ready":
                seconds = time.perf_counter() - start
                break
            lines.append(line)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    shutil.rmtree(probe_dir, ignore_errors=True)
    if seconds is None:
        raise SystemExit("perfbench: setup probe failed:\n" + "".join(lines[-20:]))
    return seconds


def environment(np) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_stage(cli_main, stage: str, cfg_path: Path, run_dir: Path, tracer) -> tuple[float, str | None]:
    """Run one CLI stage in-process; returns its wall seconds and an error message or None."""
    span = tracer.span(f"stage.{stage}") if tracer is not None else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([stage, "--config", str(cfg_path), "--out", str(run_dir), "--threads", "1"])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - started
    if code == 0:
        return seconds, None
    return seconds, f"stage {stage} exited with {code}: {err.getvalue().strip()[-800:]}"


def run_pass(workload, cli_main, cfg_path: Path, run_dir: Path, tracer) -> tuple[dict, list[str]]:
    """Run the workload's stages once, in order."""
    seconds, errors = {}, []
    for stage in workload.stages:
        seconds[stage], error = run_stage(cli_main, stage, cfg_path, run_dir, tracer)
        if error:
            errors.append(error)
    return seconds, errors


def _final_loss(run_dir: Path) -> float:
    return json.loads((run_dir / "train_log.json").read_text())["records"][-1]["loss"]


def extract_outputs(run_dir: Path) -> dict:
    """The outputs recorded in reference.json: Recall@K per task and final train losses."""
    report = json.loads((run_dir / "report.json").read_text())
    out = {
        "final_loss": _final_loss(run_dir),
        "recall": {
            task: {setting: r["recall_at"] for setting, r in by_setting.items()}
            for task, by_setting in report["tasks"].items()
        },
    }
    if (run_dir / "ablation.json").exists():
        table = json.loads((run_dir / "ablation.json").read_text())
        out["ablation"] = {row["variant"]: {t: row[t] for t in table["tasks"]} for row in table["rows"]}
        out["ablation_final_loss"] = {
            sub.name: _final_loss(sub) for sub in sorted((run_dir / "ablation").iterdir())
        }
    return out


def _leaf_mismatches(got, ref, close, where="") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where or 'outputs'}: keys differ"]
        return [m for key in sorted(ref) for m in _leaf_mismatches(got[key], ref[key], close, f"{where}.{key}")]
    if isinstance(got, (int, float)) and close(got, ref):
        return []
    return [f"{where}: got {got!r}, reference {ref!r}"]


def compare_outputs(got: dict, ref: dict, n_queries: int) -> dict[str, list[str]]:
    """Per check name, the mismatches against the reference (empty when it passes)."""
    def within_one_query(a, b):
        return abs(a - b) <= 1.0 / n_queries + 1e-12

    def loss_close(a, b):
        return abs(a - b) <= LOSS_RTOL * abs(b)

    checks = {
        "reference.recall": _leaf_mismatches(got.get("recall"), ref["recall"], within_one_query),
        "reference.final_loss": _leaf_mismatches(got.get("final_loss"), ref["final_loss"], loss_close),
    }
    if "ablation" in ref:
        checks["reference.ablation_recall"] = _leaf_mismatches(
            got.get("ablation"), ref["ablation"], within_one_query
        )
        checks["reference.ablation_final_loss"] = _leaf_mismatches(
            got.get("ablation_final_loss"), ref["ablation_final_loss"], loss_close
        )
    return checks


def _artifact_bytes(run_dir: Path) -> dict[str, bytes]:
    return {
        name: (run_dir / name).read_bytes()
        for name in ("report.json", "ablation.json", "checkpoint.gclc")
        if (run_dir / name).exists()
    }


def check_outputs(workload, run_dir: Path, reference: dict | None, first_artifacts: dict | None):
    """Output checks of one run directory as {check name: failure messages}."""
    n_queries = workload.config["data"]["eval_pairs"] // 2
    try:
        got = extract_outputs(run_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        got = {}
        unreadable = [f"outputs unreadable: {exc!r}"]
    else:
        unreadable = []
    if reference is None:
        checks = {"reference": ["no reference outputs recorded for this workload and seed"]}
    else:
        checks = compare_outputs(got, reference, n_queries)
        if unreadable:
            checks = {name: unreadable for name in checks}
    if first_artifacts is not None:
        artifacts = _artifact_bytes(run_dir)
        checks["artifacts.identical"] = [
            f"{name} differs from the first pass"
            for name in sorted(set(first_artifacts) | set(artifacts))
            if first_artifacts.get(name) != artifacts.get(name)
        ]
    return checks


def load_reference(workload, bench_seed: int) -> dict | None:
    try:
        recorded = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None
    return recorded.get(workload.name, {}).get(str(bench_seed % REFERENCE_SEEDS))


def median_of(dicts: list[dict]) -> dict:
    keys = [k for k in dicts[0] if all(k in d for d in dicts)]
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def print_trace_tables(workload, analyses: list[dict], tracer) -> None:
    from tracer import LOSS_FUNCTIONS

    a = analyses[0]
    print(f"# traced pass ({a['run_id']}): self time by module per stage, seconds")
    header = ["stage", "wall", *MODULES, "(cli glue)"]
    print("# " + " ".join(f"{h[:11]:>11s}" for h in header))
    module_total = {m: 0.0 for m in MODULES}
    for stage, wall in a["stage_wall"].items():
        by_module = a["stage_module"][stage]
        for m in MODULES:
            module_total[m] += by_module.get(m, 0.0)
        cells = [f"{wall:11.4f}"] + [f"{by_module.get(m, 0.0):11.4f}" for m in [*MODULES, "(cli glue)"]]
        print(f"# {stage:>11s} " + " ".join(cells))
    wall = sum(a["stage_wall"].values())
    dominant = max(module_total, key=module_total.get)
    share = module_total[dominant] / wall if wall else 0.0
    verdict = "matches" if dominant == workload.dominant_module else "DOES NOT MATCH"
    print(
        f"# dominant module: {dominant} ({share:.1%} of stage wall time); "
        f"predicted {workload.dominant_module}: {verdict}"
    )
    for fn in LOSS_FUNCTIONS:
        durations = sorted(a["durations"].get(f"losses.{fn}", []))
        if not durations:
            continue
        line = (
            f"# losses.{fn}: {sum(durations):.4f} s in {len(durations)} calls, "
            f"p50 {statistics.median(durations) * 1e3:.3f} ms"
        )
        if len(durations) >= 100:
            line += f", p90 {statistics.quantiles(durations, n=10)[-1] * 1e3:.3f} ms"
        print(line)
    if "experiment.cmd_ablate" in a["self"]:
        print(f"# experiment.cmd_ablate.self_s: {a['self']['experiment.cmd_ablate']:.4f} s")
    if tracer.absent:
        print(f"# absent wrap targets (their metrics are left out): {tracer.absent}")
    if tracer.failed_counters:
        print(f"# counters that could not be read (left out): {sorted(tracer.failed_counters)}")


class Tally:
    """Operations attempted and failed, with the failures reported on stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, label: str, executions: int, errors: list[str], checks: dict[str, list[str]]) -> None:
        self.attempted += executions + len(checks)
        self.failed += len(errors) + sum(1 for problems in checks.values() if problems)
        for message in errors:
            print(f"perfbench: {label}: {message}", file=sys.stderr)
        for name, problems in checks.items():
            if problems:
                print(f"perfbench: {label}: check {name} failed: {problems[:3]}", file=sys.stderr)


def sample_stages(workload, args, cli_main, cfg_path: Path, run_root: Path, tally: Tally):
    """Run the pipeline once, then time batches of stage re-runs until ``--seconds``.

    The first pass fills the caches and sizes the batches; it is not a
    sample. Every stage is idempotent, so after it any stage can run again in
    the same run directory. A batch repeats one stage until it has run for at
    least BATCH_S and yields one sample, the batch time per execution, so a
    0.1 s stage is sampled over as long a window as a 1 s one. Every stage
    gets one batch first; after that the next batch goes to the stage with the
    least sampled time whose batch still fits, which spreads every stage's
    samples over the whole run. The SETUP_PROBES setup probes run between
    batches at even intervals, so they too see the whole run and not only its
    start. The outputs are checked after the first pass and again at the end,
    when they must also be byte-identical to the first pass.

    Returns the samples per stage and the setup probe times.
    """
    started = time.perf_counter()
    reference = load_reference(workload, args.seed)
    run_dir = run_root / "run"
    first, errors = run_pass(workload, cli_main, cfg_path, run_dir, None)
    tally.add("first pass", len(first), errors, check_outputs(workload, run_dir, reference, None))
    first_artifacts = _artifact_bytes(run_dir)
    print("# first pass: " + ", ".join(f"{s} {v:.4f}" for s, v in first.items()))
    samples = {stage: [] for stage in workload.stages}
    spent = {stage: 0.0 for stage in workload.stages}
    per_execution = dict(first)
    executions, errors = 0, []
    setup_samples: list[float] = []
    while not errors:
        elapsed = time.perf_counter() - started
        if len(setup_samples) < SETUP_PROBES and elapsed >= len(setup_samples) * args.seconds / SETUP_PROBES:
            setup_samples.append(setup_probe(args, len(setup_samples)))
            continue
        left = args.seconds - elapsed
        batch = {s: math.ceil(BATCH_S / per_execution[s]) for s in workload.stages}
        unsampled = [s for s in workload.stages if not samples[s]]
        fits = unsampled or [s for s in workload.stages if batch[s] * per_execution[s] < left]
        if not fits:
            break
        stage = min(fits, key=spent.get)
        batch_start = time.perf_counter()
        for _ in range(batch[stage]):
            _, error = run_stage(cli_main, stage, cfg_path, run_dir, None)
            executions += 1
            if error:
                errors.append(error)
                break
        batch_s = time.perf_counter() - batch_start
        samples[stage].append(batch_s / batch[stage])
        per_execution[stage] = statistics.median(samples[stage])
        spent[stage] += batch_s
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(args, len(setup_samples)))
    tally.add("resampling", executions, errors, check_outputs(workload, run_dir, reference, first_artifacts))
    # A stage is left unsampled only after a stage failed, and then the run counts as failed.
    return {stage: times or [first[stage]] for stage, times in samples.items()}, setup_samples


def trace_passes(workload, args, cli_main, cfg_path: Path, run_root: Path, tracer, tally: Tally) -> dict:
    """One warm-up pass, then untraced and traced passes in turn, each in a fresh run directory.

    The warm-up pass is not timed. Every pass is checked against the reference
    and must leave artifacts byte-identical to the warm-up pass.
    """
    started = time.perf_counter()
    reference = load_reference(workload, args.seed)
    runs = {"untraced_s": [], "traced_s": [], "analyses": []}
    first_artifacts = None
    pass_times: list[float] = []
    for index in itertools.count():
        traced = index > 0 and index % 2 == 0
        run_id = f"{workload.name}-seed{args.seed}-pass{index}"
        run_dir = run_root / f"pass{index}"
        pass_start = time.perf_counter()
        if traced:
            tracer.install(run_id)
        try:
            seconds, errors = run_pass(workload, cli_main, cfg_path, run_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(run_id, len(seconds), errors, check_outputs(workload, run_dir, reference, first_artifacts))
        if first_artifacts is None:
            first_artifacts = _artifact_bytes(run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        pass_times.append(time.perf_counter() - pass_start)
        kind = "traced" if traced else "untraced" if index else "warm-up"
        print(f"# pass {index} {kind}: "
              + ", ".join(f"{s} {v:.4f}" for s, v in seconds.items()))
        if traced:
            from tracer import analyse

            runs["traced_s"].append(sum(seconds.values()))
            runs["analyses"].append({"run_id": run_id, **analyse(tracer, run_id)})
        elif index > 0:
            runs["untraced_s"].append(sum(seconds.values()))
        if traced and time.perf_counter() - started + 2 * statistics.median(pass_times) > args.seconds:
            return runs


def end_to_end_metrics(workload, samples: dict, setup_samples: list[float], tally: Tally) -> dict:
    """Median of every stage's samples; total_s is the sum of the stage medians."""
    e2e = {f"{stage}_s": statistics.median(times) for stage, times in samples.items()}
    e2e["total_s"] = sum(e2e.values())
    e2e["train_pairs_per_s"] = workload.train_pairs_per_run / e2e["train_s"]
    # eval and verify compute the same rankings, so the throughput counts both.
    e2e["eval_queries_per_s"] = 2 * workload.eval_rankings / (e2e["eval_s"] + e2e["verify_s"])
    e2e["setup_s"] = statistics.median(setup_samples)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {"peak_rss_mb": "MiB", "train_pairs_per_s": "pairs/s", "eval_queries_per_s": "rankings/s"}
    metrics = {name: (value, units.get(name, "s")) for name, value in e2e.items()}
    print("# samples " + json.dumps({**samples, "setup": setup_samples}))
    shown = {**metrics, "error_rate": (tally.failed / tally.attempted, "ratio")}
    for name, (value, unit) in shown.items():
        print(f"# {name:20s} {value:14.6f} {unit}")
    # ablate_s exists on one workload only; every reported metric exists on all.
    metrics.pop("ablate_s", None)
    return metrics


def per_layer_metrics(workload, args, runs: dict, tracer, env: dict) -> dict:
    """Medians over the traced passes, plus the tracing overhead on the pass total."""
    from tracer import layer_metrics

    per_pass = [layer_metrics(a, tracer.failed_counters) for a in runs["analyses"]]
    values = median_of([{k: v for k, (v, _) in m.items()} for m in per_pass])
    metrics = {k: (values[k], per_pass[0][k][1]) for k in values}
    overhead = statistics.median(runs["traced_s"]) - statistics.median(runs["untraced_s"])
    metrics["trace.overhead_s"] = (overhead, "s")
    print_trace_tables(workload, runs["analyses"], tracer)
    spans_path = RUNS / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(spans_path, {"workload": workload.name, "seed": args.seed, "env": env})
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_threads()
    pin_allocator()

    if args.setup_probe:
        setup(workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    run_root = RUNS / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    cli_main, cfg_path = setup(workload, args.seed, run_root)
    tally = Tally()
    try:
        import numpy as np

        env = environment(np)
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            runs = trace_passes(workload, args, cli_main, cfg_path, run_root, tracer, tally)
            metrics = per_layer_metrics(workload, args, runs, tracer, env)
        else:
            samples, setup_samples = sample_stages(workload, args, cli_main, cfg_path, run_root, tally)
            metrics = end_to_end_metrics(workload, samples, setup_samples, tally)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
