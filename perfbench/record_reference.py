"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py

Runs each workload's stages (except verify) once per config seed
0..REFERENCE_SEEDS-1 and writes Recall@K per task and the final train losses
to ``perfbench/reference.json``, replacing what is there. Record from a
commit whose outputs are trusted; a later change that moves a recall by more
than one query or a final loss by more than 1e-9 relative fails the
benchmark's output checks.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    run.pin_threads()
    recorded = {}
    for name, workload in WORKLOADS.items():
        without_verify = dataclasses.replace(
            workload, stages=tuple(s for s in workload.stages if s != "verify")
        )
        by_seed = recorded[name] = {}
        for seed in range(REFERENCE_SEEDS):
            run_root = run.RUNS / f"reference-{name}-{seed}"
            cli_main, cfg_path = run.setup(workload, seed, run_root)
            seconds, errors = run.run_pass(without_verify, cli_main, cfg_path, run_root / "out", None)
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            by_seed[str(seed)] = run.extract_outputs(run_root / "out")
            shutil.rmtree(run_root)
            print(f"{name} seed {seed}: {sum(seconds.values()):.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
