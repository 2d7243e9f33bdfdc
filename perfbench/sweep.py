"""Run the benchmark over several seeds and workloads and collect the results.

    python3 perfbench/sweep.py --out .perfbench-runs/base.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out trace.jsonl --seeds 3 --workloads data-io --trace 1

Seeds form the outer loop and workloads the inner one, so slow drift of the
machine spreads over every workload alike. Each run is a fresh process of
``run.py`` with the ``run_seconds`` of BENCHMARK.json; one JSON line per run
(workload, seed, trace, exit code, environment, timing samples, result) is
appended to ``--out``. Compare two such files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            text = {tag: json.loads(l[len(tag):]) for l in lines for tag in ("# env ", "# samples ") if l.startswith(tag)}
            record = {"workload": workload, "seed": seed, "trace": args.trace, "exit": proc.returncode,
                      "wall_s": wall, "env": text.get("# env "), "samples": text.get("# samples "), "result": result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            ok = proc.returncode == 0 and result is not None and result["correct"]
            failures += not ok
            print(f"{workload} seed {seed}: exit {proc.returncode}, {wall:.1f} s, "
                  f"{'correct' if ok else 'FAILED'}", flush=True)
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
