"""Compare two sets of benchmark results, or check one set for steadiness.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py runs.jsonl

Inputs are files written by ``sweep.py``. For each workload and end-to-end
metric of BENCHMARK.json the report gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile distance
as a share of the median.

With two sets, the verdict for the change follows the rules for claiming a
gain and for no regression:

- better: the change wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than the parent's
  quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: either side's spread is wider than the bound, unless every run
  of the change reads better than every run of the parent;
- within bound: otherwise.

With one set, each spread is marked steady when it is below a third of the
bound. The exit code is 1 when a run failed, a verdict is worse, or (one
set) a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[dict, int]:
    """workload -> metric -> {seed: value}, and the number of failed runs."""
    table: dict = defaultdict(lambda: defaultdict(dict))
    failed = 0
    for line in path.read_text().splitlines():
        record = json.loads(line)
        result = record["result"]
        if record["exit"] != 0 or result is None or not result["correct"] or result["failed"]:
            failed += 1
            continue
        for name, metric in result["metrics"].items():
            table[record["workload"]][name][record["seed"]] = metric["value"]
    return table, failed


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3, b_spread = summary(list(base.values()))
    c_med, _, _, c_spread = summary(list(change.values()))
    common = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in common] or list(zip(base.values(), change.values()))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    gain = sign * (c_med - b_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > (b_q3 - b_q1):
        return "better"
    if -gain / abs(b_med) > bound:
        return "worse"
    all_better = all(sign * (c - b) > 0 for b in base.values() for c in change.values())
    if max(b_spread, c_spread) > bound and not all_better:
        return "unresolved"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, base_failed = load(args.base)
    change, change_failed = load(args.change) if args.change else ({}, 0)
    bad = base_failed + change_failed
    if bad:
        print(f"failed or incorrect runs: base {base_failed}, change {change_failed}")
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = base.get(workload, {}).get(name, {})
            if not a:
                print(f"  {name:20s} no values")
                bad += 1
                continue
            med, q1, q3, spread = summary(list(a.values()))
            line = f"  {name:20s} n={len(a):2d} {med:12.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%}"
            if args.change:
                c = change.get(workload, {}).get(name, {})
                if not c:
                    print(line + "   change: no values")
                    bad += 1
                    continue
                c_med, c_q1, c_q3, c_spread = summary(list(c.values()))
                v = verdict(a, c, m["better"], bound)
                bad += v == "worse"
                line += (f" | n={len(c):2d} {c_med:12.5g} [{c_q1:.5g}, {c_q3:.5g}] spread {c_spread:6.1%}"
                         f" | {(c_med - med) / med:+7.2%} bound {bound:.0%}: {v}")
            else:
                state = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                bad += state == "TOO WIDE"
                line += f" bound {bound:.0%}: {state}"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
