#!/usr/bin/env python3
"""Compare two directories of ``run.py`` result files.

    python3 benchmarks/e2e/compare.py OUT_A OUT_B

Each directory holds the ``<workload>.seed<N>.trace0.json`` files of one
set of runs (A is the baseline, B the candidate).  For every end-to-end
metric the table has one row per workload with each side's median and
quartiles and a verdict:

- ``unresolved``    either side's quartile spread (Q3 - Q1, as a share
                    of its median) is wider than the metric's bound, so
                    the runs cannot tell a change from noise;
- ``regression``    B's median is worse than A's by more than the bound;
- ``within-bound``  otherwise.

Exits 1 if any row is a regression or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Result records of the untraced runs in ``directory``, by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[record["workload"]].append(record)
    return runs


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3); the quartiles collapse to the median for a
    single value."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summarize(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / abs(base) if better == "lower" else (base - new) / abs(base)
    return "regression" if worse_by > bound else "within-bound"


def compare(runs_a: dict, runs_b: dict, spec: dict) -> tuple[list[str], bool]:
    lines: list[str] = []
    clean = True
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in runs_a and w["name"] in runs_b]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lines.append(f"\n{name} ({metric['unit']}, {metric['better']} is better, "
                     f"bound {bound:.0%})")
        lines.append(f"  {'workload':<26}{'A median [Q1, Q3]':<36}"
                     f"{'B median [Q1, Q3]':<36}{'B vs A':>8}  verdict")
        for workload in workloads:
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*summarize(v)) for v in (a, b)]
            change = statistics.median(b) / statistics.median(a) - 1.0
            outcome = verdict(a, b, metric["better"], bound)
            clean &= outcome == "within-bound"
            lines.append(f"  {workload:<26}{cells[0]:<36}{cells[1]:<36}"
                         f"{change:>+8.1%}  {outcome}")
    lines.append("\nmachine speed during the passes (1.0 = reference state; times are "
                 "already scaled by it, so this only says how alike the two boxes were)")
    for workload in workloads:
        a, b = (statistics.median(c for r in runs[workload]
                                  for c in r["machine_speed"])
                for runs in (runs_a, runs_b))
        lines.append(f"  {workload:<26}A {a:.3f}  B {b:.3f}  {b / a - 1.0:+.1%}")
        lines.append(f"  {'':<26}runs: A {len(runs_a[workload])}, "
                     f"B {len(runs_b[workload])}; failed ops: "
                     f"A {sum(r['failed'] for r in runs_a[workload])}, "
                     f"B {sum(r['failed'] for r in runs_b[workload])}")
    return lines, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="directory of set A")
    parser.add_argument("candidate", type=Path, help="directory of set B")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs_a, runs_b = load_runs(args.baseline), load_runs(args.candidate)
    if not runs_a or not runs_b:
        parser.error("both directories need *.trace0.json result files")
    lines, clean = compare(runs_a, runs_b, spec)
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
