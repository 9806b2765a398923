#!/usr/bin/env python3
"""Compare two benchmark result files written by `run.py --workload all`.

    python3 bench/compare.py bench/results/parent.json bench/results/change.json

For each workload and metric it prints each side's median and quartiles
over its runs.  Each end-to-end metric also gets a verdict against its
bound in BENCHMARK.json: "worse" when the second side's median is worse
than the first's by more than the bound, "better" when it is better by
more than the first side's own spread, "same" otherwise, and
"unresolved" when either side's spread is wider than the bound, unless
every run of one side beats every run of the other.  Exits 1 when any
end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)
    if max(spread(a), spread(b)) > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better (every run)"
        if all(sign * y < sign * x for x in a for y in b):
            return "worse (every run)"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(a):
        return "better"
    return "same"


def load_runs(path: Path) -> dict[str, list[dict]]:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=Path, help="result file of the base side")
    ap.add_argument("second", type=Path, help="result file of the changed side")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    first, second = load_runs(args.first), load_runs(args.second)
    worse = False
    for workload in [w for w in first if w in second]:
        a_runs, b_runs = first[workload], second[workload]
        print(f"== {workload}: {len(a_runs)} vs {len(b_runs)} runs")
        for side, runs in (("first", a_runs), ("second", b_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"   {side}: failed {failed}/{attempted}, correct {correct}")
        names = [n for n in a_runs[0]["metrics"] if n in b_runs[0]["metrics"]]
        print(f"   {'metric':38s} {'first q1/median/q3':>32s}   {'second q1/median/q3':>32s}  verdict")
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            unit = a_runs[0]["metrics"][name]["unit"]
            qa, qb = quartiles(a), quartiles(b)
            line = (f"   {name:38s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g}   "
                    f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g}  {unit:5s}")
            if name in e2e:
                v = verdict(a, b, e2e[name]["better"], e2e[name]["bound"])
                worse = worse or v.startswith("worse")
                line += f" {v} (bound {e2e[name]['bound']:.0%})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
