"""``run.py compare A.json B.json``: did B regress against A?

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio *with its base*, and a verdict by the bounds of
``BENCHMARK.json``:

``regressed``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    the run-to-run spread of either side (distance between its
    quartiles over its median) is wider than the bound, or a side has
    a single run, so the files cannot tell -- unless every run of B
    beats every run of A.
``improved``
    B's median is better by more than A's own spread and B wins at
    least nine tenths of the index-paired runs.
``unchanged``
    none of the above.

Per-layer metrics of traced runs are listed without a verdict: they
have no bound.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def values_by_row(path: str, traced: int) -> dict[tuple, list[float]]:
    with open(path) as handle:
        document = json.load(handle)
    rows: dict[tuple, list[float]] = {}
    for run in document["runs"]:
        if run["trace"] != traced:
            continue
        for name, metric in run["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(
                metric["value"]
            )
    return rows


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    low, __, high = statistics.quantiles(values, n=4)
    return low, median, high


def spread(values: list[float]) -> float:
    low, median, high = quartiles(values)
    return (high - low) / median if median else 0.0


def verdict(
    before: list[float], after: list[float], better: str, bound: float
) -> str:
    sign = 1 if better == "lower" else -1
    base = statistics.median(before)
    worse = sign * (statistics.median(after) - base) / base
    if min(len(before), len(after)) < 2:
        # One run a side says nothing about spread.
        return "regressed" if worse > bound else "unresolved"
    if max(spread(before), spread(after)) > bound:
        clean_win = all(
            sign * (new - old) < 0 for new in after for old in before
        )
        return "improved" if clean_win else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(before, after))
    wins = sum(sign * (new - old) < 0 for old, new in pairs)
    if -worse > spread(before) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    regressed = 0
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        before = values_by_row(argv[0], traced)
        after = values_by_row(argv[1], traced)
        for entry in declared[section]:
            for workload in (w["name"] for w in declared["workloads"]):
                row = (workload, entry["name"])
                if row not in before or row not in after:
                    continue
                old, new = before[row], after[row]
                a_low, a_mid, a_high = quartiles(old)
                b_low, b_mid, b_high = quartiles(new)
                if "bound" in entry:
                    outcome = verdict(
                        old, new, entry["better"], entry["bound"]
                    )
                    regressed += outcome == "regressed"
                elif a_mid == b_mid == 0:
                    continue  # a layer neither side entered
                else:
                    outcome = "-"
                ratio = b_mid / a_mid if a_mid else float("nan")
                print(
                    f"{workload:14s} {entry['name']:30s} "
                    f"A {a_mid:.4g} [{a_low:.4g}, {a_high:.4g}] "
                    f"n={len(old)}  "
                    f"B {b_mid:.4g} [{b_low:.4g}, {b_high:.4g}] "
                    f"n={len(new)}  "
                    f"B/A {ratio:.3f} of {a_mid:.4g} {entry['unit']}  "
                    f"{outcome}"
                )
    return 1 if regressed else 0
