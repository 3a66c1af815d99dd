"""Append one benchmark result to the committed perf trajectory.

``benchmarks/perf/out/`` is git-ignored and every suite run writes a new
file there, so without this the repository says nothing about how its
numbers moved from PR to PR.  This condenses one result file of
``python3 benchmarks/perf/run.py [--repeat K] -o FILE`` into a single
compact JSON line and appends it to ``BENCH_history.jsonl``::

    python3 benchmarks/bench_history.py benchmarks/perf/out/result-*.json
    python3 benchmarks/bench_history.py RESULT.json --change "PR 18"
    python3 benchmarks/bench_history.py --check

A line holds the measured commit, the seed and run length, and per
workload the median over the untraced passes of every end-to-end
metric, the failed-op count and the host factors that tell a noisy
host from a slow program: the median of the per-epoch slowdown
factors the runner printed and the mean one-minute load average.
``commit`` is the ``HEAD`` the result file names.  With ``--change``
the line measures uncommitted work on top of that commit, so there
``commit`` names the *parent* of the change, not the change itself: a
PR records its own line before it has a hash, and the ``change`` label
is what tells its line from the parent's.

``--check`` (what the CI ``ruler`` job runs) verifies that every line
parses and that the last one names a commit.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HISTORY = Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
_COMMIT = re.compile(r"[0-9a-f]{40}")
_SLOWDOWN = re.compile(r"host slowdown per epoch ((?:[\d.]+ ?)+)")


def condense(result: dict, change: str | None = None) -> dict:
    """The history line for one ``repro-perf/v1`` result document."""
    if result.get("schema") != "repro-perf/v1":
        raise ValueError(f"not a perf result: {result.get('schema')!r}")
    passes: dict[str, list[dict]] = {}
    for run in result["runs"]:
        if not run["trace"]:
            passes.setdefault(run["workload"], []).append(run)
    workloads = {}
    for name, runs in passes.items():
        row = {
            metric: round(statistics.median(
                run["metrics"][metric]["value"] for run in runs
            ), 4)
            for metric in runs[0]["metrics"]
        }
        row["failed"] = sum(run["failed"] for run in runs)
        factors = [
            float(factor)
            for run in runs
            for factor in _SLOWDOWN.search(run["summary"])[1].split()
        ]
        row["host_slowdown"] = round(statistics.median(factors), 3)
        row["loadavg_1m"] = round(
            statistics.fmean(run["loadavg_1m"] for run in runs), 2
        )
        workloads[name] = row
    line = {
        "commit": result["commit"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "passes": max(map(len, passes.values())),
        "python": result["python"],
        "nproc": result["nproc"],
        "host_spin_ms": round(result["host_spin_ms"], 4),
        "workloads": workloads,
    }
    if change:
        line["change"] = change
    if result.get("smoke"):
        line["smoke"] = True
    return line


def check(path: Path) -> str:
    """Validate the history file; returns the last line's commit."""
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    for number, text in enumerate(lines, start=1):
        try:
            line = json.loads(text)
        except ValueError as error:
            raise ValueError(f"{path}:{number}: {error}") from None
        if not isinstance(line.get("workloads"), dict):
            raise ValueError(f"{path}:{number}: no workloads")
    commit = line.get("commit", "")
    if not _COMMIT.fullmatch(commit):
        raise ValueError(f"{path}: last line names no commit: {commit!r}")
    return commit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", nargs="?", help="a run.py result file")
    parser.add_argument("--history", type=Path, default=HISTORY)
    parser.add_argument(
        "--change", help="label for uncommitted work measured on commit"
    )
    parser.add_argument("--check", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.check == bool(arguments.result):
        parser.error("give a result file to append, or --check")
    try:
        if arguments.check:
            commit = check(arguments.history)
            print(f"{arguments.history.name}: ok, last line {commit[:7]}")
            return 0
        with open(arguments.result) as handle:
            line = condense(json.load(handle), arguments.change)
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_history: {error}", file=sys.stderr)
        return 1
    with arguments.history.open("a") as handle:
        handle.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(f"{arguments.history.name}: appended {line['commit'][:7]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
