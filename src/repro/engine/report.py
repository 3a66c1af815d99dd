"""Paper-style rendering of evaluation results.

``render_derivation_table`` prints an :class:`EvaluationResult`'s
iteration log in the format of the paper's Tables 1 and 2 (discarded
facts marked, matching the boldface convention), and
``render_comparison`` prints side-by-side statistics of several
evaluations -- the building blocks the benchmark harness and the
examples use for human-readable output.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.fixpoint import EvaluationResult
from repro.engine.relation import InsertOutcome


def render_derivation_table(
    result: EvaluationResult,
    title: str = "Derivations in a bottom-up evaluation",
    mark_discarded: str = "*",
) -> str:
    """The paper's Table 1/2 format.

    Discarded (duplicate or subsumed) derivations are suffixed with
    ``mark_discarded`` -- the paper prints them in boldface.  The result
    must come from a run with ``provenance=True`` (``ValueError``
    otherwise).
    """
    logs = result.derivation_logs("render_derivation_table")
    width = len("Iteration")
    lines = [title, "", f"{'Iteration':<{width}}  Derivations made"]
    for log in logs:
        rendered = []
        for derivation in log.derivations:
            label = derivation.rule_label or "?"
            entry = f"{label}:{derivation.fact}"
            if derivation.outcome is not InsertOutcome.NEW:
                entry += mark_discarded
            rendered.append(entry)
        body = "{" + ", ".join(rendered) + "}"
        lines.append(f"{log.number:<{width}}  {body}")
    if not result.reached_fixpoint:
        lines.append(
            f"{'...':<{width}}  (iteration cap reached; "
            "the evaluation does not terminate)"
        )
    else:
        lines.append(
            f"{'':<{width}}  (fixpoint after iteration "
            f"{result.iterations[-1].number})"
        )
    if mark_discarded:
        lines.append("")
        lines.append(
            f"  {mark_discarded} = subsumed/duplicate, discarded "
            "(the paper's boldface)"
        )
    return "\n".join(lines)


def render_comparison(
    results: Mapping[str, EvaluationResult],
    predicates: list[str] | None = None,
) -> str:
    """Side-by-side fact/derivation statistics of several evaluations."""
    names = list(results)
    headers = ["", *names]
    rows: list[list[str]] = []
    rows.append(
        ["total facts", *[str(results[n].count()) for n in names]]
    )
    rows.append(
        [
            "derivations",
            *[str(results[n].stats.derivations) for n in names],
        ]
    )
    rows.append(
        [
            "iterations",
            *[str(results[n].stats.iterations) for n in names],
        ]
    )
    rows.append(
        [
            "fixpoint",
            *[
                "yes" if results[n].reached_fixpoint else "NO"
                for n in names
            ],
        ]
    )
    for pred in predicates or []:
        rows.append(
            [
                f"{pred} facts",
                *[str(results[n].count(pred)) for n in names],
            ]
        )
    widths = [
        max(len(row[col]) for row in [headers, *rows])
        for col in range(len(headers))
    ]
    lines = []
    for row in [headers, *rows]:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)
