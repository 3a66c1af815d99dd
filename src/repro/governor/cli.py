"""The resource-governor flags shared by ``repro`` and ``repro serve``."""

from __future__ import annotations

import argparse

from repro.driver import ON_LIMIT_POLICIES
from repro.governor.budget import Budget


def add_governor_arguments(
    parser: argparse.ArgumentParser, scope: str
) -> None:
    """Add the ``resource governor`` group; budgets apply per ``scope``."""
    governor = parser.add_argument_group(
        "resource governor",
        f"budgets for {scope}; when one trips, --on-limit picks the "
        "degradation policy (docs/robustness.md)",
    )
    governor.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help=f"wall-clock budget for {scope}",
    )
    governor.add_argument(
        "--max-facts",
        type=int,
        metavar="N",
        help="cap on facts stored during evaluation",
    )
    governor.add_argument(
        "--max-solver-calls",
        type=int,
        metavar="N",
        help="cap on constraint-solver calls (variable eliminations)",
    )
    governor.add_argument(
        "--max-rewrite-iterations",
        type=int,
        metavar="N",
        help="budget on constraint-inference fixpoint iterations "
        "(across all rewriting phases; distinct from "
        "--max-iterations, the per-fixpoint divergence cap)",
    )
    governor.add_argument(
        "--on-limit",
        choices=ON_LIMIT_POLICIES,
        default="truncate",
        help="what to do when a budget trips: fail (exit 3), truncate "
        "(keep sound partial results, exit 1), or widen (fall back "
        "to interval-hull widening where possible) "
        "(default: %(default)s)",
    )
    governor.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject faults at observability sites, e.g. "
        "'delay:evaluate:0.01;fail:rewrite.qrp;write:wal' "
        "(testing/CI harness; sites are listed in docs/robustness.md "
        "and docs/serving.md)",
    )


def build_budget(arguments: argparse.Namespace) -> Budget | None:
    """A Budget from the governor flags, or None when none is set."""
    budget = Budget(
        deadline=arguments.deadline,
        max_facts=arguments.max_facts,
        max_solver_calls=arguments.max_solver_calls,
        max_rewrite_iterations=arguments.max_rewrite_iterations,
    )
    return None if budget.is_unlimited() else budget
