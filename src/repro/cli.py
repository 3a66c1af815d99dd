"""The session flags ``repro`` and ``repro serve`` share, declared once."""

from __future__ import annotations

import argparse

from repro.config import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.driver import ON_LIMIT_POLICIES, STRATEGY_CHOICES
from repro.governor.budget import Budget


def positive_int(text: str) -> int:
    """Argparse type for flags that must be a positive integer.

    Rejecting at parse time turns ``--workers 0`` into a clean usage
    error (exit 2 with the offending flag named) instead of a
    ``ValueError`` surfacing from deep inside the run.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def add_session_arguments(
    parser: argparse.ArgumentParser, scope: str
) -> None:
    """Add the session flags and the ``resource governor`` group;
    budgets apply per ``scope``."""
    session = parser.add_argument_group(
        "session",
        "how each query is compiled and evaluated (docs/service.md)",
    )
    session.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="rewrite",
        help="transformation pipeline to apply (default: rewrite = "
        "the paper's Constraint_rewrite; auto = pick by the "
        "program's shape, once per query form)",
    )
    session.add_argument(
        "--max-iterations",
        type=positive_int,
        default=DEFAULT_REWRITE_ITERATIONS,
        metavar="N",
        help="cap for the constraint-inference fixpoints "
        "(default %(default)s)",
    )
    session.add_argument(
        "--eval-iterations",
        type=positive_int,
        default=DEFAULT_EVAL_ITERATIONS,
        metavar="N",
        help="cap for the bottom-up evaluation (default %(default)s)",
    )
    session.add_argument(
        "--cache-size",
        type=positive_int,
        default=DEFAULT_CACHE_SIZE,
        metavar="N",
        help="capacity of the query-form LRU cache of a long-lived "
        "session (--batch, serve; default %(default)s)",
    )
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


def session_options(arguments: argparse.Namespace) -> dict:
    """The keyword arguments ``run_text``, ``Engine.from_text`` and
    ``ShardedEngine.from_text`` all take, from the shared flags
    (``--cache-size`` is the two long-lived engines' alone)."""
    budget = Budget(
        deadline=arguments.deadline,
        max_facts=arguments.max_facts,
        max_solver_calls=arguments.max_solver_calls,
        max_rewrite_iterations=arguments.max_rewrite_iterations,
    )
    return dict(
        strategy=arguments.strategy,
        max_iterations=arguments.max_iterations,
        eval_iterations=arguments.eval_iterations,
        budget=None if budget.is_unlimited() else budget,
        on_limit=arguments.on_limit,
    )
