"""The ``pred`` and ``qrp`` rewriting steps, each with its one ladder.

Section 7 makes a strategy a sequence over ``pred``, ``qrp`` and ``mg``.
The two constraint steps are fixpoints that may diverge (Theorem 3.1)
or be cut short by a resource budget; this module is the only place
that decides what happens then (``docs/robustness.md`` has the table):

* the exact fixpoint converged -- its program, no fallback;
* it diverged, or a non-deadline budget tripped under ``on_budget=
  "widen"`` -- ``pred`` takes the verified, non-trivial interval-hull
  widening of :mod:`repro.core.widening` (for P_fib: ``$1 >= 0 &
  $2 >= 1``, the bound magic needs to terminate) and otherwise keeps
  the exact run's sound result; ``qrp`` keeps its widen-to-*true*
  result, or is skipped when the budget left it none (*true* rewrites
  nothing, so skipping is the widening);
* deadline exhaustion and ``on_budget="raise"`` propagate.

``Constraint_rewrite`` and ``apply_sequence`` (hence every driver
strategy) run these, so a program's constraints do not depend on which
entry point asked for them.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.config import DEFAULT_REWRITE_ITERATIONS
from repro.constraints.cset import ConstraintSet
from repro.core.predconstraints import (
    InferenceReport,
    attach_constraints_to_bodies,
    gen_prop_predicate_constraints,
)
from repro.core.qrp import gen_prop_qrp_constraints
from repro.core.widening import gen_predicate_constraints_widened
from repro.errors import BudgetExceeded
from repro.lang.ast import Program
from repro.lang.normalize import normalize_program
from repro.obs.recorder import span as obs_span


class Step(NamedTuple):
    """What one rewriting step produced.

    ``fallbacks`` holds the machine-readable degradation tag
    (``"pred:widened"``, ``"qrp:widened"`` or ``"qrp:skipped"``) and
    ``notes`` the same said to a human; both are empty for an exact
    step.  ``primes`` maps each predicate ``qrp`` restricted to its
    primed copy (``p -> p'``).
    """

    program: Program
    constraints: dict[str, ConstraintSet]
    report: InferenceReport
    fallbacks: Sequence[str] = ()
    notes: Sequence[str] = ()
    unfoldable: Sequence[str] = ()
    primes: Mapping[str, str] = {}


def _absorbed(error: BudgetExceeded, on_budget: str, span) -> str:
    """The cause text of a budget trip the ladder absorbs, else re-raise."""
    if on_budget != "widen" or error.resource == "deadline":
        raise error
    span.set("budget_exhausted", error.resource)
    return f"budget exhausted ({error.resource})"


def pred_step(
    program: Program,
    edb_constraints: Mapping[str, ConstraintSet] | None = None,
    given: Mapping[str, ConstraintSet] | None = None,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    on_budget: str = "widen",
) -> Step:
    """``Gen_Prop_predicate_constraints`` with its degradation ladder.

    The widening never replaces constraints the caller asserted: with
    ``given`` (even an empty mapping) a run that did not converge keeps
    its own sound result.
    """
    with obs_span("rewrite.pred") as span:
        cause = "fixpoint diverged"
        try:
            propagated, constraints, report = (
                gen_prop_predicate_constraints(
                    program, edb_constraints, given, max_iterations,
                    on_divergence,
                )
            )
        except BudgetExceeded as error:
            cause = _absorbed(error, on_budget, span)
            propagated, constraints = program, {}
            report = InferenceReport(converged=False)
        span.set("iterations", report.iterations)
        span.set("converged", report.converged)
        if report.converged:
            return Step(propagated, constraints, report)
        if given is None:
            widened, widen_report = gen_predicate_constraints_widened(
                program, edb_constraints=edb_constraints
            )
            derived = program.derived_predicates()
            if widen_report.verified and any(
                not cset.is_true() and not cset.is_false()
                for pred, cset in widened.items()
                if pred in derived
            ):
                constraints = dict(widened)
                propagated = attach_constraints_to_bodies(
                    normalize_program(program), widened
                )
                report.widened_predicates |= (
                    widen_report.widened_predicates
                )
    names = ", ".join(sorted(report.widened_predicates))
    return Step(
        propagated, constraints, report, ("pred:widened",),
        (f"pred {cause}; widened" + (f": {names}" if names else ""),),
    )


def qrp_step(
    program: Program,
    query_preds: str | list[str],
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    on_budget: str = "widen",
) -> Step:
    """``Gen_Prop_QRP_constraints`` with its degradation ladder."""
    with obs_span("rewrite.qrp") as span:
        try:
            result = gen_prop_qrp_constraints(
                program, query_preds, max_iterations, on_divergence
            )
        except BudgetExceeded as error:
            cause = _absorbed(error, on_budget, span)
            return Step(
                program, {}, InferenceReport(converged=False),
                ("qrp:skipped",),
                (f"qrp {cause}; step skipped "
                 "(QRP constraints widened to true)",),
            )
        span.set("iterations", result.report.iterations)
        span.set("converged", result.report.converged)
    step = Step(
        result.program, result.constraints, result.report,
        unfoldable=result.unfoldable_occurrences, primes=result.primes,
    )
    if result.report.converged:
        return step
    return step._replace(
        fallbacks=("qrp:widened",),
        notes=("qrp fixpoint diverged; widened to true",),
    )


def carry(
    proved: Mapping[str, ConstraintSet], step: Step
) -> dict[str, ConstraintSet]:
    """``pred``'s proved constraints, named for the program ``step``
    (a ``qrp`` step) made: a primed copy ``p'`` computes a subset of
    ``p``'s facts, so it keeps ``p``'s predicate constraint."""
    carried = dict(proved)
    for pred, prime in step.primes.items():
        if pred in proved:
            carried[prime] = proved[pred]
    return carried
