"""Procedure ``Constraint_rewrite`` (Section 4.5, Appendix C).

The combined rewriting: wrap the query predicate in a fresh predicate
``q1`` (so that query-side constraints and constants participate), run
``Gen_Prop_predicate_constraints`` to make definition-derived
constraints explicit in every body, run ``Gen_Prop_QRP_constraints`` to
push use-derived constraints into definitions, and delete the wrapper.
When both fixpoints converge, the propagated constraints are the
*minimum* QRP constraints (Theorem 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_REWRITE_ITERATIONS
from repro.constraints.cset import ConstraintSet
from repro.core.predconstraints import InferenceReport
from repro.core.steps import carry, pred_step, qrp_step
from repro.lang.ast import Literal, Program, Query, Rule
from repro.lang.normalize import normalize_program, normalize_query
from repro.lang.terms import FreshVars


WRAPPER_PRED = "q1"


@dataclass
class RewriteResult:
    """Everything ``Constraint_rewrite`` produced."""

    program: Program
    predicate_constraints: dict[str, ConstraintSet]
    qrp_constraints: dict[str, ConstraintSet]
    predicate_report: InferenceReport
    qrp_report: InferenceReport
    #: The degradation steps taken (``"pred:widened"``, ``"qrp:skipped"``,
    #: ``"qrp:widened"``) and what each says to a human.
    fallbacks: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: ``predicate_constraints`` under the output's names: a primed
    #: copy keeps its predicate's (``repro.core.prune``).
    proved: dict[str, ConstraintSet] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Did both constraint fixpoints converge?"""
        return (
            self.predicate_report.converged and self.qrp_report.converged
        )


def _fresh_name(program: Program, name: str) -> str:
    """``name``, underscored until no predicate of the program has it."""
    taken = program.predicates()
    while name in taken:
        name += "_"
    return name


def wrap_query_predicate(
    program: Program, query_pred: str, wrapper: str = WRAPPER_PRED
) -> Program:
    """Add ``q1(X̄) :- q(X̄)`` with ``q1`` fresh (Section 4.5 step one)."""
    fresh = FreshVars(frozenset(), prefix="Q")
    args = tuple(
        fresh.next("Q") for _ in range(program.arity(query_pred))
    )
    rule = Rule(
        Literal(_fresh_name(program, wrapper), args),
        (Literal(query_pred, args),),
        label="r0",
    )
    return program.with_rules([rule])


def constraint_rewrite(
    program: Program,
    query_pred: str,
    query: Query | None = None,
    edb_constraints: Mapping[str, ConstraintSet] | None = None,
    given_predicate_constraints: Mapping[str, ConstraintSet] | None = None,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    on_budget: str = "widen",
) -> RewriteResult:
    """Procedure ``Constraint_rewrite`` (Appendix C).

    With a concrete ``query``, its constraints and constants are folded
    into the wrapper rule, specializing the rewriting to the query (the
    run-time counterpart; without it the rewriting is query-independent
    as in the paper's main development).

    Both phases are :mod:`repro.core.steps`' and degrade by its ladder;
    ``fallbacks`` says which rungs were taken.  ``on_budget`` governs
    resource-budget exhaustion mid-fixpoint: ``"widen"`` (default)
    degrades like divergence -- the pred phase falls back to
    interval-hull widening and an exhausted qrp phase is skipped --
    while ``"raise"`` propagates the
    :class:`~repro.errors.BudgetExceeded`.  Deadline exhaustion always
    propagates (there is no time left to degrade gracefully in).
    """
    program = normalize_program(program)
    if query is None:
        wrapped = wrap_query_predicate(program, query_pred)
    else:
        query = normalize_query(query)
        if query.literal.pred != query_pred:
            raise ValueError(
                f"query is about {query.literal.pred}, not {query_pred}"
            )
        wrapped = program.with_rules([Rule(
            Literal(
                _fresh_name(program, WRAPPER_PRED), query.literal.args
            ),
            (query.literal,),
            query.constraint,
            label="r0",
        )])
    wrapper = wrapped.rules[-1].head.pred
    pred = pred_step(
        wrapped, edb_constraints, given_predicate_constraints,
        max_iterations, on_divergence, on_budget,
    )
    qrp = qrp_step(
        pred.program, wrapper, max_iterations, on_divergence, on_budget
    )
    # Delete the wrapper rules; the query predicate is the entry again.
    final = Program(
        rule
        for rule in qrp.program
        if rule.head.pred != wrapper
    ).restrict_to_reachable([query_pred]).relabeled()
    return RewriteResult(
        program=final,
        predicate_constraints=pred.constraints,
        qrp_constraints={
            name: cset
            for name, cset in qrp.constraints.items()
            if name != wrapper
        },
        predicate_report=pred.report,
        qrp_report=qrp.report,
        fallbacks=[*pred.fallbacks, *qrp.fallbacks],
        notes=[*pred.notes, *qrp.notes],
        proved=carry(pred.constraints, qrp),
    )
