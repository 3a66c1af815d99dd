"""Transformation sequences combining constraint propagation and magic.

Section 7 studies programs ``P^{S}`` for sequences ``S`` over the three
rewritings

* ``pred`` -- ``Gen_Prop_predicate_constraints``,
* ``qrp``  -- ``Gen_Prop_QRP_constraints``,
* ``mg``   -- constraint magic rewriting (applied exactly once),

on a bf-adorned program.  This module applies such sequences and
evaluates the results, which is what the Appendix D examples and the
Theorem 7.10 optimality benchmark exercise:

* ``qrp`` and ``mg`` are not confluent (Examples 7.1/7.2, D.1/D.2);
* repeated ``pred``/``qrp`` are redundant (Theorems 7.4-7.6);
* ``(pred, qrp, mg)`` computes a subset of the facts of every other
  sequence with one ``mg``, for all EDBs and queries (Theorem 7.10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.config import (
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.core.steps import pred_step, qrp_step
from repro.engine.database import Database
from repro.engine.fixpoint import EvaluationResult, evaluate
from repro.engine.query import answers_as
from repro.errors import UsageError
from repro.governor import budget as governor
from repro.lang.ast import Program, Query
from repro.magic.adorn import AdornedProgram, adorn_program
from repro.magic.templates import MagicResult, constraint_magic
from repro.obs.recorder import span as obs_span


VALID_STEPS = ("pred", "qrp", "mg")

#: The named strategies and the sequence each one stands for -- the
#: subsequences of the Theorem 7.10 optimal ordering.  The driver's
#: ``STRATEGIES`` and the planner's picks both derive from this.
STRATEGY_SEQUENCES: dict[str, tuple[str, ...]] = {
    "none": (),
    "pred": ("pred",),
    "qrp": ("qrp",),
    "rewrite": ("pred", "qrp"),
    "magic": ("mg",),
    "optimal": ("pred", "qrp", "mg"),
}


@dataclass
class PipelineResult:
    """A program produced by a transformation sequence."""

    program: Program
    query_pred: str
    sequence: tuple[str, ...]
    adorned: AdornedProgram | None = None
    notes: list[str] = field(default_factory=list)
    #: The degradation tags of the steps that fell back
    #: (``"pred:widened"``, ``"qrp:skipped"``, ``"qrp:widened"``).
    fallbacks: list[str] = field(default_factory=list)
    #: The magic-seed predicate when the sequence applied ``mg``; the
    #: seed rule itself keeps its ``"seed"`` label through relabeling,
    #: so query-generic callers (the service's form cache) can strip it
    #: and rebuild it per call.
    seed_pred: str | None = None

    def name(self) -> str:
        """Display name of the sequence (paper notation)."""
        return "P^{" + ",".join(self.sequence) + "}"


def apply_sequence(
    program: Program,
    query: Query,
    sequence: Sequence[str],
    adorn: bool = True,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    include_constraints: bool = True,
    on_budget: str = "widen",
) -> PipelineResult:
    """Apply a sequence of rewritings to a (bf-adorned) program.

    ``mg`` may appear at most once (as in Theorem 7.10's class).  With
    ``adorn`` (default) the program is bf-adorned for the query before
    any step, as Section 7.5 prescribes.

    The ``pred`` and ``qrp`` steps are :mod:`repro.core.steps`' and
    degrade by its ladder: a diverging ``pred`` -- and, under
    ``on_budget="widen"`` (default), a budget-exhausted one -- falls
    back to interval-hull widening (keeping e.g. the fib ``$2 >= 1``
    bound that magic needs to terminate), an exhausted ``qrp`` is
    skipped; each fallback is recorded in ``fallbacks`` and ``notes``.
    ``on_budget="raise"`` propagates the
    :class:`~repro.errors.BudgetExceeded`, as deadline exhaustion
    always does.
    """
    sequence = tuple(sequence)
    for step in sequence:
        if step not in VALID_STEPS:
            raise UsageError(f"unknown transformation step {step!r}")
    if sequence.count("mg") > 1:
        raise UsageError("mg may be applied at most once")
    adorned: AdornedProgram | None = None
    if adorn:
        with obs_span("adorn"):
            adorned = adorn_program(program, query)
        current = adorned.program
        query_pred = adorned.query_pred
    else:
        current = program
        query_pred = query.literal.pred
    notes: list[str] = []
    fallbacks: list[str] = []
    seed_rule = None
    for step in sequence:
        governor.checkpoint(f"pipeline.{step}")
        if step == "mg":
            if adorned is None:
                raise UsageError(
                    "mg requires an adorned program (adorn=True)"
                )
            with obs_span("magic"):
                magic: MagicResult = constraint_magic(
                    AdornedProgram(
                        program=current,
                        query_pred=adorned.query_pred,
                        original_query_pred=adorned.original_query_pred,
                        adornments=adorned.adornments,
                        origin=adorned.origin,
                    ),
                    query,
                    include_constraints=include_constraints,
                )
            current = magic.program
            seed_rule = next(
                rule for rule in current if rule.label == "seed"
            )
            continue
        if seed_rule is not None:
            # Appendix B creates the magic seed as a runtime *fact*; the
            # rewriting sequence is query-generic, so post-magic steps
            # must not specialize the seed (they would otherwise fold
            # query-constant information into it, which is exactly what
            # makes Theorem 7.10's optimality claim hold only for
            # seed-as-fact semantics).
            current = Program(
                rule for rule in current if rule != seed_rule
            )
        if step == "pred":
            done = pred_step(
                current, max_iterations=max_iterations,
                on_budget=on_budget,
            )
        else:
            done = qrp_step(
                current, query_pred, max_iterations,
                on_budget=on_budget,
            )
        current = done.program
        fallbacks.extend(done.fallbacks)
        notes.extend(done.notes)
        if done.unfoldable:
            notes.append(f"unfoldable: {done.unfoldable}")
        if seed_rule is not None:
            current = current.with_rules([seed_rule])
    if seed_rule is not None:
        # Relabel everything except the seed fact: its "seed" label is
        # the marker query-generic callers (the service's form cache)
        # use to strip and rebuild it per call.
        current = Program(
            rule for rule in current if rule != seed_rule
        ).relabeled().with_rules([seed_rule])
    else:
        current = current.relabeled()
    return PipelineResult(
        program=current,
        query_pred=query_pred,
        sequence=sequence,
        adorned=adorned,
        notes=notes,
        fallbacks=fallbacks,
        seed_pred=seed_rule.head.pred if seed_rule is not None else None,
    )


@dataclass
class PipelineEvaluation:
    """A pipeline result evaluated over a concrete EDB."""

    pipeline: PipelineResult
    result: EvaluationResult

    @property
    def total_facts(self) -> int:
        """Total facts in the final database."""
        return self.result.count()

    def facts_excluding_edb(self, edb: Database) -> int:
        """Facts computed beyond the input EDB."""
        return self.total_facts - edb.count()

    @property
    def derivations(self) -> int:
        """Total derivations attempted."""
        return self.result.stats.derivations


def evaluate_pipeline(
    pipeline: PipelineResult,
    edb: Database,
    query: Query,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
) -> PipelineEvaluation:
    """Evaluate a pipeline's program bottom-up over an EDB."""
    result = evaluate(
        pipeline.program, edb, max_iterations=max_iterations
    )
    return PipelineEvaluation(pipeline=pipeline, result=result)


def query_answers(
    evaluation: PipelineEvaluation, query: Query
) -> set[str]:
    """Answers to the query, name-normalized for cross-program equality."""
    return {
        str(fact)
        for fact in answers_as(
            evaluation.result.database,
            query,
            evaluation.pipeline.query_pred,
        )
    }


def compare_sequences(
    program: Program,
    query: Query,
    sequences: Iterable[Sequence[str]],
    edb: Database,
    max_iterations: int = DEFAULT_EVAL_ITERATIONS,
) -> dict[tuple[str, ...], PipelineEvaluation]:
    """Evaluate several sequences on the same inputs (benchmark helper)."""
    results: dict[tuple[str, ...], PipelineEvaluation] = {}
    for sequence in sequences:
        pipeline = apply_sequence(program, query, sequence)
        results[tuple(sequence)] = evaluate_pipeline(
            pipeline, edb, query, max_iterations
        )
    return results
