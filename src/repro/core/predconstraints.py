"""Predicate constraints: inference from definitions (Section 4.4).

A *predicate constraint* on ``p`` (Definition 2.4) is a constraint set
satisfied by every ``p`` fact derivable by the program, independent of
the EDB contents.  ``Gen_predicate_constraints`` (Appendix C) infers the
minimum such constraint by iterating ``Single_step`` to a fixpoint:
starting from *false* for derived predicates, each step pushes the body
literals' current constraints through each rule (conjoin with the rule's
constraints, project onto the head); a rule's contributions are
recomputed only when its input -- its body predicates' constraints --
changed since an earlier step.  The procedure may not terminate
(Theorem 3.1 shows finiteness of the minimum is undecidable); an
iteration cap turns non-termination into either a *widened* sound result
or an exception, at the caller's choice.

``Gen_Prop_predicate_constraints`` then propagates the inferred
constraints into rule bodies: each body literal receives the PTOL of its
predicate's constraint; disjunctive constraints multiply the rule into
one copy per choice of disjuncts (footnote 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from repro.config import DEFAULT_REWRITE_ITERATIONS
from repro.constraints.cset import ConstraintSet
from repro.errors import ReproError
from repro.governor import budget as governor
from repro.lang.ast import Program, Rule
from repro.lang.normalize import normalize_program
from repro.lang.positions import ltop, ptol
from repro.obs.recorder import count as obs_count


class NonTerminationError(ReproError, RuntimeError):
    """The constraint-generation fixpoint exceeded its iteration cap."""

    code = "REPRO_NONTERMINATION"
    exit_code = 3


@dataclass
class InferenceReport:
    """What a constraint-inference run did (inspectable in tests/benches)."""

    iterations: int = 0
    converged: bool = True
    widened_predicates: set[str] = field(default_factory=set)


def _rule_contributions(
    rule: Rule, current: Mapping[str, ConstraintSet]
) -> list[ConstraintSet]:
    """The head constraints ``rule`` infers, one per choice of disjuncts."""
    body_choices = []
    for literal in rule.body:
        options = ptol(literal, current[literal.pred]).disjuncts
        if not options:
            return []
        body_choices.append(options)
    contributions = []
    for choice in product(*body_choices):
        conjunction = rule.constraint
        for disjunct in choice:
            conjunction = conjunction.conjoin(disjunct)
        if conjunction.is_satisfiable():
            contributions.append(
                ltop(rule.head, ConstraintSet.of(conjunction))
            )
    return contributions


def single_step(
    program: Program,
    current: Mapping[str, ConstraintSet],
    max_disjuncts: int = 64,
    memo: dict | None = None,
) -> dict[str, ConstraintSet]:
    """One application of the paper's ``Single_step`` (Appendix C).

    For each rule ``p(X̄) :- C_r, p1(X̄1), ..., pn(X̄n)`` and each choice
    of one disjunct from each body predicate's current constraint, the
    inferred head constraint is ``LTOP(p(X̄), C_r & ∧_i PTOL(p_i(X̄i), d_i))``
    (the projection onto the head is inside LTOP).  Results are unioned
    per head predicate.  ``memo``, kept by the caller across the steps
    of one fixpoint, holds each rule's contributions keyed on the rule
    and its body predicates' constraints.
    """
    inferred: dict[str, ConstraintSet] = {
        pred: ConstraintSet.false() for pred in program.derived_predicates()
    }
    memo = {} if memo is None else memo
    for rule in program:
        key = (rule, tuple(current[lit.pred] for lit in rule.body))
        if key not in memo:
            memo[key] = _rule_contributions(rule, current)
        head_pred = rule.head.pred
        for contribution in memo[key]:
            inferred[head_pred] = inferred[head_pred].or_(contribution)
            if len(inferred[head_pred]) > max_disjuncts:
                inferred[head_pred] = inferred[head_pred].simplify()
    return {pred: cset.simplify() for pred, cset in inferred.items()}


def gen_predicate_constraints(
    program: Program,
    edb_constraints: Mapping[str, ConstraintSet] | None = None,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    disjunct_cap: int = 12,
) -> tuple[dict[str, ConstraintSet], InferenceReport]:
    """Procedure ``Gen_predicate_constraints`` (Appendix C, Theorem 4.5).

    ``edb_constraints`` supplies the (given) minimum predicate
    constraints of database predicates; missing entries default to
    *true*.  On hitting ``max_iterations``: ``on_divergence="widen"``
    returns *true* for the still-changing predicates (sound, not
    minimum, per the Section 4.2 discussion); ``"raise"`` raises
    :class:`NonTerminationError`.

    ``disjunct_cap`` bounds representation growth on diverging
    instances (whose minimum constraint enumerates ever more disjuncts,
    Theorem 3.1): past the cap a predicate's approximation is relaxed
    to its single-disjunct hull (Section 4.6's simplification), which
    keeps each iteration cheap; the result is an over-approximation,
    i.e. still a sound -- just not minimum -- predicate constraint.
    """
    program = normalize_program(program)
    constraints: dict[str, ConstraintSet] = {}
    for pred in program.predicates():
        constraints[pred] = ConstraintSet.false()
    for pred in program.edb_predicates():
        constraints[pred] = ConstraintSet.true()
    if edb_constraints:
        for pred, cset in edb_constraints.items():
            constraints[pred] = cset
    report = InferenceReport()
    relaxed: set[str] = set()
    memo: dict = {}
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        obs_count("rewrite.pred.iterations")
        # Cooperative budget checkpoint: each Single_step is one unit
        # of rewrite work; exhaustion propagates to the caller, whose
        # degradation ladder falls back to widening (see repro.driver).
        governor.checkpoint("rewrite.pred")
        governor.charge("rewrite_iterations", phase="rewrite.pred")
        stepped = single_step(program, constraints, memo=memo)
        changed: set[str] = set()
        for pred, contribution in stepped.items():
            if contribution.implies(constraints[pred]):
                continue
            updated = constraints[pred].or_(contribution).simplify()
            if len(updated) > disjunct_cap:
                from repro.constraints.disjoint import (
                    single_disjunct_relaxation,
                )

                updated = single_disjunct_relaxation(updated)
                relaxed.add(pred)
                if updated.implies(constraints[pred]) and constraints[
                    pred
                ].implies(updated):
                    continue
            constraints[pred] = updated
            changed.add(pred)
        if not changed:
            report.widened_predicates |= relaxed
            # A cap-triggered relaxation may have stabilized on a
            # non-minimum constraint; report it so callers can fall
            # back to a smarter widening.
            report.converged = not relaxed
            return constraints, report
    report.converged = False
    if on_divergence == "raise":
        raise NonTerminationError(
            f"Gen_predicate_constraints did not converge within "
            f"{max_iterations} iterations"
        )
    final = single_step(program, constraints)
    for pred in program.derived_predicates():
        if not final[pred].implies(constraints[pred]):
            constraints[pred] = ConstraintSet.true()
            report.widened_predicates.add(pred)
    return constraints, report


def is_predicate_constraint(
    program: Program,
    candidates: Mapping[str, ConstraintSet],
    edb_constraints: Mapping[str, ConstraintSet] | None = None,
) -> bool:
    """Verify candidate constraints are (inductive) predicate constraints.

    Checks that for every rule, pushing the candidates of the body
    predicates through the rule yields a head constraint implying the
    head predicate's candidate -- the inductive argument of the
    Theorem 4.5 proof.  Predicates without a candidate default to *true*.
    A valid-but-non-minimum constraint (like ``$2 >= 1`` for ``fib`` in
    Example 4.4) passes this check even though the fixpoint iteration
    would never produce it.
    """
    program = normalize_program(program)
    full: dict[str, ConstraintSet] = {
        pred: ConstraintSet.true() for pred in program.predicates()
    }
    if edb_constraints:
        full.update(edb_constraints)
    full.update(candidates)
    stepped = single_step(program, full)
    return all(
        stepped[pred].implies(full[pred])
        for pred in program.derived_predicates()
    )


def attach_constraints_to_bodies(
    program: Program,
    constraints: Mapping[str, ConstraintSet],
) -> Program:
    """Add each body literal's PTOL'd constraint to its rule's body.

    Disjunctive constraints multiply the rule into one copy per choice
    of disjuncts (footnote 4); unsatisfiable copies are dropped.  This
    is the rewriting of procedure ``Gen_Prop_predicate_constraints``.
    """
    new_rules: list[Rule] = []
    for rule in program:
        per_literal = []
        feasible = True
        for literal in rule.body:
            cset = constraints.get(literal.pred, ConstraintSet.true())
            options = ptol(literal, cset).disjuncts
            if not options:
                feasible = False
                break
            per_literal.append(options)
        if not feasible:
            continue
        total = 1
        for options in per_literal:
            total *= len(options)
        copies = 0
        for choice in product(*per_literal):
            constraint = rule.constraint
            for disjunct in choice:
                constraint = constraint.conjoin(disjunct)
            if not constraint.is_satisfiable():
                continue
            copies += 1
            label = rule.label
            if label is not None and total > 1:
                label = f"{rule.label}.{copies}"
            new_rules.append(
                Rule(rule.head, rule.body, constraint, label)
            )
    return Program(new_rules)


def gen_prop_predicate_constraints(
    program: Program,
    edb_constraints: Mapping[str, ConstraintSet] | None = None,
    given: Mapping[str, ConstraintSet] | None = None,
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
) -> tuple[Program, dict[str, ConstraintSet], InferenceReport]:
    """Procedure ``Gen_Prop_predicate_constraints`` (Theorem 4.6).

    Generates minimum predicate constraints and attaches them to every
    body occurrence.  ``given`` supplies externally-known predicate
    constraints (verified with :func:`is_predicate_constraint`) for
    predicates on which the fixpoint diverges -- the Example 4.4 usage
    where ``$2 >= 1`` for ``fib`` is asserted rather than inferred.
    """
    program = normalize_program(program)
    if given:
        if not is_predicate_constraint(program, given, edb_constraints):
            raise ValueError(
                "the supplied constraints are not predicate constraints"
            )
        rewritten = attach_constraints_to_bodies(program, given)
        report = InferenceReport(iterations=0, converged=True)
        return rewritten, dict(given), report
    constraints, report = gen_predicate_constraints(
        program, edb_constraints, max_iterations, on_divergence
    )
    rewritten = attach_constraints_to_bodies(program, constraints)
    return rewritten, constraints, report
