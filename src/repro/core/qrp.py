"""QRP constraints: inference from uses and fold/unfold propagation.

*Query-relevant predicate* (QRP) constraints (Definition 2.6) bound the
facts that can possibly participate in a derivation of a query answer.
``Gen_QRP_constraints`` (Section 4.2, Appendix C) infers them from the
*uses* of each predicate: starting from *true* for the query predicate
and *false* elsewhere, each iteration computes, for every body literal
``p_i(X̄i)`` of every rule, the literal constraint of Proposition 4.1

    C_{p_i(X̄i)} = Π_{X̄i}( PTOL(p(X̄), C_p) & C_r )

and unions the LTOPs of these into the approximation for ``p_i``.  A
rule's contributions are recomputed only when its input -- the head
predicate's constraint -- changed since an earlier iteration.

``Gen_Prop_QRP_constraints`` (Section 4.3) propagates the result with
genuine Tamaki-Sato steps: a definition step introducing ``p'`` (one
rule per disjunct), unfolding ``p``'s definitions into ``p'``, and
folding ``p'`` over every body occurrence of ``p``.  The fold's
applicability test is *semantic* (constraint implication), which is what
lets this procedure optimize programs Balbin et al.'s C transformation
and Mumick et al.'s GMT cannot (Section 4.1's discussion of Example 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_REWRITE_ITERATIONS
from repro.constraints.cset import ConstraintSet
from repro.core.predconstraints import InferenceReport, NonTerminationError
from repro.governor import budget as governor
from repro.lang.ast import Literal, Program, Rule
from repro.lang.normalize import normalize_program
from repro.lang.positions import ltop, ptol, ptol_conjunction
from repro.lang.terms import FreshVars
from repro.obs.recorder import count as obs_count
from repro.transform.foldunfold import FoldUnfold


def gen_qrp_constraints(
    program: Program,
    query_preds: str | list[str],
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    disjunct_cap: int = 12,
) -> tuple[dict[str, ConstraintSet], InferenceReport]:
    """Procedure ``Gen_QRP_constraints`` (Appendix C, Theorem 4.2).

    Returns a QRP constraint for every predicate *occurring in a rule
    body* (including EDB predicates -- their QRP constraints drive index
    selections even though nothing is propagated into their absent
    definitions) plus the query predicates (*true*).
    """
    program = normalize_program(program)
    if isinstance(query_preds, str):
        query_preds = [query_preds]
    constraints: dict[str, ConstraintSet] = {
        pred: ConstraintSet.false() for pred in program.predicates()
    }
    for pred in query_preds:
        constraints[pred] = ConstraintSet.true()
    report = InferenceReport()
    uses: dict[tuple[Rule, ConstraintSet], list] = {}
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        obs_count("rewrite.qrp.iterations")
        governor.checkpoint("rewrite.qrp")
        governor.charge("rewrite_iterations", phase="rewrite.qrp")
        inferred = _infer_from_uses(program, constraints, uses)
        changed: set[str] = set()
        for pred, contribution in inferred.items():
            if contribution.implies(constraints[pred]):
                continue
            updated = constraints[pred].or_(contribution).simplify()
            if len(updated) > disjunct_cap:
                from repro.constraints.disjoint import (
                    single_disjunct_relaxation,
                )

                updated = single_disjunct_relaxation(updated)
                report.widened_predicates.add(pred)
                if updated.equivalent(constraints[pred]):
                    continue
            constraints[pred] = updated
            changed.add(pred)
        if not changed:
            report.converged = not report.widened_predicates
            return constraints, report
    report.converged = False
    if on_divergence == "raise":
        raise NonTerminationError(
            f"Gen_QRP_constraints did not converge within "
            f"{max_iterations} iterations"
        )
    # Widen the still-changing predicates to the trivially-correct true
    # (Section 4.2: "our procedure can return true ... as the QRP
    # constraint for program predicates").
    final = _infer_from_uses(program, constraints, uses)
    for pred, contribution in final.items():
        if not contribution.implies(constraints[pred]):
            constraints[pred] = ConstraintSet.true()
            report.widened_predicates.add(pred)
    return constraints, report


def _infer_from_uses(
    program: Program,
    constraints: Mapping[str, ConstraintSet],
    uses: dict[tuple[Rule, ConstraintSet], list],
) -> dict[str, ConstraintSet]:
    """One ``Gen_QRP_constraints`` step: the union of every use's LTOP.

    A rule's uses depend only on the rule and its head's constraint;
    ``uses``, local to one fixpoint, keeps each rule's
    ``(body predicate, contribution)`` pairs under that key.
    """
    inferred = {pred: ConstraintSet.false() for pred in constraints}
    for rule in program:
        key = (rule, constraints[rule.head.pred])
        pairs = uses.get(key)
        if pairs is None:
            pairs = uses[key] = []
            for head_disjunct in ptol(rule.head, key[1]).disjuncts:
                base = rule.constraint.conjoin(head_disjunct)
                if not base.is_satisfiable():
                    continue
                for literal in rule.body:
                    pairs.append(
                        (literal.pred, ltop(literal, ConstraintSet.of(base)))
                    )
        for pred, contribution in pairs:
            inferred[pred] = inferred[pred].or_(contribution)
    return inferred


@dataclass
class QRPPropagation:
    """Result of ``Gen_Prop_QRP_constraints``."""

    program: Program
    constraints: dict[str, ConstraintSet]
    report: InferenceReport
    unfolded_occurrences: int = 0
    folded_occurrences: int = 0
    unfoldable_occurrences: list[str] = field(default_factory=list)
    #: Each restricted predicate's primed copy (``p -> p'``); a copy
    #: renamed back keeps ``p``'s own name in the program.
    primes: dict[str, str] = field(default_factory=dict)


def _prime_name(pred: str, taken: frozenset[str]) -> str:
    candidate = f"{pred}'"
    while candidate in taken:
        candidate += "'"
    return candidate


def gen_prop_qrp_constraints(
    program: Program,
    query_preds: str | list[str],
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
    on_divergence: str = "widen",
    rename_back: bool = True,
    constraints: Mapping[str, ConstraintSet] | None = None,
) -> QRPPropagation:
    """Procedure ``Gen_Prop_QRP_constraints`` (Appendix C, Theorem 4.3).

    Generates QRP constraints (unless ``constraints`` are supplied) and
    propagates them with definition/unfold/fold steps.  Predicates whose
    QRP constraint is *true* are untouched; predicates with a *false*
    QRP constraint have no fact in any answer, so their rules and the
    rules that use them are dropped.  With ``rename_back`` (default) the
    primed predicates are renamed to the original names once the
    original definitions become unreachable, which reproduces the
    paper's presentation of Example 4.3.
    """
    program = normalize_program(program)
    if isinstance(query_preds, str):
        query_preds = [query_preds]
    if constraints is None:
        qrp, report = gen_qrp_constraints(
            program, query_preds, max_iterations, on_divergence
        )
    else:
        qrp = dict(constraints)
        for pred in program.predicates():
            qrp.setdefault(pred, ConstraintSet.true())
        report = InferenceReport(iterations=0)
    state = FoldUnfold(program)
    taken = program.predicates()
    primes: dict[str, str] = {}
    # Definition steps: one primed predicate per optimizable predicate.
    for pred in sorted(program.derived_predicates()):
        if pred in query_preds:
            continue
        cset = qrp[pred]
        if cset.is_true() or cset.is_false():
            continue
        fresh = FreshVars(frozenset(), prefix="X")
        base = Literal(
            pred,
            tuple(fresh.next("X") for _ in range(program.arity(pred))),
        )
        disjuncts = [
            ptol_conjunction(base, disjunct) for disjunct in cset.disjuncts
        ]
        prime = _prime_name(pred, taken)
        taken = taken | {prime}
        primes[pred] = prime
        state = state.define(prime, base, disjuncts)
    result = QRPPropagation(program, qrp, report, primes=primes)
    # Unfolding steps: expand the single p literal of each definition
    # rule into p's definitions (one unfold step per definition rule;
    # the recursive occurrences this introduces are folded, not
    # unfolded, so the procedure terminates on recursive predicates).
    for pred, prime in primes.items():
        for definition in state.definitions:
            if definition.head.pred == prime:
                state = state.unfold(definition, 0)
                result.unfolded_occurrences += 1
    # Folding steps: replace body occurrences of p by p'.
    for pred, prime in primes.items():
        for definition in state.definitions:
            if definition.head.pred != prime:
                continue
            before = state.program
            state = state.fold_everywhere(definition)
            result.folded_occurrences += sum(
                1
                for old, new in zip(before.rules, state.program.rules)
                if old != new
            )
    # Disjunctive fold: an occurrence may imply the propagated
    # constraint set as a whole without implying any single disjunct
    # (typical after ``make_disjoint`` splits the set).  Replacing
    # ``p`` by ``p'`` is still sound then, because ``p'`` is exactly
    # ``p`` restricted to the union of the disjuncts.
    for pred, prime in primes.items():
        cset = qrp[pred]
        failed: set[tuple[Rule, int]] = set()
        changed = True
        while changed:
            changed = False
            governor.checkpoint("rewrite.qrp.fold")
            for rule in state.program.rules:
                if rule in state.definitions:
                    continue
                for index, literal in enumerate(rule.body):
                    if literal.pred != pred or (rule, index) in failed:
                        continue
                    required = ptol(literal, cset)
                    if not ConstraintSet.of(rule.constraint).implies(
                        required
                    ):
                        failed.add((rule, index))
                        continue
                    body = (
                        rule.body[:index]
                        + (literal.with_pred(prime),)
                        + rule.body[index + 1 :]
                    )
                    state = FoldUnfold(
                        state.program.replace_rules(
                            [rule],
                            [Rule(rule.head, body, rule.constraint,
                                  rule.label)],
                        ),
                        state.definitions,
                        (*state.history,
                         f"disjunctive fold {prime} into "
                         f"{rule.label or rule}"),
                    )
                    result.folded_occurrences += 1
                    changed = True
                    break
                if changed:
                    break
    # Any remaining foldable-predicate occurrence outside the original
    # definitions indicates an occurrence whose constraints imply no
    # single disjunct; record it (callers may choose disjoint disjuncts).
    original_rules = {
        rule for pred in primes for rule in program.rules_for(pred)
    }
    for rule in state.program:
        if rule in original_rules:
            continue
        for literal in rule.body:
            if literal.pred in primes:
                result.unfoldable_occurrences.append(
                    f"{literal} in {rule.label or rule}"
                )
    # No fact of a predicate whose QRP constraint is false takes part in
    # an answer, so neither does a fact derived from one: drop the rules
    # that mention such a predicate before pruning the unreachable.
    dead = {
        pred for pred, cset in qrp.items()
        if pred not in query_preds and cset.is_false()
    }
    final = Program(
        rule for rule in state.program
        if not any(
            literal.pred in dead for literal in (rule.head, *rule.body)
        )
    ).restrict_to_reachable(query_preds)
    if rename_back:
        final = _rename_primes_back(final, primes)
    result.program = final.deduplicated().relabeled()
    return result


def _rename_primes_back(
    program: Program, primes: dict[str, str]
) -> Program:
    """Rename ``p'`` back to ``p`` where ``p`` itself died out."""
    surviving = {
        literal.pred
        for rule in program
        for literal in (rule.head, *rule.body)
    }
    mapping = {
        prime: pred
        for pred, prime in primes.items()
        if pred not in surviving and prime in surviving
    }
    if not mapping:
        return program

    def rename_literal(literal: Literal) -> Literal:
        """Rename a literal's predicate per the prime map."""
        return literal.with_pred(mapping.get(literal.pred, literal.pred))

    return Program(
        Rule(
            rename_literal(rule.head),
            tuple(rename_literal(literal) for literal in rule.body),
            rule.constraint,
            rule.label,
        )
        for rule in program
    )
