"""Prior-work baselines: Balbin et al.'s syntactic constraint propagation.

Section 6.1 describes the C transformation of Balbin et al. [1]: like
``Gen_Prop_QRP_constraints`` it propagates constraints by fold/unfold,
but it treats a constraint as *any other body literal* -- no projection,
no implication reasoning.  A constraint reaches a body literal only when
it is syntactically a constraint over that literal's variables.

The consequence the paper highlights on Example 4.1: with
``q(X) :- p1(X,Y), p2(Y), X+Y <= 6, X >= 2`` the C transformation
propagates nothing into ``p2`` (no explicit constraining literal on
``Y``) and, because it cannot split ``X+Y <= 6`` either, nothing beyond
``X >= 2`` into ``p1``.  Our semantic procedure derives ``Y <= 4``.

This module implements the *constraint-selection* part of [1] as a
drop-in alternative to ``gen_qrp_constraints`` so tests can compare
the two on equal footing (the magic phase is shared).

Nothing under ``src/`` imports it: it ships because it *is* the
Figure 1 prior-work decomposition ``docs/paper_map.md`` cites, and
``tests/paper/test_example41.py``, ``tests/paper/test_prior_work.py``
and ``tests/unit/test_baselines.py`` run the paper's pipeline against it.
"""

from __future__ import annotations

from repro.config import DEFAULT_REWRITE_ITERATIONS
from repro.constraints.conjunction import Conjunction
from repro.constraints.cset import ConstraintSet
from repro.core.predconstraints import InferenceReport
from repro.core.qrp import QRPPropagation, gen_prop_qrp_constraints
from repro.lang.ast import Program
from repro.lang.normalize import normalize_program
from repro.lang.positions import ltop, ptol


def gen_qrp_constraints_syntactic(
    program: Program,
    query_preds: str | list[str],
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
) -> tuple[dict[str, ConstraintSet], InferenceReport]:
    """QRP-constraint generation without semantic reasoning (Balbin-style).

    The literal constraint for ``p_i(X̄i)`` is the conjunction of the
    rule's constraint atoms whose variables all occur in ``X̄i`` (plus
    the head constraint's atoms passed the same way) -- no projection of
    multi-variable constraints, no implied constraints.
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
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        inferred: dict[str, ConstraintSet] = {
            pred: ConstraintSet.false() for pred in constraints
        }
        for rule in program:
            head_cset = constraints[rule.head.pred]
            for head_disjunct in ptol(rule.head, head_cset).disjuncts:
                base = rule.constraint.conjoin(head_disjunct)
                if not base.is_satisfiable():
                    continue
                for literal in rule.body:
                    literal_vars = literal.variables()
                    syntactic = Conjunction(
                        atom
                        for atom in base.atoms
                        if atom.variables() <= literal_vars
                    )
                    contribution = ltop(
                        literal, ConstraintSet.of(syntactic)
                    )
                    inferred[literal.pred] = inferred[
                        literal.pred
                    ].or_(contribution)
        changed = False
        for pred, contribution in inferred.items():
            if contribution.implies(constraints[pred]):
                continue
            constraints[pred] = constraints[pred].or_(
                contribution
            ).simplify()
            changed = True
        if not changed:
            return constraints, report
    report.converged = False
    for pred in constraints:
        constraints[pred] = ConstraintSet.true()
        report.widened_predicates.add(pred)
    return constraints, report


def c_transform(
    program: Program,
    query_preds: str | list[str],
    max_iterations: int = DEFAULT_REWRITE_ITERATIONS,
) -> QRPPropagation:
    """The constraint-propagation phase of Balbin et al.'s pipeline.

    Generates syntactic QRP constraints and propagates them with the
    shared fold/unfold machinery; the result is what their Figure 1
    pipeline would feed into Magic Sets.
    """
    constraints, report = gen_qrp_constraints_syntactic(
        program, query_preds, max_iterations
    )
    result = gen_prop_qrp_constraints(
        program,
        query_preds,
        constraints=constraints,
    )
    result.report = report
    return result
