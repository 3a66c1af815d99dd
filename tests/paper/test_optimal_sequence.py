"""Theorem 7.10: ``P^{pred,qrp,mg}`` is optimal (one-mg sequences).

Enumerates all sensible sequences on a program with nontrivial
predicate constraints, asserting the prescribed order matches the
minimum fact count.  (Both non-confluence programs are enumerated the
same way in ``tests/integration/test_redundancy.py::TestTheorem710``.)
"""

from repro.core.pipeline import apply_sequence, evaluate_pipeline
from repro.engine import Database
from repro.lang.parser import parse_program, parse_query


SEQUENCES = [
    ("mg",),
    ("pred", "mg"),
    ("qrp", "mg"),
    ("mg", "qrp"),
    ("mg", "pred"),
    ("pred", "qrp", "mg"),
    ("qrp", "pred", "mg"),
    ("pred", "mg", "qrp"),
    ("mg", "pred", "qrp"),
    ("qrp", "mg", "pred"),
]


def sweep(program, query, edb):
    totals = {}
    for sequence in SEQUENCES:
        pipeline = apply_sequence(program, query, list(sequence))
        evaluation = evaluate_pipeline(pipeline, edb, query)
        totals[",".join(sequence)] = evaluation.facts_excluding_edb(edb)
    return totals


def test_optimal_with_predicate_constraints():
    # Example 4.2-style program: pred constraints matter here, so
    # sequences without "pred" are strictly worse.
    program = parse_program(
        """
        q(X, Y) :- a(X, Y), X <= 10.
        a(X, Y) :- p(X, Y), Y <= X.
        a(X, Y) :- a(X, Z), a(Z, Y).
        """
    )
    edb = Database.from_ground(
        {
            "p": [
                (5, 3), (3, 1), (20, 7), (30, 20), (9, 5),
                (15, 2), (1, 0), (7, 6), (6, 2),
            ]
        }
    )
    totals = sweep(program, parse_query("?- q(X, Y)."), edb)
    assert totals["pred,qrp,mg"] == min(totals.values())
    assert totals["pred,qrp,mg"] <= totals["qrp,mg"]
