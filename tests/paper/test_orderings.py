"""Example D.1: the non-confluence gap scales with the pruned data.

D.1 (Example 7.1's program, free query): ``P^{qrp,mg}`` restricts the
magic rule for ``a2`` with ``X <= 4`` and computes strictly fewer facts
than ``P^{mg,qrp}``.  That strict order, and D.2's opposite one, are
pinned on fixed EDBs in ``tests/unit/test_pipeline.py::TestNonConfluence``;
this module sweeps the chain the constraint prunes.
"""

from repro.core.pipeline import apply_sequence, evaluate_pipeline
from repro.engine import Database
from repro.lang.parser import parse_query


def run_both(program, query, edb):
    first = evaluate_pipeline(
        apply_sequence(program, query, ["qrp", "mg"]), edb, query
    )
    second = evaluate_pipeline(
        apply_sequence(program, query, ["mg", "qrp"]), edb, query
    )
    return first, second


def test_d1_gap_grows_with_chain_length(example_71_program):
    """Parameter sweep: the D.1 gap scales with the pruned chain."""
    gaps = []
    query = parse_query("?- q(X, Y).")
    for length in (4, 8, 16):
        edb = Database.from_ground(
            {
                "b1": [(9, 100), (1, 0)],
                "b2": [(100 + i, 101 + i) for i in range(length)]
                + [(0, 1)],
            }
        )
        first, second = run_both(example_71_program, query, edb)
        gaps.append(
            (
                length,
                first.facts_excluding_edb(edb),
                second.facts_excluding_edb(edb),
            )
        )
    differences = [b - a for __, a, b in gaps]
    assert differences == sorted(differences)
    assert differences[-1] > differences[0]
