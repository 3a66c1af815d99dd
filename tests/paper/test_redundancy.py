"""Theorems 7.4-7.6/7.9: repeated rewritings are redundant.

The pairwise equalities are in ``tests/integration/test_redundancy.py``;
this module pads the optimal sequence with every redundant step at once.
"""

from repro.core.pipeline import apply_sequence, evaluate_pipeline
from repro.lang.parser import parse_query


def totals(program, query, edb, sequence):
    pipeline = apply_sequence(program, query, sequence)
    evaluation = evaluate_pipeline(pipeline, edb, query)
    return evaluation.facts_excluding_edb(edb)


def test_full_alternation_vs_minimal(example_71_program, graph_edb_71):
    query = parse_query("?- q(X, Y).")
    minimal = totals(
        example_71_program, query, graph_edb_71,
        ["pred", "qrp", "mg"],
    )
    padded = totals(
        example_71_program, query, graph_edb_71,
        ["pred", "qrp", "pred", "qrp", "pred", "mg"],
    )
    assert minimal == padded
