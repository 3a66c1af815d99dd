"""Ablation: semi-naive vs. naive fixpoint evaluation.

Not a paper table, but the substrate choice every result sits on: the
tables count *semi-naive* derivations.  Naive evaluation re-derives the
whole relation every iteration; the derivation-count ratio grows with
the fixpoint depth.
"""

from repro.engine import Database, naive_evaluate, seminaive_evaluate
from repro.lang.parser import parse_program
from repro.workloads.graphs import chain_edges


TC = parse_program(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    """
)


def test_ratio_grows_with_depth():
    ratios = []
    for length in (4, 8, 16):
        edb = Database.from_ground({"edge": chain_edges(length)})
        semi = seminaive_evaluate(TC, edb, max_iterations=40)
        naive = naive_evaluate(TC, edb, max_iterations=40)
        ratios.append(
            naive.stats.derivations / semi.stats.derivations
        )
    assert ratios == sorted(ratios)
