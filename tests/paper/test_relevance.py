"""Constraint relevance (Definition 2.5) as a computed quantity.

The paper's goal -- "only facts that are constraint-relevant to (P, Q)
are computed" -- made into a number: the fraction of computed IDB facts
occurring in some answer's derivation tree. The rewritten flights
program must reach ratio 1.0 while the original sits well below.
"""

import pytest

from repro.core.relevance import relevance_report
from repro.core.rewrite import constraint_rewrite
from repro.engine import evaluate
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program


@pytest.fixture(scope="module")
def rewritten():
    return constraint_rewrite(flights_program(), "cheaporshort").program


@pytest.mark.parametrize("fraction", [0.2, 0.4, 0.6])
def test_relevance_ratio_sweep(rewritten, fraction):
    network = flight_network(
        n_layers=4, width=3, expensive_fraction=fraction, seed=21
    )
    query = parse_query("?- cheaporshort(S, D, T, C).")
    original = evaluate(
        flights_program(), network.database, max_iterations=60
    )
    optimized = evaluate(rewritten, network.database, max_iterations=60)
    before = relevance_report(original, query)
    after = relevance_report(optimized, query)
    assert after.ratio == 1.0
    assert before.ratio < after.ratio
