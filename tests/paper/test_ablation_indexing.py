"""Ablation: constraint-driven range indexing (Section 4.6, point 2).

"These constraints can be used for effective indexing of relations ...
the constraints Cost <= 150 and Time <= 240 could be used to
efficiently retrieve (via B trees, etc.) singleleg tuples."  A pushed
constraint becomes a range test on the facts a probe reads, so the
facts outside it never reach the join; this ablation compares probe
counts with and without the ranges, at identical results.
"""

import pytest

from repro.core.rewrite import constraint_rewrite
from repro.engine import Database, evaluate
from repro.lang.parser import parse_program
from repro.workloads.flights import flight_network, flights_program


@pytest.mark.parametrize("selectivity", [10, 100, 1000])
def test_selection_probe_counts(selectivity):
    program = parse_program(
        f"cheap(X, C) :- item(X, C), C <= {selectivity}."
    )
    edb = Database.from_ground(
        {"item": [(i, i) for i in range(1, 2001)]}
    )
    with_index = evaluate(program, edb, use_range_index=True)
    without = evaluate(program, edb, use_range_index=False)
    assert set(with_index.facts("cheap")) == set(without.facts("cheap"))
    assert with_index.stats.probes <= selectivity + 1
    assert without.stats.probes >= 2000


def test_rewritten_flights_benefit():
    """The pushed QRP constraints become range tests on probes."""
    rewritten = constraint_rewrite(
        flights_program(), "cheaporshort"
    ).program
    network = flight_network(
        n_layers=4, width=4, expensive_fraction=0.5, seed=29
    )
    with_index = evaluate(
        rewritten, network.database,
        max_iterations=60, use_range_index=True,
    )
    without = evaluate(
        rewritten, network.database,
        max_iterations=60, use_range_index=False,
    )
    assert with_index.stats.probes < without.stats.probes
    assert with_index.count() == without.count()
