"""Examples 1.1/4.3: flights, original vs. Constraint_rewrite output.

Sweeps network size and the fraction of irrelevant (slow *and*
expensive) legs.  The paper's qualitative claims, asserted here:

* the rewritten program computes **zero** flight facts with
  T > 240 and C > 150, the original computes many;
* the rewritten fact set is a subset of the original's;
* the gap grows with the irrelevant fraction (the crossover: at
  fraction 0 the two programs do essentially the same work).
"""

import pytest

from repro.core.rewrite import constraint_rewrite
from repro.engine import evaluate
from repro.workloads.flights import flight_network, flights_program


@pytest.fixture(scope="module")
def rewritten():
    return constraint_rewrite(flights_program(), "cheaporshort").program


def evaluate_pair(program, rewritten, network):
    original = evaluate(program, network.database, max_iterations=60)
    optimized = evaluate(rewritten, network.database, max_iterations=60)
    return original, optimized


def irrelevant(result):
    return sum(
        1
        for fact in result.facts("flight")
        if fact.args[2] > 240 and fact.args[3] > 150
    )


@pytest.mark.parametrize("fraction", [0.0, 0.2, 0.4, 0.6])
def test_irrelevant_fraction_sweep(flights_program, rewritten, fraction):
    network = flight_network(
        n_layers=4, width=3, expensive_fraction=fraction, seed=7
    )
    original, optimized = evaluate_pair(
        flights_program, rewritten, network
    )
    assert irrelevant(optimized) == 0
    assert set(optimized.facts("flight")) <= set(
        original.facts("flight")
    )
    if fraction > 0 and irrelevant(original) > 0:
        assert optimized.count("flight") < original.count("flight")


@pytest.mark.parametrize("layers,width", [(3, 3), (4, 3), (4, 4)])
def test_network_size_sweep(flights_program, rewritten, layers, width):
    network = flight_network(
        n_layers=layers, width=width, expensive_fraction=0.4, seed=11
    )
    original, optimized = evaluate_pair(
        flights_program, rewritten, network
    )
    assert optimized.count() <= original.count()
    assert all(
        fact.is_ground() for fact in optimized.database.all_facts()
    )
