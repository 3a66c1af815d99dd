"""End-to-end strategy comparison through the driver (user's-eye view).

Per workload: every strategy of ``repro.driver`` on the same
program/EDB/query. The expected shape follows Section 7: ``optimal``
(pred,qrp,mg) never computes more facts than ``magic`` alone, and
``rewrite`` never more than ``none``.
"""

from repro.driver import STRATEGIES, answer_query
from repro.engine import Database
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program
from repro.workloads.graphs import random_edges


def sweep(program, query, edb, eval_iterations=80):
    outcomes = {}
    for strategy in STRATEGIES:
        outcomes[strategy] = answer_query(
            program, query, edb, strategy=strategy,
            eval_iterations=eval_iterations,
        )
    return outcomes


def check_shape(outcomes, edb):
    answers = {
        frozenset(outcome.answer_strings)
        for outcome in outcomes.values()
    }
    assert len(answers) == 1
    counts = {
        strategy: outcome.result.count()
        for strategy, outcome in outcomes.items()
    }
    assert counts["rewrite"] <= counts["none"]
    assert counts["optimal"] <= counts["magic"]


def test_strategies_on_flights():
    network = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=31
    )
    query = parse_query(
        f"?- cheaporshort({network.source}, {network.destination},"
        " T, C)."
    )
    program = flights_program()
    outcomes = sweep(program, query, network.database)
    check_shape(outcomes, network.database)


def test_strategies_on_bounded_tc():
    from repro.lang.parser import parse_program

    program = parse_program(
        """
        q(X, Y) :- t(X, Y), X <= 3.
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
        """
    )
    edb = Database.from_ground(
        {"e": random_edges(25, max_node=12, seed=33)}
    )
    query = parse_query("?- q(2, Y).")
    outcomes = sweep(program, query, edb)
    check_shape(outcomes, edb)
