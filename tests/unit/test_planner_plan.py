"""Unit tests for the ``auto`` pick by program shape.

The search space is closed (Theorems 7.8/7.10: subsequences of
``pred, qrp, mg`` with driver names), and the pick is a function of
the program and the query alone, so the tests pin it per input.
"""

import pytest

from repro.driver import STRATEGIES, split_edb
from repro.lang.parser import parse_program, parse_query
from repro.planner import STRATEGY_SEQUENCES, plan_query
from repro.workloads.fib import fib_program, fib_query
from repro.workloads.flights import flight_network, flights_program

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
"""

EXAMPLE_41 = """
q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
p1(X, Y) :- b1(X, Y).
p2(X) :- b2(X).
"""

EXAMPLE_51 = """
q(X, Y) :- a(X, Y), X <= 10, Y <= X.
a(X, Y) :- p(X, Y), Y <= X.
a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
"""

SEEDED = ("magic", "none", "rewrite")
AS_WRITTEN = ("none", "rewrite", "optimal")


def flights_inputs():
    network = flight_network(n_layers=4, width=4, seed=1)
    rules, __ = split_edb(flights_program())
    query = parse_query(
        f"?- cheaporshort({network.source}, "
        f"{network.destination}, T, C)."
    )
    return rules, query


def text_inputs(text, query):
    return parse_program(text).relabeled(), parse_query(query)


INPUTS = {
    "flights with a bound city": flights_inputs,
    "chain path(0, Y)": lambda: text_inputs(PATH, "?- path(0, Y)."),
    "path(X, Y)": lambda: text_inputs(PATH, "?- path(X, Y)."),
    "example 4.1": lambda: text_inputs(EXAMPLE_41, "?- q(X)."),
    "example 5.1": lambda: text_inputs(EXAMPLE_51, "?- q(X, Y)."),
    "P_fib": lambda: (fib_program(), fib_query(5)),
}


class TestStrategySequences:
    def test_every_driver_strategy_has_a_sequence(self):
        assert set(STRATEGY_SEQUENCES) == set(STRATEGIES)

    def test_sequences_respect_the_optimal_order(self):
        order = {"pred": 0, "qrp": 1, "mg": 2}
        for sequence in STRATEGY_SEQUENCES.values():
            positions = [order[step] for step in sequence]
            assert positions == sorted(positions)


class TestPlanQuery:
    @pytest.mark.parametrize(
        "name, pick, candidates",
        [
            ("flights with a bound city", "magic", SEEDED),
            ("chain path(0, Y)", "magic", SEEDED),
            ("path(X, Y)", "none", AS_WRITTEN),
            ("example 4.1", "none", AS_WRITTEN),
            ("example 5.1", "none", AS_WRITTEN),
            ("P_fib", "optimal", ("optimal",)),
        ],
    )
    def test_pick_and_candidates_by_shape(self, name, pick, candidates):
        plan = plan_query(*INPUTS[name]())
        assert plan.strategy == pick
        assert plan.sequence == STRATEGY_SEQUENCES[pick]
        assert plan.candidates == candidates
        assert plan.reason

    def test_search_is_deterministic(self):
        rules, query = flights_inputs()
        assert plan_query(rules, query) == plan_query(rules, query)

    def test_unbound_recursive_query_avoids_magic(self):
        # Example 5.1's query binds nothing: magic has no constant to
        # pass sideways and only adds its own predicates.
        plan = plan_query(*INPUTS["example 5.1"]())
        assert plan.strategy != "magic"
        assert "magic" not in plan.candidates

    def test_explain_mentions_every_candidate(self):
        rules, query = flights_inputs()
        plan = plan_query(rules, query)
        text = plan.explain()
        assert f"strategy={plan.strategy}" in text
        assert plan.reason in text
        for name in plan.candidates:
            assert name in text

    def test_as_dict_is_json_ready(self):
        import json

        rules, query = flights_inputs()
        document = plan_query(rules, query).as_dict()
        json.dumps(document)
        assert document["strategy"] == document["candidates"][0]
