"""Integration: Examples 1.1 and 4.3 on synthetic flight networks."""

import pytest

from repro.core.rewrite import constraint_rewrite
from repro.engine import evaluate
from repro.engine.query import answers
from repro.lang.parser import parse_query
from repro.workloads.flights import flight_network, flights_program


@pytest.fixture(scope="module")
def rewrite():
    return constraint_rewrite(flights_program(), "cheaporshort")


@pytest.fixture(scope="module")
def network():
    return flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    )


@pytest.fixture(scope="module")
def evaluations(rewrite, network):
    original = evaluate(
        flights_program(), network.database, max_iterations=60
    )
    optimized = evaluate(
        rewrite.program, network.database, max_iterations=60
    )
    return original, optimized


def irrelevant_flights(result):
    return [
        fact
        for fact in result.facts("flight")
        if fact.args[2] > 240 and fact.args[3] > 150
    ]


class TestRewriteShape:
    def test_converged(self, rewrite):
        assert rewrite.converged

    def test_predicate_constraint(self, rewrite):
        assert str(rewrite.predicate_constraints["flight"]) == (
            "($3 > 0 & $4 > 0)"
        )

    def test_qrp_constraint_two_disjuncts(self, rewrite):
        assert len(rewrite.qrp_constraints["flight"]) == 2


class TestEvaluationClaims:
    def test_no_irrelevant_flight_facts(self, evaluations):
        original, optimized = evaluations
        assert irrelevant_flights(original)  # the original does compute them
        assert not irrelevant_flights(optimized)

    def test_subset_of_facts(self, evaluations):
        original, optimized = evaluations
        assert set(optimized.facts("flight")) <= set(
            original.facts("flight")
        )
        assert set(optimized.facts("cheaporshort")) <= set(
            original.facts("cheaporshort")
        )

    def test_only_ground_facts(self, evaluations):
        __, optimized = evaluations
        assert all(
            fact.is_ground() for fact in optimized.database.all_facts()
        )

    def test_considerable_savings(self, evaluations):
        # The paper promises "considerable savings (in terms of the
        # number of facts derived)" when irrelevant legs abound.
        original, optimized = evaluations
        assert optimized.count("flight") < original.count("flight") / 1.5

    def test_query_answers_preserved(self, evaluations, network):
        original, optimized = evaluations
        query = parse_query(
            f"?- cheaporshort({network.source}, "
            f"{network.destination}, T, C)."
        )
        before = {str(a) for a in answers(original.database, query)}
        after = {str(a) for a in answers(optimized.database, query)}
        assert before == after

    def test_all_query_patterns_preserved(self, evaluations):
        # "given any query on cheaporshort (i.e., any pattern of bound
        # arguments)" -- check the fully-free pattern as the superset.
        original, optimized = evaluations
        assert set(optimized.facts("cheaporshort")) == set(
            original.facts("cheaporshort")
        )


class TestMultipleDerivations:
    def test_overlap_duplicates_derivations(self, rewrite):
        """Section 4.6: overlapping disjuncts re-derive cheap+short legs."""
        from repro.engine import Database

        edb = Database.from_ground(
            {"singleleg": [("madison", "chicago", 50, 100)]}
        )
        original = evaluate(flights_program(), edb, max_iterations=10)
        optimized = evaluate(
            rewrite.program, edb, max_iterations=10, provenance=True
        )
        assert original.count("flight") == 1
        assert optimized.count("flight") == 1
        flight_derivs = sum(
            1
            for log in optimized.iterations
            for derivation in log.derivations
            if derivation.fact.pred == "flight"
        )
        # flight(madison, chicago, 50, 100) is derived once per
        # overlapping nonrecursive rule.
        assert flight_derivs == 2
