"""Unit tests for the constraint-relevance measurement (Definition 2.5)."""

import pytest

from repro.core.relevance import relevance_ratio, relevance_report
from repro.core.rewrite import constraint_rewrite
from repro.engine import Database, evaluate
from repro.lang.parser import parse_program, parse_query


@pytest.fixture
def chain_setting():
    program = parse_program(
        """
        q(X, Y) :- t(X, Y), X <= 2.
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
        """
    )
    edb = Database.from_ground(
        {"e": [(1, 2), (2, 3), (8, 9), (9, 10)]}
    )
    return program, edb


class TestReport:
    def test_all_relevant_when_everything_supports(self):
        program = parse_program("q(X) :- e(X).")
        edb = Database.from_ground({"e": [(1,), (2,)]})
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(X)."))
        assert report.ratio == 1.0
        assert not report.irrelevant

    def test_unreachable_branch_is_irrelevant(self, chain_setting):
        program, edb = chain_setting
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(X, Y)."))
        # t facts rooted at 8/9 never reach q (X <= 2 fails).
        assert report.ratio < 1.0
        assert any(
            fact.pred == "t" and fact.args[0] > 2
            for fact in report.irrelevant
        )

    def test_transitive_ancestry_counted(self, chain_setting):
        program, edb = chain_setting
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(1, 3)."))
        # q(1,3) is supported by t(1,3), which needs t(2,3).
        t_relevant = {
            fact.args
            for fact in report.relevant
            if fact.pred == "t"
        }
        assert (1, 3) in t_relevant
        assert (2, 3) in t_relevant

    def test_no_answers_no_relevant_facts(self, chain_setting):
        program, edb = chain_setting
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(99, 99)."))
        assert report.ratio == 0.0

    def test_edb_facts_excluded_from_ratio(self, chain_setting):
        program, edb = chain_setting
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(X, Y)."))
        assert all(fact.pred != "e" for fact in report.computed)
        assert any(fact.pred == "e" for fact in report.edb_facts)

    def test_irrelevant_by_pred(self, chain_setting):
        program, edb = chain_setting
        result = evaluate(program, edb, provenance=True)
        report = relevance_report(result, parse_query("?- q(X, Y)."))
        counts = report.irrelevant_by_pred()
        assert set(counts) <= {"t", "q"}
        assert counts.get("t", 0) >= 1


class TestRewritingImprovesRelevance:
    def test_flights_ratio_improves(self):
        from repro.workloads.flights import (
            flight_network,
            flights_program,
        )

        network = flight_network(
            n_layers=4, width=3, expensive_fraction=0.4, seed=42
        )
        query = parse_query("?- cheaporshort(S, D, T, C).")
        original = evaluate(
            flights_program(), network.database, max_iterations=60,
            provenance=True,
        )
        rewritten = constraint_rewrite(
            flights_program(), "cheaporshort"
        ).program
        optimized = evaluate(
            rewritten, network.database, max_iterations=60,
            provenance=True,
        )
        before = relevance_ratio(original, query)
        after = relevance_ratio(optimized, query)
        assert before < 0.7
        assert after == 1.0

    def test_chain_ratio_improves(self, chain_setting):
        program, edb = chain_setting
        query = parse_query("?- q(X, Y).")
        before = relevance_ratio(evaluate(program, edb, provenance=True), query)
        rewritten = constraint_rewrite(program, "q").program
        after = relevance_ratio(evaluate(rewritten, edb, provenance=True), query)
        assert after >= before
