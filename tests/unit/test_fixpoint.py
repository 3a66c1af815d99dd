"""Unit tests for naive/semi-naive fixpoint evaluation."""

import pytest

from repro.engine import Database, evaluate, naive_evaluate, seminaive_evaluate
from repro.lang.parser import parse_program


TC = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


class TestBasics:
    def test_transitive_closure(self):
        edb = Database.from_ground({"edge": [(1, 2), (2, 3), (3, 4)]})
        result = evaluate(parse_program(TC), edb)
        assert result.reached_fixpoint
        assert result.count("tc") == 6

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            evaluate(parse_program(TC), Database(), strategy="magic")

    def test_input_database_untouched(self):
        edb = Database.from_ground({"edge": [(1, 2)]})
        evaluate(parse_program(TC), edb)
        assert edb.count() == 1
        assert edb.count("tc") == 0

    def test_fact_rules_fire_once(self):
        program = parse_program("p(1).\nq(X) :- p(X).")
        result = evaluate(program, Database())
        assert result.count("p") == 1
        assert result.stats.derivations_by_rule.total() <= 3

    def test_iteration_cap_reported(self):
        # x(N) :- x(M), N = M + 1 counts forever.
        program = parse_program("x(0).\nx(N) :- x(M), N = M + 1.")
        result = evaluate(program, max_iterations=5)
        assert not result.reached_fixpoint
        assert result.stats.iterations == 5


class TestSemiNaiveVsNaive:
    def test_same_facts(self):
        edb = Database.from_ground(
            {"edge": [(1, 2), (2, 3), (3, 1), (3, 4)]}
        )
        program = parse_program(TC)
        semi = seminaive_evaluate(program, edb)
        naive = naive_evaluate(program, edb)
        assert set(semi.facts("tc")) == set(naive.facts("tc"))

    def test_seminaive_fewer_derivations(self):
        edb = Database.from_ground(
            {"edge": [(i, i + 1) for i in range(8)]}
        )
        program = parse_program(TC)
        semi = seminaive_evaluate(program, edb)
        naive = naive_evaluate(program, edb)
        assert semi.stats.derivations < naive.stats.derivations

    def test_seminaive_no_rederivation(self):
        # In an acyclic chain every semi-naive derivation is new.
        edb = Database.from_ground(
            {"edge": [(i, i + 1) for i in range(5)]}
        )
        result = seminaive_evaluate(parse_program(TC), edb)
        assert result.stats.duplicates == 0


class TestIterationLogs:
    def test_log_shape(self):
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        result = evaluate(parse_program(TC), edb)
        assert result.iterations[0].number == 0
        first = result.iterations[0].new_facts()
        assert {fact.ground_tuple() for fact in first} == {
            (1, 2),
            (2, 3),
        }
        second = result.iterations[1].new_facts()
        assert {fact.ground_tuple() for fact in second} == {(1, 3)}

    def test_final_iteration_empty_at_fixpoint(self):
        edb = Database.from_ground({"edge": [(1, 2)]})
        result = evaluate(parse_program(TC), edb, provenance=True)
        assert result.reached_fixpoint
        assert result.iterations[-1].derivations == []

    def test_trace_mentions_cap(self):
        program = parse_program("x(0).\nx(N) :- x(M), N = M + 1.")
        result = evaluate(program, max_iterations=3, provenance=True)
        assert "no fixpoint" in result.trace()


class TestStats:
    def test_summary_counts(self):
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        result = evaluate(parse_program(TC), edb)
        assert result.stats.new_facts == 3
        assert "3 facts" in result.stats.summary()

    def test_per_predicate_counts(self):
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        result = evaluate(parse_program(TC), edb)
        assert result.stats.facts_by_pred["tc"] == 3
