"""Unit tests for databases and query answering."""

from fractions import Fraction

import pytest

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine import Database, evaluate
from repro.engine.facts import Fact, make_fact
from repro.engine.query import answers, has_answer
from repro.engine.relation import Range
from repro.lang.parser import parse_program, parse_query
from repro.lang.terms import Sym


def pos(i):
    return LinearExpr.var(f"${i}")


class TestDatabase:
    def test_from_ground(self):
        db = Database.from_ground({"e": [(1, 2), (2, 3)]})
        assert db.count("e") == 2
        assert db.count() == 2

    def test_copy_preserves_stamps(self):
        db = Database()
        db.insert(Fact.ground("e", (1,)), stamp=3)
        clone = db.copy()
        relation = clone.get("e")
        assert relation.stamp(Fact.ground("e", (1,))) == 3

    def test_copy_is_independent(self):
        db = Database.from_ground({"e": [(1,)]})
        clone = db.copy()
        clone.add_ground("e", (2,))
        assert db.count("e") == 1

    def test_mutating_a_copy_leaves_every_index_of_the_original(self):
        db = Database.from_ground(
            {"e": [(1, "a"), (1, "b"), (2, "a"), (3, "c")]}
        )
        db.add_constraint_fact(
            "e", [None, "a"],
            Conjunction([Atom.gt(pos(1), LinearExpr.const(10))]),
        )
        original = db.get("e")

        def probe_all(relation):
            """Every index of the relation, through its public probes."""
            return (
                list(relation),
                [relation.stamp(fact) for fact in relation],
                [list(relation.matching({0: Fraction(value)}))
                 for value in (1, 2, 3, 11)],
                [list(relation.matching({1: Sym(name)})) for name in "abc"],
                list(relation.matching(ranges={0: Range()})),
            )

        before = probe_all(original)
        clone = db.copy()
        copied = clone.get("e")
        assert probe_all(copied) == before
        wide = make_fact("e", [None, "a"])  # subsumes every e(_, a)
        copied.insert(Fact.ground("e", (2, "b")), stamp=4)
        copied.remove(Fact.ground("e", (1, "b")))
        copied.insert(wide, stamp=5)
        assert len(copied.sweep_subsumed_by(wide)) == 3
        assert probe_all(copied) != before
        assert probe_all(original) == before
        # ... and the other way round.
        after = probe_all(copied)
        original.remove(Fact.ground("e", (3, "c")))
        assert probe_all(copied) == after

    def test_arity_conflict(self):
        db = Database.from_ground({"e": [(1,)]})
        with pytest.raises(ValueError):
            db.add_ground("e", (1, 2))

    def test_add_constraint_fact(self):
        db = Database()
        db.add_constraint_fact(
            "m", [None, 5], Conjunction([Atom.gt(pos(1), LinearExpr.const(0))])
        )
        assert db.count("m") == 1

    def test_unsat_constraint_fact_ignored(self):
        db = Database()
        db.add_constraint_fact(
            "m",
            [None],
            Conjunction(
                [
                    Atom.gt(pos(1), LinearExpr.const(1)),
                    Atom.lt(pos(1), LinearExpr.const(0)),
                ]
            ),
        )
        assert db.count("m") == 0

    def test_contains(self):
        db = Database.from_ground({"e": [(1,)]})
        assert Fact.ground("e", (1,)) in db
        assert Fact.ground("e", (2,)) not in db


class TestAnswers:
    @pytest.fixture
    def evaluated(self):
        program = parse_program(
            """
            tc(X, Y) :- edge(X, Y).
            tc(X, Y) :- edge(X, Z), tc(Z, Y).
            """
        )
        edb = Database.from_ground({"edge": [(1, 2), (2, 3), (3, 4)]})
        return evaluate(program, edb).database

    def test_open_query(self, evaluated):
        found = answers(evaluated, parse_query("?- tc(X, Y)."))
        assert len(found) == 6

    def test_bound_query(self, evaluated):
        found = answers(evaluated, parse_query("?- tc(1, Y)."))
        values = {fact.args[0] for fact in found}
        assert values == {2, 3, 4}

    def test_query_with_constraint(self, evaluated):
        found = answers(evaluated, parse_query("?- tc(X, Y), Y <= 2."))
        assert len(found) == 1

    def test_has_answer(self, evaluated):
        assert has_answer(evaluated, parse_query("?- tc(1, 4)."))
        assert not has_answer(evaluated, parse_query("?- tc(4, 1)."))

    def test_answers_deduplicated(self, evaluated):
        # tc(X, Y) with only X projected: multiple Y witnesses, one X.
        found = answers(evaluated, parse_query("?- tc(1, 4)."))
        assert len(found) == 1
