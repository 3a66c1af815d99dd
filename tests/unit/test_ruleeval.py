"""Unit tests for single-rule application over (constraint) facts."""

import functools
from fractions import Fraction
from unittest.mock import patch

import pytest

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.database import Database
from repro.engine import ruleeval
from repro.engine.facts import Fact, make_fact
from repro.engine.relation import Relation
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.lang.normalize import normalize_rule
from repro.lang.parser import parse_rule


def pos(i):
    return LinearExpr.var(f"${i}")


c = LinearExpr.const


def derive(rule_text: str, database: Database) -> list[Fact]:
    rule = normalize_rule(parse_rule(rule_text))
    evaluator = RuleEvaluator(rule)
    return list(evaluator.derive(database_view(database)))


class TestGroundJoins:
    def test_simple_join(self):
        db = Database.from_ground(
            {"e": [(1, 2), (2, 3)], "f": [(2, 9), (3, 9)]}
        )
        facts = derive("p(X, Z) :- e(X, Y), f(Y, Z).", db)
        assert {f.ground_tuple() for f in facts} == {
            (1, 9),
            (2, 9),
        }

    def test_constraint_filters(self):
        db = Database.from_ground({"e": [(1,), (5,)]})
        facts = derive("p(X) :- e(X), X <= 3.", db)
        assert [f.args[0] for f in facts] == [Fraction(1)]

    def test_symbolic_join(self):
        db = Database.from_ground(
            {"leg": [("a", "b"), ("b", "c")], "leg2": [("b", "c")]}
        )
        facts = derive("p(X, Z) :- leg(X, Y), leg2(Y, Z).", db)
        assert [f.ground_tuple() for f in facts] == [
            (f.ground_tuple()[0], f.ground_tuple()[1]) for f in facts
        ]
        assert len(facts) == 1

    def test_repeated_variable_in_literal(self):
        db = Database.from_ground({"e": [(1, 1), (1, 2)]})
        facts = derive("p(X) :- e(X, X).", db)
        assert [f.args[0] for f in facts] == [Fraction(1)]

    def test_constant_in_body_literal(self):
        db = Database.from_ground({"e": [(0, 7), (1, 8)]})
        facts = derive("p(Y) :- e(0, Y).", db)
        assert [f.args[0] for f in facts] == [Fraction(7)]

    def test_arithmetic_head(self):
        db = Database.from_ground({"e": [(1, 2)]})
        facts = derive("p(X + Y) :- e(X, Y).", db)
        assert facts[0].args == (Fraction(3),)
        assert facts[0].is_ground()

    def test_sort_conflict_prunes(self):
        # A symbol flowing into arithmetic kills the derivation only.
        db = Database.from_ground({"e": [("a",), (2,)]})
        facts = derive("p(X) :- e(X), X <= 3.", db)
        assert [f.args[0] for f in facts] == [Fraction(2)]


class TestConstraintFactJoins:
    def test_constraint_fact_propagates(self):
        db = Database()
        db.insert(
            make_fact("e", [None], Conjunction([Atom.gt(pos(1), c(0))]))
        )
        facts = derive("p(X) :- e(X), X <= 3.", db)
        (fact,) = facts
        assert fact.constraint.implies_atom(Atom.gt(pos(1), c(0)))
        assert fact.constraint.implies_atom(Atom.le(pos(1), c(3)))

    def test_unsatisfiable_join_produces_nothing(self):
        db = Database()
        db.insert(
            make_fact("e", [None], Conjunction([Atom.gt(pos(1), c(5))]))
        )
        assert derive("p(X) :- e(X), X <= 3.", db) == []

    def test_join_two_constraint_facts(self):
        db = Database()
        db.insert(
            make_fact("lo", [None], Conjunction([Atom.ge(pos(1), c(2))]))
        )
        db.insert(
            make_fact("hi", [None], Conjunction([Atom.le(pos(1), c(9))]))
        )
        facts = derive("p(X) :- lo(X), hi(X).", db)
        (fact,) = facts
        assert fact.constraint.implies_atom(Atom.ge(pos(1), c(2)))
        assert fact.constraint.implies_atom(Atom.le(pos(1), c(9)))

    def test_projection_of_nonhead_variable(self):
        db = Database()
        db.insert(Fact.ground("e", (2,)))
        # Y is existential; its constraint restricts X transitively.
        facts = derive("p(X) :- e(Y), X = Y + 1.", db)
        assert facts[0].args == (Fraction(3),)

    def test_dangling_constraint_projects_away(self):
        # Magic-rule pattern: T constrained but unbound.
        db = Database.from_ground({"m": [(1,)]})
        facts = derive("mp(X) :- m(X), T <= 240.", db)
        assert [f.args[0] for f in facts] == [Fraction(1)]

    def test_unbound_head_variable_becomes_pending(self):
        db = Database.from_ground({"m": [(5,)]})
        facts = derive("mp(X, Y) :- m(X).", db)
        (fact,) = facts
        assert fact.args[0] == Fraction(5)
        assert not fact.is_ground()
        assert fact.constraint.is_true()

    def test_wildcard_fact_matches_symbol(self):
        db = Database()
        db.insert(make_fact("any", [None], Conjunction.true()))
        db.insert(Fact.ground("name", ("a",)))
        facts = derive("p(X) :- name(X), any(X).", db)
        assert len(facts) == 1


class TestFactRules:
    def test_ground_fact_rule(self):
        from repro.lang.terms import Sym

        facts = derive("p(1, a).", Database())
        (fact,) = facts
        assert fact.ground_tuple() == (Fraction(1), Sym("a"))

    def test_constraint_fact_rule(self):
        facts = derive("m(N, 5).", Database())
        (fact,) = facts
        assert fact.args[1] == Fraction(5)
        assert not fact.is_ground()


#: ``_HOT`` for each join tier: generated from the first call, or never.
TIERS = pytest.mark.parametrize(
    "hot", [0, 10**9], ids=["generated", "interpreted"]
)


def walk(rule_text: str, database: Database, hot: int):
    """One join over the whole database that inserts each derivation
    as it is yielded, as the fixpoint does; with the derivations it
    returns how often ``Relation.matching`` was called."""
    evaluator = RuleEvaluator(normalize_rule(parse_rule(rule_text)))
    calls = []
    matching = Relation.matching

    @functools.wraps(matching)
    def counted(*args, **kwargs):
        calls.append(args[0].pred)
        return matching(*args, **kwargs)

    derived = []
    with patch.object(ruleeval, "_HOT", hot), (
        patch.object(Relation, "matching", counted)
    ):
        for fact, parents in evaluator.derive_with_parents(
            database_view(database)
        ):
            derived.append((str(fact), [str(parent) for parent in parents]))
            database.insert(fact, stamp=1)
    return derived, calls


class TestMidJoinInserts:
    """Derivations land in a relation while the join reads it.  A probe
    yields the facts stored when it starts, in both tiers."""

    @TIERS
    def test_a_relation_growing_under_its_own_walk(self, hot):
        edges = {"e": [(0, 1), (1, 2), (2, 3)], "p": [(0,)]}
        derived, __ = walk(
            "p(Y) :- p(X), e(X, Y).", Database.from_ground(edges), hot
        )
        assert derived == [("p(1)", ["p(0)", "e(0, 1)"])]
        # A later probe starts after the insert, and sees it.
        derived, __ = walk(
            "p(Y) :- e(X, Y), p(X).", Database.from_ground(edges), hot
        )
        assert [fact for fact, __ in derived] == ["p(1)", "p(2)", "p(3)"]

    @TIERS
    def test_a_probe_after_a_non_ground_insert_calls_matching(self, hot):
        database = Database.from_ground({"e": [(1,), (7,)], "p": [(1, 5)]})
        derived, calls = walk(
            "p(W, X) :- e(X), p(X, V), W >= V.", database, hot
        )
        pending = "p($1, 1; $1 >= 5)"
        assert derived == [
            (pending, ["e(1)", "p(1, 5)"]),
            ("p($1, 7; $1 >= 1)", ["e(7)", pending]),
        ]
        # The generated join reads e and the still ground p itself.
        assert calls == (["p"] if hot == 0 else ["e", "p", "p"])
