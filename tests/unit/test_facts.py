"""Unit tests for (constraint) facts: canonical form and subsumption."""

from fractions import Fraction

import pytest

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import Fact, PENDING, fact_of_rule, make_fact
from repro.engine.ruleeval import RuleEvaluator
from repro.lang.normalize import normalize_rule
from repro.lang.parser import parse_program
from repro.lang.terms import Sym


def pos(i):
    return LinearExpr.var(f"${i}")


c = LinearExpr.const


class TestGroundFacts:
    def test_coercion(self):
        fact = Fact.ground("leg", ("madison", 50, 100))
        assert fact.args == (Sym("madison"), Fraction(50), Fraction(100))
        assert fact.is_ground()

    def test_ground_tuple(self):
        fact = Fact.ground("p", (1, 2))
        assert fact.ground_tuple() == (1, 2)

    def test_pending_rejected(self):
        with pytest.raises(ValueError):
            Fact.ground("p", (None,))

    def test_equality_and_hash(self):
        assert Fact.ground("p", (1, "a")) == Fact.ground("p", (1, "a"))
        assert hash(Fact.ground("p", (1,))) == hash(Fact.ground("p", (1,)))

    def test_str(self):
        assert str(Fact.ground("p", (1, "a"))) == "p(1, a)"


class TestMakeFact:
    def test_unsat_constraint_returns_none(self):
        constraint = Conjunction(
            [Atom.lt(pos(1), c(0)), Atom.gt(pos(1), c(0))]
        )
        assert make_fact("p", [None], constraint) is None

    def test_forced_value_frozen_into_args(self):
        constraint = Conjunction([Atom.eq(pos(1), c(5))])
        fact = make_fact("p", [None], constraint)
        assert fact.args == (Fraction(5),)
        assert fact.is_ground()
        assert fact.constraint.is_true()

    def test_chained_forcing(self):
        constraint = Conjunction(
            [Atom.eq(pos(1), c(3)), Atom.eq(pos(2), pos(1) + 1)]
        )
        fact = make_fact("p", [None, None], constraint)
        assert fact.args == (Fraction(3), Fraction(4))

    def test_constraint_projected_to_pending_positions(self):
        constraint = Conjunction(
            [Atom.le(pos(1) + LinearExpr.var("Z"), c(6)),
             Atom.ge(LinearExpr.var("Z"), c(2))]
        )
        fact = make_fact("p", [None], constraint)
        assert fact.constraint.variables() == {"$1"}
        assert fact.constraint.implies_atom(Atom.le(pos(1), c(4)))

    def test_fixed_numeric_interacts_with_constraint(self):
        # p(2, $2; $2 = $1 + 1) must freeze $2 = 3.
        constraint = Conjunction([Atom.eq(pos(2), pos(1) + 1)])
        fact = make_fact("p", [2, None], constraint)
        assert fact.args == (Fraction(2), Fraction(3))

    def test_fixed_numeric_contradiction(self):
        constraint = Conjunction([Atom.gt(pos(1), c(10))])
        assert make_fact("p", [2], constraint) is None

    def test_str_with_constraint(self):
        constraint = Conjunction([Atom.gt(pos(1), c(0))])
        fact = make_fact("m_fib", [None, 5], constraint)
        assert str(fact) == "m_fib($1, 5; $1 > 0)"


class TestSubsumption:
    def test_ground_subsumes_itself(self):
        fact = Fact.ground("p", (1, "a"))
        assert fact.subsumes(fact)

    def test_wider_interval_subsumes(self):
        wide = make_fact("p", [None], Conjunction([Atom.gt(pos(1), c(0))]))
        narrow = make_fact("p", [None], Conjunction(
            [Atom.gt(pos(1), c(0)), Atom.le(pos(1), c(4))]
        ))
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)

    def test_pending_subsumes_matching_ground(self):
        wide = make_fact("p", [None], Conjunction([Atom.gt(pos(1), c(0))]))
        point = Fact.ground("p", (3,))
        assert wide.subsumes(point)
        assert not wide.subsumes(Fact.ground("p", (-1,)))

    def test_unconstrained_pending_is_wildcard(self):
        wildcard = make_fact("p", [None, 5], Conjunction.true())
        assert wildcard.subsumes(Fact.ground("p", (99, 5)))
        assert wildcard.subsumes(Fact.ground("p", ("madison", 5)))

    def test_constrained_pending_not_wildcard_for_symbols(self):
        constrained = make_fact(
            "p", [None], Conjunction([Atom.gt(pos(1), c(0))])
        )
        assert not constrained.subsumes(Fact.ground("p", ("a",)))

    def test_symbolic_positions_must_match(self):
        a = Fact.ground("p", ("a", 1))
        b = Fact.ground("p", ("b", 1))
        assert not a.subsumes(b)

    def test_different_predicates_never_subsume(self):
        assert not Fact.ground("p", (1,)).subsumes(Fact.ground("q", (1,)))

    def test_table1_subsumption(self):
        # m_fib(N1,V1; N1>0) subsumes m_fib(0,4)? No: 0 > 0 fails.
        wide = make_fact(
            "m_fib", [None, None], Conjunction([Atom.gt(pos(1), c(0))])
        )
        assert not wide.subsumes(Fact.ground("m_fib", (0, 4)))
        # but it subsumes m_fib(1, 3).
        assert wide.subsumes(Fact.ground("m_fib", (1, 3)))

    def test_pending_positions(self):
        fact = make_fact(
            "p", [None, 5, "a"], Conjunction([Atom.gt(pos(1), c(0))])
        )
        assert fact.pending_positions() == (1,)
        assert not fact.is_ground()
        with pytest.raises(ValueError):
            fact.ground_tuple()


class TestFactOfRule:
    """A body-less rule as the fact the rule evaluator derives from it
    -- what lets a magic seed enter a warm database as a delta."""

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("m_p(madison, seattle).", "m_p(madison, seattle)"),
            ("m_p(X) :- X <= 5.", "m_p($1; $1 <= 5)"),
            ("m_p(X, 3, a) :- X <= 5, X >= 5.", "m_p(5, 3, a)"),
            ("m_p(X, Y).", "m_p($1, $2)"),
            ("m_p(X, X) :- X >= 0.", None),
            ("m_p(X, Y) :- X <= Y, Y <= 4.", None),
            ("m_p(X + 1, 2) :- X = 3.", "m_p(4, 2)"),
            ("m_p(madison) :- T <= 3.", "m_p(madison)"),
        ],
    )
    def test_equals_what_the_rule_derives(self, text, rendered):
        (rule,) = parse_program(text)
        fact = fact_of_rule(rule)
        (derived,) = RuleEvaluator(normalize_rule(rule)).derive(
            lambda *literal: ()
        )
        assert fact == derived and hash(fact) == hash(derived)
        if rendered is not None:
            assert str(fact) == rendered

    def test_unsatisfiable_rule_has_no_fact(self):
        (rule,) = parse_program("m_p(X) :- X <= 1, X >= 2.")
        assert fact_of_rule(rule) is None

    def test_rejects_proper_rules(self):
        (rule,) = parse_program("p(X) :- q(X).")
        with pytest.raises(ValueError):
            fact_of_rule(rule)
