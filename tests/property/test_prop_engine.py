"""Property-based tests of the evaluation engine and the rewritings.

Random ground Datalog-with-constraints programs and EDBs check the
theorems' statements as executable properties:

* semi-naive and naive evaluation compute the same facts;
* ``Gen_Prop_QRP_constraints`` output is query-equivalent and computes
  a subset of the facts (Theorems 4.3/4.4);
* ``Gen_Prop_predicate_constraints`` preserves all derived predicates
  (Theorem 4.6);
* everything stays ground on range-restricted programs;
* a compiled rule plan derives exactly what the general join does.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.core.predconstraints import gen_prop_predicate_constraints
from repro.core.qrp import gen_prop_qrp_constraints
from repro.engine import Database, evaluate, naive_evaluate, ruleeval
from repro.engine.facts import make_fact
from repro.engine.ruleeval import RuleEvaluator, _State, database_view
from repro.lang.normalize import normalize_rule
from repro.lang.parser import parse_program, parse_rule


bounds = st.integers(min_value=0, max_value=8)
edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=0,
    max_size=12,
)


@st.composite
def tc_programs(draw):
    """A transitive-closure-with-selections program family."""
    k1 = draw(bounds)
    k2 = draw(bounds)
    text = f"""
    q(X, Y) :- t(X, Y), X <= {k1}.
    t(X, Y) :- e(X, Y), Y >= {k2 - 4}.
    t(X, Y) :- e(X, Z), t(Z, Y).
    """
    return parse_program(text)


class TestEvaluationStrategies:
    @given(tc_programs(), edges)
    @settings(max_examples=40, deadline=None)
    def test_seminaive_equals_naive(self, program, edge_list):
        edb = Database.from_ground({"e": set(edge_list)})
        semi = evaluate(program, edb, max_iterations=30)
        naive = naive_evaluate(program, edb, max_iterations=30)
        assert semi.reached_fixpoint and naive.reached_fixpoint
        for pred in ("q", "t"):
            assert set(semi.facts(pred)) == set(naive.facts(pred))

    @given(tc_programs(), edges)
    @settings(max_examples=40, deadline=None)
    def test_all_facts_ground(self, program, edge_list):
        edb = Database.from_ground({"e": set(edge_list)})
        result = evaluate(program, edb, max_iterations=30)
        assert all(
            fact.is_ground() for fact in result.database.all_facts()
        )


class TestQRPProperties:
    @given(tc_programs(), edges)
    @settings(max_examples=30, deadline=None)
    def test_rewrite_query_equivalent_and_subset(
        self, program, edge_list
    ):
        rewritten = gen_prop_qrp_constraints(program, "q").program
        edb = Database.from_ground({"e": set(edge_list)})
        before = evaluate(program, edb, max_iterations=30)
        after = evaluate(rewritten, edb, max_iterations=30)
        # Theorem 4.3: query equivalence.
        assert set(after.facts("q")) == set(before.facts("q"))
        # Theorem 4.4: subset of facts, and ground facts only.
        assert set(after.facts("t")) <= set(before.facts("t"))
        assert all(
            fact.is_ground() for fact in after.database.all_facts()
        )


class TestPredicateConstraintProperties:
    @given(tc_programs(), edges)
    @settings(max_examples=30, deadline=None)
    def test_propagation_preserves_all_predicates(
        self, program, edge_list
    ):
        rewritten, __, report = gen_prop_predicate_constraints(program)
        edb = Database.from_ground({"e": set(edge_list)})
        before = evaluate(program, edb, max_iterations=30)
        after = evaluate(rewritten, edb, max_iterations=30)
        # Theorem 4.6: equivalent for every derived predicate.
        for pred in ("q", "t"):
            assert set(after.facts(pred)) == set(before.facts(pred))

    @given(tc_programs())
    @settings(max_examples=30, deadline=None)
    def test_inferred_constraints_verify(self, program):
        from repro.core.predconstraints import (
            gen_predicate_constraints,
            is_predicate_constraint,
        )

        constraints, report = gen_predicate_constraints(program)
        if report.converged:
            derived = {
                pred: constraints[pred]
                for pred in program.derived_predicates()
            }
            assert is_predicate_constraint(program, derived)


class TestBackwardSubsumption:
    @given(tc_programs(), edges)
    @settings(max_examples=30, deadline=None)
    def test_sweeping_preserves_fact_semantics(self, program, edge_list):
        edb = Database.from_ground({"e": set(edge_list)})
        plain = evaluate(program, edb, max_iterations=30)
        swept = evaluate(
            program, edb, max_iterations=30, backward_subsumption=True
        )
        # On ground-only programs nothing is ever swept, so the fact
        # sets must be identical; the equality doubles as a regression
        # guard on the removal bookkeeping.
        for pred in ("q", "t"):
            assert set(plain.facts(pred)) == set(swept.facts(pred))
        assert swept.stats.swept == 0


# -- rule plans -----------------------------------------------------------

RULES = [
    "p(X, Z) :- e(X, Y), f(Y, Z), X <= 3.",
    "p(X, S) :- e(X, Y), f(Y, Z), S = X + Z, S < 6.",
    "p(H, Y) :- e(X, Y), 2 * H = X + Y.",
    "p(X) :- e(X, X).",
    "p(Y) :- e(1, Y), f(Y, a).",
    "p(X, W) :- e(X, Y), Y > X, f(Y, W), W >= 1.",
    "p(X, N) :- e(X, Y), f(Z, Y), N = Z - 1, T <= 4.",
    "p(X, Y, U) :- e(X, Y).",
    "p(X, W) :- e(X, Y), f(Y, Z), e(Z, W), X < W.",
    "p(X, Y) :- e(X, Y), X < Y, 2 * Y <= 5.",
]

plan_values = st.sampled_from(
    [0, 1, 2, 3, 4, Fraction(1, 2), Fraction(5, 2), "a", "b", None]
)
plan_rows = st.lists(
    st.tuples(plan_values, plan_values), min_size=0, max_size=8
)


def _plan_database(e_rows, f_rows):
    """The rows as facts, stamped 0 and 1 alternately (two deltas)."""
    database = Database()
    for pred, rows in (("e", e_rows), ("f", f_rows)):
        database.relation(pred, 2)
        for number, row in enumerate(rows):
            # A PENDING position ranges over [1, 3]: it joins with
            # some constants, is refuted by others.
            atoms = []
            for index, value in enumerate(row, start=1):
                if value is None:
                    position = LinearExpr.var(f"${index}")
                    atoms.append(Atom.ge(position, LinearExpr.const(1)))
                    atoms.append(Atom.le(position, LinearExpr.const(3)))
            fact = make_fact(pred, list(row), Conjunction(atoms))
            if fact is not None:
                database.insert(fact, stamp=number % 2)
    return database


def _through_plan(rule, view, first, hot):
    """(derivations, probes) of one plan join, with ``_HOT`` at ``hot``."""
    evaluator = RuleEvaluator(rule)
    with patch.object(ruleeval, "_HOT", hot):
        derived = list(evaluator.derive_with_parents(view, first))
    if hot == 0:
        assert evaluator._plan.variants[first].join is not None
    return derived, evaluator.probes


def _through_general(rule, view, first):
    """The same join entered with a (vacuous) general state, which
    switches the plan's constant path off for every candidate."""
    evaluator = RuleEvaluator(rule)
    steps = ruleeval._steps(rule, evaluator._plan, first)
    derived = list(evaluator._join(
        steps, 0, [], _State({}, {}, []), [0], view, [None] * len(steps),
    ))
    return derived, evaluator.probes


class TestRulePlans:
    """A variant joins through generated code once hot, the
    interpreter's constant arm before, and the general unify /
    substitute / project arm for what neither decides.  All three must
    come out the same -- derivations, order, parents and probe count --
    from every first literal, over the full view and every delta view.
    """

    @given(st.sampled_from(RULES), plan_rows, plan_rows)
    @settings(max_examples=200, deadline=None)
    def test_plan_path_equals_general_path(self, text, e_rows, f_rows):
        rule = normalize_rule(parse_rule(text))
        database = _plan_database(e_rows, f_rows)
        views = [database_view(database)] + [
            database_view(database, 1, delta)
            for delta in range(len(rule.body))
        ]
        for view in views:
            for first in (None, *range(len(rule.body))):
                generated = _through_plan(rule, view, first, 0)
                interpreted = _through_plan(rule, view, first, 10**9)
                general = _through_general(rule, view, first)
                assert generated == interpreted == general
