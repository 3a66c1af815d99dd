"""Unit tests for fold/unfold transformations (Appendix A)."""

import pytest

from repro.conformance.generator import generate_case
from repro.constraints.conjunction import Conjunction
from repro.driver import optimize
from repro.engine import Database, evaluate
from repro.lang.ast import Literal, Program
from repro.lang.parser import parse_program, parse_rule
from repro.lang.terms import var
from repro.transform.foldunfold import (
    FoldUnfold,
    TransformError,
    unify_literals,
)


def conj(text: str) -> Conjunction:
    return parse_rule(f"d(X) :- e(X), {text}.").constraint


class TestUnifyLiterals:
    def test_var_to_var(self):
        first = parse_rule("x(X, Y).").head
        second = parse_rule("x(A, B).").head
        bindings, residual = unify_literals(first, second)
        assert not residual
        assert first.substitute(bindings) == second.substitute(bindings)

    def test_symbol_mismatch(self):
        first = parse_rule("x(madison).").head
        second = parse_rule("x(seattle).").head
        assert unify_literals(first, second) is None

    def test_numeric_residual(self):
        first = parse_rule("x(N, X1 + X2).").head
        second = parse_rule("x(0, 1).").head
        bindings, residual = unify_literals(first, second)
        assert len(residual) == 1  # X1 + X2 = 1

    def test_constant_conflict(self):
        first = parse_rule("x(1).").head
        second = parse_rule("x(2).").head
        assert unify_literals(first, second) is None

    def test_arity_mismatch(self):
        first = parse_rule("x(1).").head
        second = parse_rule("x(1, 2).").head
        assert unify_literals(first, second) is None

    def test_chained_binding(self):
        first = parse_rule("x(X, X).").head
        second = parse_rule("x(A, 3).").head
        bindings, residual = unify_literals(first, second)
        merged = first.substitute(bindings)
        assert merged == second.substitute(bindings)


@pytest.fixture
def simple_state():
    program = parse_program(
        """
        q(X) :- p(X, Y), X <= 6.
        p(X, Y) :- b(X, Y).
        """
    ).relabeled()
    return FoldUnfold(program)


class TestDefinition:
    def test_define_adds_rules(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define("p1", base, [conj("A <= 6")])
        assert len(state.program.rules_for("p1")) == 1
        assert len(state.definitions) == 1

    def test_define_multiple_disjuncts(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define(
            "p1", base, [conj("A <= 6"), conj("B >= 0")]
        )
        assert len(state.program.rules_for("p1")) == 2

    def test_define_rejects_repeated_vars(self, simple_state):
        base = Literal("p", (var("A"), var("A")))
        with pytest.raises(TransformError):
            simple_state.define("p1", base, [conj("A <= 6")])

    def test_define_rejects_existing_pred(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        with pytest.raises(TransformError):
            simple_state.define("q", base, [conj("A <= 6")])

    def test_define_rejects_foreign_variables(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        with pytest.raises(TransformError):
            simple_state.define("p1", base, [conj("C <= 6")])


class TestUnfold:
    def test_unfold_replaces_with_resolvents(self, simple_state):
        rule = simple_state.program.rules_for("q")[0]
        state = simple_state.unfold(rule, 0)
        (new_rule,) = state.program.rules_for("q")
        assert new_rule.body[0].pred == "b"

    def test_unfold_conjoins_constraints(self):
        program = parse_program(
            """
            q(X) :- p(X), X <= 6.
            p(X) :- b(X), X >= 2.
            """
        )
        state = FoldUnfold(program)
        rule = program.rules_for("q")[0]
        state = state.unfold(rule, 0)
        (new_rule,) = state.program.rules_for("q")
        assert len(new_rule.constraint) == 2

    def test_unfold_drops_unsatisfiable_resolvents(self):
        program = parse_program(
            """
            q(X) :- p(X), X <= 1.
            p(X) :- b(X), X >= 5.
            p(X) :- c(X), X >= 0.
            """
        )
        state = FoldUnfold(program)
        state = state.unfold(program.rules_for("q")[0], 0)
        rules = state.program.rules_for("q")
        assert len(rules) == 1
        assert rules[0].body[0].pred == "c"

    def test_unfold_preserves_semantics(self):
        program = parse_program(
            """
            q(X) :- p(X), X <= 6.
            p(X) :- b(X), X >= 2.
            """
        )
        state = FoldUnfold(program).unfold(program.rules_for("q")[0], 0)
        edb = Database.from_ground({"b": [(1,), (3,), (9,)]})
        before = evaluate(program, edb)
        after = evaluate(state.program, edb)
        assert set(before.facts("q")) == set(after.facts("q"))


class TestFold:
    def test_fold_simple(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define("p1", base, [conj("A <= 6")])
        definition = state.definitions[0]
        target = state.program.rules_for("q")[0]
        state = state.fold(target, definition, 0)
        (folded,) = state.program.rules_for("q")
        assert folded.body[0].pred == "p1"

    def test_fold_requires_implication(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define("p1", base, [conj("A <= 5")])
        definition = state.definitions[0]
        target = state.program.rules_for("q")[0]
        # X <= 6 does not imply X <= 5.
        with pytest.raises(TransformError):
            state.fold(target, definition, 0)

    def test_fold_semantic_implication_accepted(self):
        # The Example 4.3 situation: implication holds only semantically.
        program = parse_program(
            """
            q(X) :- p(X, Y), X + Y <= 6, Y >= 2.
            p(X, Y) :- b(X, Y).
            """
        ).relabeled()
        state = FoldUnfold(program)
        base = Literal("p", (var("A"), var("B")))
        state = state.define("p1", base, [conj("A <= 4")])
        target = state.program.rules_for("q")[0]
        state = state.fold(target, state.definitions[0], 0)
        (folded,) = state.program.rules_for("q")
        assert folded.body[0].pred == "p1"

    def test_fold_requires_definition_rule(self, simple_state):
        target = simple_state.program.rules_for("q")[0]
        bogus = parse_rule("p1(A, B) :- p(A, B).")
        with pytest.raises(TransformError):
            simple_state.fold(target, bogus, 0)

    def test_fold_everywhere(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define("p1", base, [conj("A <= 6")])
        state = state.fold_everywhere(state.definitions[0])
        (folded,) = state.program.rules_for("q")
        assert folded.body[0].pred == "p1"

    def test_fold_multi(self):
        program = parse_program(
            """
            q(X, Z) :- m(X), g(X, Y), h(Y, Z), X >= 1.
            """
        ).relabeled()
        state = FoldUnfold(program)
        definition = parse_rule("s(X, Y) :- m(X), g(X, Y), X >= 1.")
        state = FoldUnfold(
            state.program.with_rules([definition]),
            (definition,),
        )
        target = state.program.rules_for("q")[0]
        state = state.fold_multi(target, definition, [0, 1])
        (folded,) = state.program.rules_for("q")
        assert [lit.pred for lit in folded.body] == ["s", "h"]


class TestFoldFailures:
    """A failed fold is a probe result, not an error, and is not retried."""

    def test_symbol_binding_into_definition_constraint_is_a_failed_fold(
        self,
    ):
        # Case 346's disjunctive fold: ``p0(2, s0, V0)`` matches a
        # definition whose constraint mentions the symbol's position.
        case = generate_case(346)
        program, __, __ = optimize(case.program, case.query, "qrp")
        assert str(program) == (
            "r1: p2(V0) :- p0(V0, V1, V1), e0(V2, 0, V0), V0 < 1.\n"
            "r2: p2(V1) :- e0(V0, V1, V2), p0(2, s0, V0), "
            "V1 - 2*V2 <= 2.\n"
            "r3: p0(V1_2, V0_1, V0_1) :- e0(V0_1, 1, V1_2), "
            "p0(V1_2, V0_1, s1), V1_2 > 1, V1_2 = 2."
        )

    def test_fold_everywhere_tries_each_occurrence_once(self, monkeypatch):
        program = parse_program(
            """
            q1(X) :- p(X), X <= 3.
            q2(X) :- p(X), X <= 10.
            q3(X, Y) :- p(X), p(Y), X <= 2, Y <= 9.
            q4(X) :- p(X), X <= 5.
            q5(X) :- p(madison), e(X), X <= 1.
            """
        ).relabeled()
        state = FoldUnfold(program).define(
            "p1", Literal("p", (var("A"),)), [conj("A <= 6")]
        )
        calls = []
        implies = Conjunction.implies

        def counting(self, other):
            calls.append((self, other))
            return implies(self, other)

        monkeypatch.setattr(Conjunction, "implies", counting)
        state = state.fold_everywhere(state.definitions[0])
        # q1.0, q2.0, q3.0, q3.1 and q4.0 -- each asked exactly once,
        # though the scan restarts after each of the three folds; q5's
        # symbol never reaches the implication test.
        assert len(calls) == len(set(calls)) == 5
        bodies = {
            rule.head.pred: [lit.pred for lit in rule.body]
            for rule in state.program
            if rule.head.pred.startswith("q")
        }
        assert bodies == {
            "q1": ["p1"], "q2": ["p"], "q3": ["p1", "p"], "q4": ["p1"],
            "q5": ["p", "e"],
        }

    def test_direct_fold_failures_keep_their_messages(self, simple_state):
        base = Literal("p", (var("A"), var("B")))
        state = simple_state.define("p1", base, [conj("A <= 5")])
        definition = state.definitions[0]
        target = state.program.rules_for("q")[0]
        with pytest.raises(TransformError, match="do not imply"):
            state.fold(target, definition, 0)
        other = parse_rule("r(X) :- p(madison, X), X <= 1.")
        state = FoldUnfold(
            state.program.with_rules([other]), state.definitions
        )
        with pytest.raises(TransformError, match="substituting symbol"):
            state.fold(other, definition, 0)
        (p_rule,) = state.program.rules_for("p")
        with pytest.raises(TransformError, match="not an instance"):
            state.fold(p_rule, definition, 0)


class TestRoundTrip:
    def test_define_unfold_fold_preserves_query(self):
        """The full Gen_Prop pattern preserves query answers."""
        program = parse_program(
            """
            q(X) :- p(X), X <= 6.
            p(X) :- b(X).
            p(X) :- c(X), X >= 5.
            """
        ).relabeled()
        state = FoldUnfold(program)
        base = Literal("p", (var("A"),))
        state = state.define("p1", base, [conj("A <= 6")])
        definition = state.definitions[0]
        state = state.unfold(definition, 0)
        state = state.fold_everywhere(definition)
        final = state.program.restrict_to_reachable(["q"])
        edb = Database.from_ground(
            {"b": [(1,), (9,)], "c": [(5,), (6,), (8,)]}
        )
        before = evaluate(program, edb)
        after = evaluate(final, edb)
        assert set(before.facts("q")) == set(after.facts("q"))
        assert after.count() <= before.count()
