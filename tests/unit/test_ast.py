"""Unit tests for literals, rules and programs."""

import pytest

from repro.conformance.generator import generate_case
from repro.constraints.conjunction import Conjunction
from repro.lang.ast import Literal, Program, Rule, make_rule
from repro.lang.parser import parse_program, parse_rule
from repro.lang.terms import num, sym, var


class TestLiteral:
    def test_variables(self):
        literal = Literal("p", (var("X"), sym("a"), num(3)))
        assert literal.variables() == {"X"}

    def test_rename(self):
        literal = Literal("p", (var("X"), var("Y")))
        renamed = literal.rename({"X": "Z"})
        assert renamed.args == (var("Z"), var("Y"))

    def test_distinct_var_args(self):
        assert Literal("p", (var("X"), var("Y"))).has_distinct_var_args()
        assert not Literal("p", (var("X"), var("X"))).has_distinct_var_args()
        assert not Literal("p", (var("X"), num(1))).has_distinct_var_args()


class TestRule:
    def test_is_fact(self):
        assert parse_rule("p(1).").is_fact
        assert not parse_rule("p(X) :- q(X).").is_fact

    def test_range_restricted(self):
        assert parse_rule("p(X) :- q(X).").is_range_restricted()
        # Constraints do not count (footnote 8).
        assert not parse_rule("p(X) :- q(Y), X <= Y.").is_range_restricted()

    def test_rename_apart_disjoint(self):
        rule = parse_rule("p(X) :- q(X, Y).")
        renamed = rule.rename_apart({"X", "Y"})
        assert not (renamed.variables() & {"X", "Y"})

    def test_add_constraints(self):
        rule = parse_rule("p(X) :- q(X).")
        extra = parse_rule("d(X) :- e(X), X <= 4.").constraint
        assert len(rule.add_constraints(extra).constraint) == 1

    def test_str_shapes(self):
        assert str(parse_rule("p(1).")) == "p(1)."
        assert "::" not in str(parse_rule("p(X) :- q(X), X <= 1."))


class TestProgram:
    def test_arity_check(self):
        with pytest.raises(ValueError):
            parse_program("p(X) :- q(X).\np(X, Y) :- q(X).")

    def test_derived_and_edb(self):
        program = parse_program("p(X) :- e(X).\nq(X) :- p(X).")
        assert program.derived_predicates() == {"p", "q"}
        assert program.edb_predicates() == {"e"}

    def test_rules_for(self):
        program = parse_program("p(X) :- e(X).\np(X) :- f(X).")
        assert len(program.rules_for("p")) == 2

    def test_body_occurrences(self):
        program = parse_program("p(X) :- e(X), e(X).\nq(X) :- e(X).")
        assert len(program.body_occurrences("e")) == 3

    def test_sccs_topological(self):
        program = parse_program(
            """
            q(X) :- a(X).
            a(X) :- b(X), a(X).
            b(X) :- e(X).
            """
        )
        sccs = program.sccs_topological(roots=["q"])
        assert sccs[0] == {"q"}
        flattened = [pred for scc in sccs for pred in scc]
        assert flattened.index("q") < flattened.index("a")
        assert flattened.index("a") < flattened.index("b")

    def test_recursive_with(self):
        program = parse_program(
            """
            a(X) :- b(X).
            b(X) :- a(X).
            c(X) :- a(X), c(X).
            d(X) :- e(X).
            """
        )
        assert program.recursive_with("a", "b")
        assert program.recursive_with("b", "a")
        assert program.recursive_with("a", "a")
        assert program.recursive_with("c", "c")
        assert not program.recursive_with("a", "c")
        assert not program.recursive_with("d", "d")
        assert not program.recursive_with("absent", "absent")
        components = program.components()
        assert components["a"] == {"a", "b"}
        assert components["c"] == {"c"}
        assert program.components() is components

    def test_restrict_to_reachable(self):
        program = parse_program(
            """
            q(X) :- a(X).
            a(X) :- e(X).
            orphan(X) :- e(X).
            """
        )
        restricted = program.restrict_to_reachable(["q"])
        assert restricted.derived_predicates() == {"q", "a"}
        assert program.restrict_to_reachable(["q", "nowhere"]) == restricted
        assert len(program.restrict_to_reachable(["nowhere"])) == 0
        assert program.sccs_topological(roots=["nowhere"]) == []

    def test_deduplicated_renaming_invariant(self):
        program = Program(
            [
                parse_rule("p(X) :- q(X), X <= 4."),
                parse_rule("p(Y) :- q(Y), Y <= 4."),
                parse_rule("p(X) :- q(X), X <= 5."),
            ]
        )
        assert len(program.deduplicated()) == 2

    def test_relabeled(self):
        program = parse_program("p(X) :- e(X).\nq(X) :- p(X).").relabeled()
        assert [rule.label for rule in program] == ["r1", "r2"]

    def test_replace_rules(self):
        program = parse_program("p(X) :- e(X).\nq(X) :- p(X).")
        old = program.rules[0]
        new = parse_rule("p(X) :- f(X).")
        replaced = program.replace_rules([old], [new])
        assert new in replaced.rules
        assert old not in replaced.rules


class TestDependencyStructure:
    def test_long_chain_needs_no_recursion(self):
        length = 5000
        chain = [
            Rule(
                Literal(f"p{i}", (var("X"),)),
                (Literal(f"p{i + 1}", (var("X"),)),),
            )
            for i in range(length)
        ]
        program = Program(chain)
        sccs = program.sccs_topological()
        assert len(sccs) == length + 1
        assert sccs[0] == {"p0"}
        assert sccs[-1] == {f"p{length}"}
        assert len(program.restrict_to_reachable(["p0"])) == length
        assert len(program.sccs_topological(roots=["p4000"])) == 1001
        back = Rule(
            Literal(f"p{length}", (var("X"),)), (Literal("p0", (var("X"),)),)
        )
        cycle = Program([*chain, back])
        assert cycle.sccs_topological() == [
            frozenset(f"p{i}" for i in range(length + 1))
        ]
        assert cycle.recursive_with("p0", f"p{length}")

    def test_sccs_topological_orders_generated_programs(self):
        for seed in range(200):
            program = generate_case(seed).program
            sccs = program.sccs_topological()
            position = {
                pred: index
                for index, scc in enumerate(sccs)
                for pred in scc
            }
            assert len(position) == len(program.predicates())
            for rule in program:
                for literal in rule.body:
                    assert position[rule.head.pred] <= position[literal.pred]


class TestMakeRule:
    def test_defaults(self):
        rule = make_rule(Literal("p", (var("X"),)))
        assert rule.is_fact
        assert rule.constraint == Conjunction.true()
