"""Unit tests for derivation-tree reconstruction (Definition 2.2)."""

import pytest

from repro.engine import Database, evaluate
from repro.engine.facts import Fact
from repro.engine.provenance import (
    DerivationTree,
    derivation_tree,
    explain,
    first_derivations,
)
from repro.lang.parser import parse_program


@pytest.fixture
def tc_result():
    program = parse_program(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        """
    ).relabeled()
    edb = Database.from_ground({"edge": [(1, 2), (2, 3), (3, 4)]})
    return evaluate(program, edb, provenance=True)


class TestTrees:
    def test_edb_fact_is_leaf(self, tc_result):
        tree = derivation_tree(tc_result, Fact.ground("edge", (1, 2)))
        assert tree is not None
        assert tree.is_leaf
        assert tree.size() == 1

    def test_base_case_tree(self, tc_result):
        tree = derivation_tree(tc_result, Fact.ground("tc", (1, 2)))
        assert tree.rule_label == "r1"
        (child,) = tree.children
        assert child.fact == Fact.ground("edge", (1, 2))

    def test_recursive_tree_structure(self, tc_result):
        tree = derivation_tree(tc_result, Fact.ground("tc", (1, 4)))
        assert tree.rule_label == "r2"
        # edge(1,2) and tc(2,4), the latter with its own subtree.
        preds = [child.fact.pred for child in tree.children]
        assert preds == ["edge", "tc"]
        assert tree.depth() == 4  # tc(1,4) -> tc(2,4) -> tc(3,4) -> edge
        assert tree.size() == 6

    def test_facts_collects_whole_support(self, tc_result):
        tree = derivation_tree(tc_result, Fact.ground("tc", (1, 4)))
        support = {str(fact) for fact in tree.facts()}
        assert "edge(1, 2)" in support
        assert "edge(3, 4)" in support
        assert "tc(2, 4)" in support

    def test_missing_fact_returns_none(self, tc_result):
        assert derivation_tree(tc_result, Fact.ground("tc", (4, 1))) is None

    def test_render_is_indented(self, tc_result):
        tree = derivation_tree(tc_result, Fact.ground("tc", (1, 3)))
        text = tree.render()
        lines = text.splitlines()
        assert lines[0].startswith("tc(1, 3)")
        assert any(line.startswith("  ") for line in lines)

    def test_explain_missing(self, tc_result):
        assert "was not derived" in explain(
            tc_result, Fact.ground("tc", (9, 9))
        )


class TestFirstDerivations:
    def test_every_idb_fact_recorded(self, tc_result):
        recorded = first_derivations(tc_result)
        for fact in tc_result.facts("tc"):
            assert fact in recorded

    def test_parents_precede_children(self, tc_result):
        recorded = first_derivations(tc_result)
        relation = tc_result.database.get("tc")
        for fact, (__, parents) in recorded.items():
            if fact.pred != "tc":
                continue
            for parent in parents:
                if parent.pred == "tc":
                    assert relation.stamp(parent) < relation.stamp(fact)

    def test_constraint_fact_trees(self):
        from repro.workloads.fib import fib_magic_program

        result = evaluate(
            fib_magic_program(5, optimized=True).program,
            max_iterations=30, provenance=True,
        )
        answer = next(
            fact
            for fact in result.facts("fib")
            if fact.args == (4, 5)
        )
        tree = derivation_tree(result, answer)
        assert tree is not None
        # The answer's tree is rooted in the magic seed.
        seeds = [
            node
            for node in tree.facts()
            if node.pred == "m_fib" and not node.is_ground()
        ]
        assert seeds
