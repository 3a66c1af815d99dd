"""Derivation trees (Definition 2.2), reconstructed from provenance.

In a run with ``provenance=True``, every NEW fact's first derivation
records the rule and the body facts used; chasing those parents bottoms
out at EDB facts, yielding the derivation tree of Definition 2.2
("constraints in rules are viewed as conditions ... constraints are not
themselves part of a tree").  The first-derivation graph is acyclic
because a derivation at iteration ``k`` only consumes facts stamped
``< k``.  Every function here raises ``ValueError`` on a result
evaluated without provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.facts import Fact
from repro.engine.fixpoint import EvaluationResult
from repro.engine.relation import InsertOutcome


@dataclass(frozen=True)
class DerivationTree:
    """A derivation tree rooted at ``fact`` (Definition 2.2).

    ``rule_label`` is ``None`` for leaves (EDB facts).
    """

    fact: Fact
    rule_label: str | None
    children: tuple["DerivationTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        """Is this an EDB (underived) fact?"""
        return self.rule_label is None

    def size(self) -> int:
        """Number of nodes in the tree."""
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        """Length of the longest root-to-leaf path."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def facts(self) -> set[Fact]:
        """The stored facts of a predicate."""
        collected = {self.fact}
        for child in self.children:
            collected |= child.facts()
        return collected

    def render(self, indent: str = "") -> str:
        """Indented textual rendering of the tree."""
        label = f" [{self.rule_label}]" if self.rule_label else ""
        lines = [f"{indent}{self.fact}{label}"]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def first_derivations(
    result: EvaluationResult,
) -> dict[Fact, tuple[str | None, tuple[Fact, ...]]]:
    """The earliest (rule, parents) recorded for every derived fact."""
    recorded: dict[Fact, tuple[str | None, tuple[Fact, ...]]] = {}
    for log in result.derivation_logs("first_derivations"):
        for derivation in log.derivations:
            if derivation.outcome is InsertOutcome.NEW:
                recorded.setdefault(
                    derivation.fact,
                    (derivation.rule_label, derivation.parents),
                )
    return recorded


def derivation_tree(
    result: EvaluationResult, fact: Fact
) -> DerivationTree | None:
    """The first derivation tree of a fact stored by the evaluation.

    Returns ``None`` when the fact is not in the result's database.
    EDB facts yield single-node trees.
    """
    recorded = first_derivations(result)
    if fact not in result.database:
        return None

    def build(node: Fact) -> DerivationTree:
        """Recursively build the subtree of a fact."""
        entry = recorded.get(node)
        if entry is None:
            return DerivationTree(node, None)
        rule_label, parents = entry
        return DerivationTree(
            node, rule_label, tuple(build(parent) for parent in parents)
        )

    return build(fact)


def explain(result: EvaluationResult, fact: Fact) -> str:
    """A human-readable derivation of a fact, or why there is none."""
    tree = derivation_tree(result, fact)
    if tree is None:
        return f"{fact} was not derived"
    return tree.render()
