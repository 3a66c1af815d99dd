"""Databases: named collections of relations (Section 2).

A :class:`Database` maps predicate names to :class:`~repro.engine.relation.Relation`
stores.  It is used both for the input EDB and for the engine's working
set during fixpoint evaluation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.constraints.conjunction import Conjunction
from repro.engine.facts import Fact, make_fact
from repro.engine.relation import InsertOutcome, Relation


class Database:
    """A mutable collection of relations keyed by predicate name."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_ground(
        tuples: Mapping[str, Iterable[tuple]],
    ) -> "Database":
        """Build a database of ground facts from plain Python tuples."""
        database = Database()
        for pred, rows in tuples.items():
            for row in rows:
                database.add_ground(pred, row)
        return database

    def copy(self) -> "Database":
        """An independent copy."""
        clone = Database()
        clone._relations = {
            pred: relation.copy()
            for pred, relation in self._relations.items()
        }
        return clone

    # -- modification ------------------------------------------------------

    def relation(self, pred: str, arity: int) -> Relation:
        """The (created-on-demand) relation for a predicate."""
        relation = self._relations.get(pred)
        if relation is None:
            relation = Relation(pred, arity)
            self._relations[pred] = relation
        elif relation.arity != arity:
            raise ValueError(
                f"relation {pred} has arity {relation.arity}, not {arity}"
            )
        return relation

    def insert(self, fact: Fact, stamp: int = 0) -> InsertOutcome:
        """Insert a fact; returns the insertion outcome."""
        return self.relation(fact.pred, fact.arity).insert(fact, stamp)

    def insert_many(
        self, facts: Iterable[Fact], stamp: int = 0
    ) -> list[Fact]:
        """Insert facts; returns those that were actually new."""
        added = []
        for fact in facts:
            if self.insert(fact, stamp) is InsertOutcome.NEW:
                added.append(fact)
        return added

    def add_ground(self, pred: str, values: Iterable[object]) -> None:
        """Insert a ground fact built from plain Python values."""
        self.insert(Fact.ground(pred, values))

    def add_constraint_fact(
        self,
        pred: str,
        values: Iterable[object],
        constraint: Conjunction = Conjunction.true(),
    ) -> None:
        """Add a (possibly) constraint fact; ``None`` values are pending."""
        fact = make_fact(pred, list(values), constraint)
        if fact is not None:
            self.insert(fact)

    # -- inspection ---------------------------------------------------------

    def get(self, pred: str) -> Relation | None:
        """The relation for a predicate, or None."""
        return self._relations.get(pred)

    def stamp_count(self, pred: str, stamp: int) -> int:
        """How many facts of the predicate carry the stamp.  O(1)."""
        relation = self._relations.get(pred)
        return relation.stamp_count(stamp) if relation is not None else 0

    def predicates(self) -> frozenset[str]:
        """The predicate names present."""
        return frozenset(self._relations)

    def facts(self, pred: str) -> tuple[Fact, ...]:
        """The stored facts of a predicate."""
        relation = self._relations.get(pred)
        return relation.facts if relation is not None else ()

    def all_facts(self) -> Iterator[Fact]:
        """Iterate over every stored fact."""
        for relation in self._relations.values():
            yield from relation

    def count(self, pred: str | None = None) -> int:
        """Number of stored facts (of one predicate, or all)."""
        if pred is not None:
            relation = self._relations.get(pred)
            return len(relation) if relation is not None else 0
        return sum(len(relation) for relation in self._relations.values())

    def __contains__(self, fact: Fact) -> bool:
        relation = self._relations.get(fact.pred)
        return relation is not None and fact in relation

    def __str__(self) -> str:
        lines = []
        for pred in sorted(self._relations):
            lines.append(f"{pred}: {self._relations[pred]}")
        return "\n".join(lines)
