"""Counters describing a bottom-up evaluation run.

The paper compares rewritten programs by "the number of facts computed"
and "the set of derivations made" (Theorems 4.4, 4.6, 7.2, ...); these
are exactly the counters collected here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.engine.relation import InsertOutcome


@dataclass
class EvalStats:
    """Aggregate counters of one evaluation."""

    derivations: int = 0
    new_facts: int = 0
    duplicates: int = 0
    subsumed: int = 0
    iterations: int = 0
    probes: int = 0
    swept: int = 0
    facts_by_pred: Counter = field(default_factory=Counter)
    derivations_by_rule: Counter = field(default_factory=Counter)

    def record(
        self, rule_label: str | None, pred: str, outcome: InsertOutcome
    ) -> None:
        """Count one derivation with its insertion outcome.

        ``outcome`` must be an :class:`InsertOutcome`; passing the
        stringly form would silently miscount typos as "subsumed", so
        it is rejected.
        """
        if not isinstance(outcome, InsertOutcome):
            raise TypeError(
                f"outcome must be an InsertOutcome, got {outcome!r}"
            )
        self.record_many(
            rule_label, pred,
            new=int(outcome is InsertOutcome.NEW),
            duplicates=int(outcome is InsertOutcome.DUPLICATE),
            subsumed=int(outcome is InsertOutcome.SUBSUMED),
        )

    def record_many(
        self,
        rule_label: str | None,
        pred: str,
        new: int,
        duplicates: int,
        subsumed: int,
    ) -> None:
        """Count the derivations of one rule application at once.

        ``pred`` is the rule's head predicate.  A rule or predicate
        gets a per-key entry only once it has a derivation or a new
        fact, as when counting derivation by derivation.
        """
        derivations = new + duplicates + subsumed
        if not derivations:
            return
        self.derivations += derivations
        self.derivations_by_rule[rule_label or "?"] += derivations
        if new:
            self.new_facts += new
            self.facts_by_pred[pred] += new
        self.duplicates += duplicates
        self.subsumed += subsumed

    def as_dict(self) -> dict:
        """A plain-data copy (for run reports and benchmarks)."""
        return {
            "derivations": self.derivations,
            "new_facts": self.new_facts,
            "duplicates": self.duplicates,
            "subsumed": self.subsumed,
            "iterations": self.iterations,
            "probes": self.probes,
            "swept": self.swept,
            "facts_by_pred": dict(self.facts_by_pred),
            "derivations_by_rule": dict(self.derivations_by_rule),
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.new_facts} facts in {self.iterations} iterations "
            f"({self.derivations} derivations, "
            f"{self.duplicates} duplicates, {self.subsumed} subsumed)"
        )
