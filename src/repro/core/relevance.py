"""Constraint relevance made executable (Definitions 2.2, 2.5).

The paper's yardstick for a rewriting is *constraint relevance*: a fact
is constraint-relevant when it occurs in some derivation tree of a
query answer. This module reconstructs derivation ancestry from the
engine's provenance-carrying derivation logs (an evaluation with
``provenance=True``; a ``ValueError`` otherwise) and measures, for a
concrete ``(program, query, EDB)`` triple, which computed facts
actually support an answer.

This turns the paper's definitional property into a measurement: the
*relevance ratio* of an evaluation is the fraction of computed IDB
facts that occur in some answer's derivation tree. A completely
optimized program (Section 3) would score 1.0 on every EDB whose
irrelevant facts are constraint-irrelevant; the unoptimized flights
program scores well below 1.0 on workloads with slow-and-expensive
legs, and the ``Constraint_rewrite`` output scores (near) 1.0 -- see
``tests/paper/test_relevance.py``.

Caveat from the definition itself: relevance quantifies over *all* EDBs
and query patterns, so a fact irrelevant on one concrete EDB may still
be constraint-relevant; a measured ratio below 1.0 on a rewritten
program is therefore not by itself a bug, but ratios should move
toward 1.0 under the rewriting -- which is exactly what the tests
assert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.engine.facts import Fact
from repro.engine.fixpoint import EvaluationResult
from repro.engine.relation import InsertOutcome
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.lang.ast import Query
from repro.lang.normalize import normalize_rule, query_as_rule


@dataclass
class RelevanceReport:
    """Which computed facts support a query answer."""

    relevant: set[Fact]
    computed: set[Fact]
    edb_facts: set[Fact]

    @property
    def irrelevant(self) -> set[Fact]:
        """Computed facts supporting no answer."""
        return self.computed - self.relevant

    @property
    def ratio(self) -> float:
        """Fraction of computed (non-EDB) facts supporting an answer."""
        if not self.computed:
            return 1.0
        return len(self.relevant & self.computed) / len(self.computed)

    def irrelevant_by_pred(self) -> dict[str, int]:
        """Irrelevant-fact counts keyed by predicate."""
        counts: dict[str, int] = {}
        for fact in self.irrelevant:
            counts[fact.pred] = counts.get(fact.pred, 0) + 1
        return counts


def _parent_map(result: EvaluationResult) -> dict[Fact, tuple[Fact, ...]]:
    """First-derivation parents of every NEW fact.

    The first derivation of a fact suffices for ancestry: any fact with
    at least one derivation tree rooted in stored facts is witnessed by
    the earliest one.
    """
    parents: dict[Fact, tuple[Fact, ...]] = {}
    for log in result.derivation_logs("relevance_report"):
        for derivation in log.derivations:
            if derivation.outcome is InsertOutcome.NEW:
                parents.setdefault(derivation.fact, derivation.parents)
    return parents


def _answer_supports(
    result: EvaluationResult, query: Query
) -> list[tuple[Fact, ...]]:
    """The fact tuples used by each query-answer derivation."""
    rule = normalize_rule(query_as_rule(query, "_answer"))
    evaluator = RuleEvaluator(rule)
    view = database_view(result.database)
    return [
        parents for __, parents in evaluator.derive_with_parents(view)
    ]


def relevance_report(
    result: EvaluationResult, query: Query
) -> RelevanceReport:
    """Trace answer derivations back to the facts that support them."""
    parent_map = _parent_map(result)
    edb_facts = {
        fact for fact in result.database.all_facts()
        if fact not in parent_map
    }
    computed = set(parent_map)
    roots: set[Fact] = set()
    for support in _answer_supports(result, query):
        roots.update(support)
    relevant: set[Fact] = set()
    queue = deque(roots)
    while queue:
        fact = queue.popleft()
        if fact in relevant:
            continue
        relevant.add(fact)
        for parent in parent_map.get(fact, ()):
            if parent not in relevant:
                queue.append(parent)
    return RelevanceReport(
        relevant=relevant, computed=computed, edb_facts=edb_facts
    )


def relevance_ratio(result: EvaluationResult, query: Query) -> float:
    """Shorthand for ``relevance_report(...).ratio``."""
    return relevance_report(result, query).ratio
