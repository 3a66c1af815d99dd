"""Answer extraction: matching a query against an evaluated database.

A query ``?- C, q(ā)`` is answered by the facts of ``q`` compatible
with the constants in ``ā`` and the constraint ``C``.  Implementation
reuses the rule evaluator: the query is turned into the single-rule
program ``_answer(X̄) :- C, q(ā)`` and applied once to the database.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.ruleeval import RuleEvaluator, database_view
from repro.governor import budget as governor
from repro.lang.ast import Query
from repro.lang.normalize import normalize_rule, query_as_rule
from repro.obs.recorder import span as obs_span


ANSWER_PRED = "_answer"


def answers(database: Database, query: Query) -> list[Fact]:
    """All answer facts for the query over the database.

    Each answer is a fact of the synthetic ``_answer`` predicate whose
    arguments are the query's variables in sorted name order.
    """
    rule = normalize_rule(query_as_rule(query, ANSWER_PRED))
    evaluator = RuleEvaluator(rule)
    view = database_view(database)
    results: list[Fact] = []
    seen: set[Fact] = set()
    for fact in evaluator.derive(view):
        if fact not in seen:
            seen.add(fact)
            results.append(fact)
    return results


def answers_as(
    database: Database, query: Query, query_pred: str
) -> list[Fact]:
    """The query's answers read off a *compiled* program's database.

    A rewriting may rename the query predicate (adornment: ``fib`` ->
    ``fib_fb``); the query is asked of ``query_pred`` instead.  Read-out
    renders state that already exists, so it runs with the request's
    budget meter paused: an already-blown budget must not veto the
    answers it paid for.
    """
    renamed = Query(query.literal.with_pred(query_pred), query.constraint)
    with governor.paused(), obs_span("answers"):
        return answers(database, renamed)


def has_answer(database: Database, query: Query) -> bool:
    """Does the query have at least one answer?"""
    return bool(answers(database, query))
