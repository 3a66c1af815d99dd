"""The inserting generated join stores a ground head as ``insert`` would.

While the head relation holds no non-ground fact, a variant's inserting
generated join stores each ground head itself: into ``stamps``, its
stamp group and every hash index built so far -- one a probe of the
same join may have built a moment before.  After a non-ground insert
it calls ``Relation.insert`` again.  So every run here is checked
against a *shadow* run that hands each rule application a head relation
reporting a non-ground fact, which sends every head through
``Relation.insert``.  Both must leave every relation identical -- the
``stamps`` order, the stamp groups, every built index bucket in order,
the PENDING lists and ``nonground`` -- with the same
:class:`~repro.engine.stats.EvalStats`, completeness and per-iteration
``added``, in both join tiers (``_HOT`` 0 and ``10**9``).
"""

from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine import Database, evaluate, ruleeval
from repro.engine.facts import PENDING, make_fact
from repro.engine.relation import Relation
from repro.engine.ruleeval import RuleEvaluator
from repro.governor import Budget
from repro.lang.parser import parse_program
from repro.workloads.flights import flight_network, flights_program
from tests.property.test_prop_seminaive import (
    MAX_ITERATIONS,
    _recursive_case,
    picks,
    seeds,
)

#: ``_HOT`` for each tier: generated from the first call, or never.
TIERS = pytest.mark.parametrize(
    "hot", [0, 10**9], ids=["generated", "interpreted"]
)


class _ThroughInsert:
    """A head relation that reports a non-ground fact, so a join hands
    every head to ``Relation.insert``; all else is the relation's."""

    nonground = 1

    def __init__(self, relation: Relation) -> None:
        self._relation = relation

    def __getattr__(self, name: str):
        return getattr(self._relation, name)


def _relation(relation: Relation) -> tuple:
    return (
        list(relation.stamps.items()),
        [(stamp, list(group)) for stamp, group in relation.groups.items()],
        [
            None if index is None
            else [(value, list(bucket)) for value, bucket in index.items()]
            for index in relation._fixed
        ],
        [list(facts) for facts in relation._pending],
        relation.nonground,
    )


def _run(program, edb, hot, shadow, budget=None, **options):
    """One evaluation's observation and its ``Relation.insert`` calls."""
    calls = Counter()
    insert, apply = Relation.insert, RuleEvaluator.apply

    def counted(self, *args, **kwargs):
        calls[self.pred] += 1
        return insert(self, *args, **kwargs)

    def through_insert(self, view, first, store, *rest):
        return apply(self, view, first, _ThroughInsert(store), *rest)

    with patch.object(ruleeval, "_HOT", hot), (
        patch.object(Relation, "insert", counted)
    ), patch.object(
        RuleEvaluator, "apply", through_insert if shadow else apply
    ):
        result = evaluate(
            program, edb, budget=None if budget is None else budget.meter(),
            **options,
        )
    database = result.database
    observed = (
        [
            (pred, _relation(database.get(pred)))
            for pred in sorted(database.predicates())
        ],
        result.stats.as_dict(),
        result.completeness,
        [(log.number, log.added) for log in result.iterations],
    )
    return observed, calls


def _parity(program, edb, hot, budget=None, **options):
    """The run's observation, equal to its shadow's; with the insert
    calls of each."""
    observed, calls = _run(program, edb, hot, False, budget, **options)
    shadowed, shadow_calls = _run(program, edb, hot, True, budget, **options)
    assert observed == shadowed
    return observed, calls, shadow_calls


def _flights() -> Database:
    return flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    ).database


@TIERS
def test_flights_index_built_mid_join(hot):
    # The recursive rule's second literal probes ``flight`` by its
    # source: that probe builds ``flight``'s index(0) inside the join
    # that then stores the rule's heads into ``flight``.
    observed, calls, shadow_calls = _parity(
        flights_program(), _flights(), hot, max_iterations=60
    )
    relations, stats = dict(observed[0]), observed[1]
    assert relations["flight"][2][0] is not None
    assert stats["duplicates"] > 0
    assert shadow_calls["flight"] == stats["derivations_by_rule"]["r3"] + (
        stats["derivations_by_rule"]["r4"]
    )
    # The generated tier stores every flights head itself.
    assert calls["flight"] == (0 if hot == 0 else shadow_calls["flight"])


@TIERS
def test_a_general_arm_insert_mid_join(hot):
    # The second candidate is PENDING: the general arm stores a
    # non-ground head, which then subsumes the third candidate's ground
    # head -- a test only ``Relation.insert`` makes.
    edb = Database.from_ground({"q": [(0, 9)]})
    place = LinearExpr.var("$2")
    edb.insert(make_fact("q", [1, PENDING], Conjunction([
        Atom.ge(place, LinearExpr.const(0)),
        Atom.le(place, LinearExpr.const(5)),
    ])))
    edb.add_ground("q", (2, 3))
    edb.add_ground("q", (3, 7))
    observed, calls, __ = _parity(
        parse_program("p(Y) :- q(X, Y)."), edb, hot
    )
    stats = observed[1]
    assert (stats["new_facts"], stats["subsumed"]) == (3, 1)
    assert dict(observed[0])["p"][4] == 1
    # Two ground heads after the non-ground one went through ``insert``.
    assert calls["p"] == (3 if hot == 0 else 4)


@TIERS
def test_a_facts_budget_trips_inside_the_join(hot):
    first = evaluate(flights_program(), _flights(), max_iterations=1)
    budget = Budget(max_facts=first.stats.new_facts + 25)
    observed, __, __ = _parity(
        flights_program(), _flights(), hot, budget, max_iterations=60
    )
    stats, completeness, added = observed[1:]
    assert completeness == "truncated:facts"
    assert stats["new_facts"] == budget.max_facts + 1
    assert len(added) > 1 and added[-1][1]


@TIERS
def test_duplicate_heads_within_one_join(hot):
    edb = Database.from_ground({"e": [(1, 2), (1, 3), (2, 2), (2, 3)]})
    program = parse_program("r(X) :- e(X, Y).\ns(Y) :- r(X), e(X, Y).")
    observed, __, __ = _parity(program, edb, hot)
    stats = observed[1]
    assert stats["facts_by_pred"] == {"r": 2, "s": 2}
    assert stats["duplicates"] == 4


@given(seeds, picks)
@settings(max_examples=25, deadline=None)
def test_generated_programs_over_mixed_edbs(seed, picks):
    rules, edb, __ = _recursive_case(seed, picks)
    for hot in (0, 10**9):
        _parity(rules, edb, hot, max_iterations=MAX_ITERATIONS)
