"""Provenance only observes: a run with it does the work of one without.

Without ``provenance`` no :class:`~repro.engine.fixpoint.Derivation` is
built, and a variant past ``ruleeval._HOT`` inserts what it derives
from its own generated join (the *inserting* form); with it, the
variant's generated join yields each derivation with its parents and
the fixpoint logs it.  Neither may change what is derived.  So on
``conformance.generator`` programs that derive past their first
iteration and whose EDB also holds constraint facts with PENDING
positions, on flights (as written and rewritten)
and on P_fib (Table 1's non-terminating magic program and Table 2's
terminating one), each evaluated in both join tiers (``_HOT`` 0 and
``10**9``) with and without provenance, all four runs must end in the
same database -- the same facts, stamps and insertion order -- with the
same :class:`~repro.engine.stats.EvalStats` (probes included),
completeness and per-iteration ``added``.  The same holds when a
``facts`` budget trips inside a generated join.

The log's readers refuse a run without provenance rather than read its
empty log as "nothing derived", and ``--derivations`` prints the table
it printed when every run kept the log.
"""

import hashlib
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from repro.__main__ import main
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.core.relevance import relevance_report
from repro.core.rewrite import constraint_rewrite
from repro.engine import Database, evaluate, ruleeval
from repro.engine.facts import PENDING, make_fact
from repro.engine.provenance import derivation_tree, explain, first_derivations
from repro.engine.report import render_derivation_table
from repro.governor import Budget
from repro.lang.parser import parse_program, parse_query
from repro.workloads.fib import fib_magic_program
from repro.workloads.flights import flight_network, flights_program
from tests.property.test_prop_seminaive import (
    MAX_ITERATIONS,
    _recursive_case,
    picks,
    seeds,
)

#: ``_HOT`` for each tier: generated from the first call, or never.
TIERS = (0, 10**9)


def _observed(result) -> tuple:
    """Everything a run leaves but its derivation log."""
    database = result.database
    return (
        [
            (pred, list(database.get(pred).stamps.items()))
            for pred in sorted(database.predicates())
        ],
        result.stats.as_dict(),
        result.completeness,
        result.reached_fixpoint,
        [(log.number, log.added) for log in result.iterations],
    )


def _runs(program, edb, budget=None, **options):
    """The observation of each (tier, provenance) run; every one must
    be the same.  A run with provenance must log each derivation."""
    observed = []
    for hot in TIERS:
        for provenance in (False, True):
            meter = None if budget is None else budget.meter()
            with patch.object(ruleeval, "_HOT", hot):
                result = evaluate(
                    program, edb, budget=meter, provenance=provenance,
                    **options,
                )
            logged = sum(len(log.derivations) for log in result.iterations)
            assert logged == (result.stats.derivations if provenance else 0)
            observed.append(_observed(result))
    assert all(each == observed[0] for each in observed[1:])
    return observed[0]


@given(seeds, picks)
@settings(max_examples=40, deadline=None)
def test_generated_programs_over_mixed_edbs(seed, picks):
    rules, edb, __ = _recursive_case(seed, picks)
    _runs(rules, edb, max_iterations=MAX_ITERATIONS)


def _flights_edb() -> Database:
    """A flight network plus a leg whose time is only bounded."""
    edb = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    ).database.copy()
    leg = next(iter(edb.facts("singleleg")))
    time = LinearExpr.var("$3")
    edb.insert(make_fact(
        "singleleg", [*leg.args[:2], PENDING, leg.args[3]],
        Conjunction([Atom.ge(time, LinearExpr.const(40)),
                     Atom.le(time, LinearExpr.const(60))]),
    ))
    return edb


@pytest.mark.parametrize("rewritten", [False, True],
                         ids=["as-written", "rewritten"])
def test_flights(rewritten):
    program = flights_program()
    if rewritten:
        program = constraint_rewrite(program, "cheaporshort").program
    database = _runs(program, _flights_edb(), max_iterations=60)[0]
    assert any(
        PENDING in fact.args
        for pred, facts in database if pred != "singleleg"
        for fact, __ in facts
    )


@pytest.mark.parametrize("optimized,iterations", [(False, 9), (True, 30)],
                         ids=["table1", "table2"])
def test_fib(optimized, iterations):
    program = fib_magic_program(5, optimized=optimized).program
    completeness = _runs(program, None, max_iterations=iterations)[2]
    assert completeness == (
        "complete" if optimized else "truncated:iterations"
    )


def test_a_facts_budget_trips_inside_a_generated_join():
    edb = flight_network(
        n_layers=4, width=3, expensive_fraction=0.4, seed=42
    ).database
    first = evaluate(flights_program(), edb, max_iterations=1)
    budget = Budget(max_facts=first.stats.new_facts + 25)
    __, stats, completeness, __, added = _runs(
        flights_program(), edb, budget, max_iterations=60
    )
    assert completeness == "truncated:facts"
    # The trip came from a join past the first iteration, mid-way: its
    # fact went in and counted, the join made no further derivation.
    assert stats["new_facts"] == budget.max_facts + 1
    assert len(added) > 1 and added[-1][1]


class TestReadersNeedProvenance:
    @pytest.fixture(scope="class")
    def result(self):
        edb = Database.from_ground({"edge": [(1, 2), (2, 3)]})
        return evaluate(
            parse_program("tc(X, Y) :- edge(X, Y).\n"
                          "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"),
            edb,
        )

    @pytest.mark.parametrize("read", [
        lambda result: result.trace(),
        render_derivation_table,
        first_derivations,
        lambda result: derivation_tree(result, result.facts("tc")[0]),
        lambda result: explain(result, result.facts("tc")[0]),
        lambda result: relevance_report(result, parse_query("?- tc(X, Y).")),
    ], ids=["trace", "render_derivation_table", "first_derivations",
            "derivation_tree", "explain", "relevance_report"])
    def test_reader_raises(self, result, read):
        assert result.count("tc") == 3 and not result.provenance
        with pytest.raises(ValueError, match=r"provenance=True"):
            read(result)


FLIGHTS = """
cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                Cost > 0, Time > 0.
flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                      T = T1 + T2 + 30, C = C1 + C2.
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 150, 40).
singleleg(madison, denver, 300, 400).
singleleg(denver, seattle, 120, 60).
?- cheaporshort(madison, seattle, T, C).
"""

#: sha256 (first 16 hex digits) of ``--derivations`` stdout on
#: ``FLIGHTS``, pinned when every evaluation logged its derivations.
DERIVATION_TABLES = {
    "none": "e9a9dd659c21a2d8",
    "rewrite": "3aab97ebf98f84c8",
    "magic": "ddaeab0c33ad74d4",
    "optimal": "83092b8878d6ceb2",
}


@pytest.mark.parametrize("strategy", sorted(DERIVATION_TABLES))
def test_derivations_flag_prints_the_pinned_table(
    strategy, tmp_path, capsys
):
    path = tmp_path / "flights.cql"
    path.write_text(FLIGHTS.lstrip())
    assert main([str(path), "--derivations", "--strategy", strategy]) == 0
    printed = capsys.readouterr().out
    assert "iteration 0: {" in printed
    digest = hashlib.sha256(printed.encode()).hexdigest()[:16]
    assert digest == DERIVATION_TABLES[strategy]
