"""Int-first fact values, end to end, and the bytes that must not move.

Every numeric argument of a stored fact is a plain ``int`` when it is
integral and a ``Fraction`` only when it is not; no argument is a
``bool``.  That is what lets a relation hash and compare arguments in
C, and it must hold for whatever path produced the fact: the ground
head a rule plan assembles (``_finish_ground``, including an equality
it solved), a value the solver forces (``make_fact``'s freeze), a fact
decoded from disk or the wire, an EDB fact loaded as text, a
``resume`` -- on the conformance generator's programs, ``P_fib``,
Examples 4.1 and 5.1 and the flights program, under ``none``,
``rewrite`` and ``optimal``.

The representation is invisible outside the process: a shard key and a
codec entry spell ``3`` and ``Fraction(3)`` alike, and a snapshot
directory written before the change (``tests/golden/snap-v3``,
``repro-snap/v3``) recovers to equal facts.
"""

from __future__ import annotations

import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from repro.codec import SCHEMA, decode_fact, encode_fact
from repro.conformance import generate_case
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.driver import answer_query, compile_query, split_edb
from repro.engine import Database, evaluate
from repro.engine.facts import Fact, make_fact
from repro.engine.fixpoint import resume
from repro.lang.parser import parse_program, parse_query
from repro.lang.terms import Sym
from repro.obs import Tracer, recording
from repro.serve.snapshot import Snapshotter, program_sha
from repro.service.engine import Engine
from repro.shard.partition import _key_bytes
from repro.workloads.fib import fib_program, fib_query
from repro.workloads.flights import flight_network, flights_program

STRATEGIES = ("none", "rewrite", "optimal")

SNAPSHOT_V3 = Path(__file__).parent.parent / "golden" / "snap-v3"


def noncanonical(facts) -> list:
    """Arguments breaking the invariant: integral Fractions and bools."""
    return [
        (str(fact), value)
        for fact in facts
        for value in fact.args
        if type(value) is bool
        or (isinstance(value, Fraction) and value.denominator == 1)
    ]


def evaluate_then_resume(program, query, edb, strategy, iterations):
    """The compiled program evaluated on half the EDB, then resumed
    with the other half; both databases are returned."""
    compiled, *__ = compile_query(program, query, strategy)
    facts = list(edb.all_facts())
    early = Database()
    early.insert_many(facts[: len(facts) // 2])
    cold = evaluate(compiled, early, max_iterations=iterations)
    snapshot = list(cold.database.all_facts())
    warm = resume(
        compiled, cold.database, facts[len(facts) // 2:],
        start_stamp=cold.stats.iterations, max_iterations=iterations,
    )
    return snapshot, list(warm.database.all_facts())


def _flights():
    network = flight_network(
        n_layers=3, width=3, expensive_fraction=0.4, seed=7
    )
    query = parse_query(f"?- cheaporshort({network.source}, D, T, C).")
    return flights_program(), query, network.database


def _fib():
    return fib_program(), fib_query(5), Database()


def _example(rules: str, query: str, edb: dict):
    return (
        parse_program(rules).relabeled(), parse_query(query),
        Database.from_ground(edb),
    )


PROGRAMS = {
    "flights": _flights,
    "fib": _fib,
    "example-4.1": lambda: _example(
        """
        q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
        p1(X, Y) :- b1(X, Y).
        p2(X) :- b2(X).
        """,
        "?- q(X).",
        {"b1": [(2, 4), (3, 3), (5, 1)], "b2": [(4,), (3,), (1,), (9,)]},
    ),
    "example-5.1": lambda: _example(
        """
        q(X, Y) :- a(X, Y), X <= 10, Y <= X.
        a(X, Y) :- p(X, Y), Y <= X.
        a(X, Y) :- a(X, Z), Z <= X, a(Z, Y), Y <= Z.
        """,
        "?- q(X, Y).",
        {"p": [(5, 3), (9, 9), (3, 1), (20, 2), (8, 11), (10, 4)]},
    ),
}


class TestStoredValuesAreIntFirst:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_paper_programs(self, name, strategy):
        program, query, edb = PROGRAMS[name]()
        cold, warm = evaluate_then_resume(
            program, query, edb, strategy, iterations=12
        )
        assert warm
        assert noncanonical(cold) == []
        assert noncanonical(warm) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_generated_programs(self, strategy):
        for seed in range(100):
            case = generate_case(seed)
            rules, edb = split_edb(case.program)
            cold, warm = evaluate_then_resume(
                rules, case.query, edb, strategy, iterations=8
            )
            assert noncanonical(cold) == [], seed
            assert noncanonical(warm) == [], seed

    def test_a_solved_head_slot_with_a_divisor(self):
        # 2*X = Y and X = Y + Z are solved by the ground rule plan; the
        # halves of even numbers and the sum 1/2 + 1/2 come out as ints.
        result = evaluate(parse_program(
            """
            half(X) :- q(Y), 2*X = Y.
            sum(X) :- q(Y), q(Z), X = Y + Z.
            q(4). q(3). q(1/2).
            """
        ))
        assert noncanonical(result.database.all_facts()) == []
        halves = {fact.args[0] for fact in result.facts("half")}
        assert halves == {2, Fraction(3, 2), Fraction(1, 4)}
        assert type(next(iter(halves & {2}))) is int
        assert 1 in {fact.args[0] for fact in result.facts("sum")}

    def test_a_value_the_solver_forces(self):
        # The constraint fact s($1; $1 >= 0) joined with bounds that pin
        # X: make_fact freezes the forced value, int if integral.
        result = evaluate(parse_program(
            """
            s(X) :- X >= 0.
            two(X) :- s(X), X >= 2, X <= 2.
            half(X) :- s(X), 2*X >= 5, 2*X <= 5.
            """
        ))
        assert [fact.args for fact in result.facts("two")] == [(2,)]
        assert type(result.facts("two")[0].args[0]) is int
        assert [fact.args for fact in result.facts("half")] == [
            (Fraction(5, 2),)
        ]
        forced = make_fact("p", [None], Conjunction([Atom.eq(
            LinearExpr.var("$1", 2), LinearExpr.const(6)
        )]))
        assert forced.args == (3,) and type(forced.args[0]) is int

    def test_the_flights_program_never_tests_subsumption(self):
        program, query, edb = _flights()
        with recording(Tracer()) as tracer:
            answer_query(program, query, edb, strategy="none")
        assert tracer.metrics.counters["relation.inserts"] > 0
        assert tracer.metrics.counters["constraint.subsumption_tests"] == 0


class TestWireAndDiskStayPut:
    def test_shard_keys_do_not_change_owner(self):
        assert _key_bytes(3) == _key_bytes(Fraction(3)) == b"n:3/1"
        assert _key_bytes(Fraction(7, 2)) == b"n:7/2"

    @pytest.mark.parametrize("value", [3, Fraction(3), -2, Fraction(7, 2)])
    def test_codec_round_trip_is_int_first(self, value):
        fact = Fact("p", (Sym("a"), value), Conjunction.true())
        entry = encode_fact(fact)
        assert entry == encode_fact(Fact.ground("p", ["a", value]))
        rebuilt = decode_fact(entry)
        assert rebuilt == fact
        assert noncanonical([rebuilt]) == []
        assert type(rebuilt.args[1]) is (
            int if value == int(value) else Fraction
        )

    def test_a_v3_snapshot_recovers_to_equal_facts(self, tmp_path):
        assert SCHEMA == "repro-snap/v3"
        directory = tmp_path / "snap"
        shutil.copytree(SNAPSHOT_V3, directory)
        program = (directory / "program.cql").read_text()
        engine = Engine.from_text(program)
        summary = Snapshotter(str(directory), program_sha(program)).recover(
            engine.session
        )
        assert not summary["corrupt"]
        assert (summary["snapshot_epoch"], summary["epoch"]) == (2, 3)
        # The recovered EDB: the program's own fact plus the five
        # loaded ones (a checkpoint holds only the latter).
        facts = list(engine.session.edb.all_facts())
        pending = make_fact("edge", ["d", None, 3], Conjunction([
            Atom.le(LinearExpr.const(1), LinearExpr.var("$2"))
        ]))
        assert set(facts) == {
            Fact.ground("edge", ["a", "b", 3]),
            Fact.ground("edge", ["b", "c", Fraction(7, 2)]),
            Fact.ground("edge", ["c", "d", 4]),
            pending,
            Fact.ground("edge", ["d", "e", 1]),
            Fact.ground("edge", ["e", "f", Fraction(9, 4)]),
        }
        assert noncanonical(facts) == []
