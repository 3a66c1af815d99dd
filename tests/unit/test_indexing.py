"""Unit tests for pushed range probes and their use in joins.

A range is a filter on the facts a probe reads, not an index: it
drops the facts outside it before the join binds them, and the
candidates keep insertion order.
"""

import sys
import threading
from fractions import Fraction

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine import Database, evaluate
from repro.engine.facts import Fact, make_fact
from repro.engine.relation import Range, Relation
from repro.lang.parser import parse_program
from repro.lang.terms import Sym


def pos(i):
    return LinearExpr.var(f"${i}")


class TestRange:
    def test_closed(self):
        probe = Range(Fraction(1), False, Fraction(3), False)
        assert probe.admits(Fraction(1))
        assert probe.admits(Fraction(3))
        assert not probe.admits(Fraction(4))

    def test_open(self):
        probe = Range(Fraction(1), True, Fraction(3), True)
        assert not probe.admits(Fraction(1))
        assert not probe.admits(Fraction(3))
        assert probe.admits(Fraction(2))

    def test_half_open(self):
        probe = Range(upper=Fraction(240))
        assert probe.admits(Fraction(-999))
        assert not probe.admits(Fraction(241))


class TestRelationRangeProbe:
    def build(self):
        relation = Relation("leg", 2)
        for value in (10, 20, 30, 40, 50):
            relation.insert(Fact.ground("leg", (value, value * 2)))
        return relation

    def test_range_restricts_scan(self):
        relation = self.build()
        probe = {0: Range(Fraction(15), False, Fraction(35), False)}
        found = list(relation.matching(ranges=probe))
        assert {fact.args[0] for fact in found} == {20, 30}

    def test_range_with_bound_position(self):
        relation = self.build()
        found = list(
            relation.matching(
                bound={1: Fraction(40)},
                ranges={0: Range(upper=Fraction(25))},
            )
        )
        assert [fact.args[0] for fact in found] == [Fraction(20)]

    def test_pending_facts_survive_range(self):
        relation = Relation("p", 1)
        wide = make_fact(
            "p",
            [None],
            Conjunction([Atom.gt(pos(1), LinearExpr.const(100))]),
        )
        relation.insert(wide)
        found = list(
            relation.matching(ranges={0: Range(upper=Fraction(5))})
        )
        # The pending fact may still cover values in the range; the
        # join's satisfiability check is responsible for rejecting it.
        assert found == [wide]

    def test_symbols_lie_in_no_range(self):
        relation = Relation("p", 1)
        relation.insert(Fact.ground("p", ("a",)))
        relation.insert(Fact.ground("p", (3,)))
        found = list(
            relation.matching(ranges={0: Range(upper=Fraction(5))})
        )
        # A symbol can never satisfy a numeric constraint.
        assert [fact.args[0] for fact in found] == [Fraction(3)]

    def test_candidates_keep_insertion_order(self):
        relation = Relation("leg", 2)
        for value in (50, 10, 40, 20, 30):
            relation.insert(Fact.ground("leg", (value, 0)))
        probe = {0: Range(Fraction(15), False, Fraction(45), True)}
        found = list(relation.matching(ranges=probe))
        assert [fact.args[0] for fact in found] == [40, 20, 30]


class TestEvaluatorPushdown:
    def test_results_identical_with_and_without(self):
        program = parse_program(
            """
            cheap(X, C) :- item(X, C), C <= 100.
            pricey(X, C) :- item(X, C), C > 1000.
            """
        )
        edb = Database.from_ground(
            {"item": [(i, i * 7) for i in range(1, 200)]}
        )
        with_index = evaluate(program, edb, use_range_index=True)
        without = evaluate(program, edb, use_range_index=False)
        for pred in ("cheap", "pricey"):
            assert set(with_index.facts(pred)) == set(
                without.facts(pred)
            )

    def test_probe_counts_drop(self):
        program = parse_program(
            "cheap(X, C) :- item(X, C), C <= 100."
        )
        edb = Database.from_ground(
            {"item": [(i, i * 7) for i in range(1, 200)]}
        )
        with_index = evaluate(program, edb, use_range_index=True)
        without = evaluate(program, edb, use_range_index=False)
        assert with_index.stats.probes < without.stats.probes
        # Selectivity 14/199: the probe count should reflect it.
        assert with_index.stats.probes <= 20

    def test_equality_constraint_becomes_point_probe(self):
        program = parse_program("hit(X) :- item(X, C), C = 70.")
        edb = Database.from_ground(
            {"item": [(i, i * 7) for i in range(1, 100)]}
        )
        result = evaluate(program, edb, use_range_index=True)
        assert result.count("hit") == 1
        assert result.stats.probes <= 2

    def test_bounds_from_multiple_atoms(self):
        program = parse_program(
            "mid(X) :- item(X, C), C >= 70, C <= 140."
        )
        edb = Database.from_ground(
            {"item": [(i, i * 7) for i in range(1, 100)]}
        )
        result = evaluate(program, edb, use_range_index=True)
        assert result.count("mid") == 11
        assert result.stats.probes <= 12


class TestIndexesOnRequest:
    def test_a_run_builds_only_the_indexes_its_plans_probe(self):
        program = parse_program(
            "cheap(X, C) :- item(X, C), C <= 100, tag(X)."
        )
        edb = Database.from_ground({
            "item": [(i, i * 7) for i in range(1, 50)],
            "tag": [(i,) for i in range(1, 50, 2)],
        })
        result = evaluate(program, edb, use_range_index=True)
        assert result.count("cheap") == 7
        # The range on item's cost builds nothing; the join probes
        # tag's one position, bound by X, through its hash index.
        item, tag = (result.database.get(pred) for pred in ("item", "tag"))
        assert item._fixed == [None, None]
        assert tag._fixed[0] is not None
        # The input database was copied, not probed: it has none.
        assert edb.get("tag")._fixed == [None]
        # A copy carries the built index, not the same dict.
        clone = result.database.copy().get("tag")
        assert clone._fixed == tag._fixed
        assert clone._fixed[0] is not tag._fixed[0]

    def test_racing_readers_build_the_same_indexes(self):
        facts = [
            Fact.ground("leg", (f"c{i % 7}", i % 11, (i * 5) % 13))
            for i in range(300)
        ]
        reference = Relation("leg", 3)
        probes = [
            ({0: Sym(name)}, None) for name in ("c0", "c3", "c6")
        ] + [
            ({1: 4}, None),
            (None, {1: Range(Fraction(2), False, Fraction(6), True)}),
            (None, {2: Range(lower=Fraction(9))}),
            ({0: Sym("c2")}, {2: Range(upper=Fraction(3))}),
        ]
        for bound, ranges in probes:  # index everything up front
            list(reference.matching(bound, ranges=ranges))
        for fact in facts:
            reference.insert(fact)
        expected = [
            list(reference.matching(bound, ranges=ranges))
            for bound, ranges in probes
        ]
        shared = Relation("leg", 3)
        for fact in facts:
            shared.insert(fact)
        failures = []
        start = threading.Barrier(6)

        def reader(offset):
            try:
                start.wait(timeout=10)
                for round_ in range(20):
                    for index in range(len(probes)):
                        at = (index + offset + round_) % len(probes)
                        bound, ranges = probes[at]
                        found = list(
                            shared.matching(bound, ranges=ranges)
                        )
                        if found != expected[at]:
                            failures.append(at)
            except Exception as error:  # reported by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
