"""Index consistency of ``Relation.remove`` / ``sweep_subsumed_by``.

A removal must excise exactly the right fact from its stamp group and
hash buckets even when many facts share a value, and every subsequent
probe -- bound values, ranges, full scans -- must agree with a
brute-force scan over the surviving facts.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.engine.facts import Fact
from repro.engine.relation import Range, Relation
from repro.lang.terms import Sym


def fact(name: str, value: int) -> Fact:
    return Fact.ground("p", (Sym(name), value))


def brute_force(
    facts, bound=None, ranges=None
):
    kept = []
    for candidate in facts:
        if bound and any(
            candidate.args[position] != value
            for position, value in bound.items()
        ):
            continue
        if ranges and any(
            not probe.admits(candidate.args[position])
            for position, probe in ranges.items()
        ):
            continue
        kept.append(candidate)
    return set(kept)


def probes():
    return [
        {},
        {"bound": {0: Sym("a")}},
        {"ranges": {1: Range(lower=Fraction(3))}},
        {"ranges": {1: Range(upper=Fraction(5), upper_strict=True)}},
        {
            "bound": {0: Sym("b")},
            "ranges": {1: Range(lower=Fraction(2), upper=Fraction(8))},
        },
    ]


def assert_matches_brute_force(relation: Relation):
    facts = set(relation)
    for probe in probes():
        bound = probe.get("bound")
        ranges = probe.get("ranges")
        got = set(relation.matching(bound=bound, ranges=ranges))
        assert got == brute_force(facts, bound, ranges), probe


class TestRemoval:
    def test_remove_with_equal_values_keeps_the_right_entries(self):
        """Equal values share one bucket; only the removed one leaves."""
        relation = Relation("p", 2)
        same = [fact(name, 4) for name in ("a", "b", "c")]
        for stored in same:
            relation.insert(stored)
        relation.remove(same[1])
        assert_matches_brute_force(relation)
        assert set(relation) == {same[0], same[2]}

    def test_reinsert_after_remove_uses_fresh_sequence(self):
        """Equal values inserted after a removal: the relation once
        numbered inserts by its length, and a reused number broke
        range probes (a TypeError)."""
        relation = Relation("p", 2)
        stored = [fact(name, 7) for name in ("a", "b", "c", "d")]
        for item in stored:
            relation.insert(item)
        relation.remove(stored[0])
        relation.insert(fact("e", 7))     # would have reused seq 3
        relation.insert(fact("f", 7))
        assert_matches_brute_force(relation)

    def test_remove_last_fact_empties_every_index(self):
        relation = Relation("p", 2)
        only = fact("a", 1)
        relation.insert(only)
        relation.remove(only)
        assert len(relation) == 0
        assert_matches_brute_force(relation)
        relation.insert(only)             # reusable afterwards
        assert list(relation.matching({0: Sym("a")})) == [only]

    def test_sweep_subsumed_keeps_indexes_consistent(self):
        from repro.constraints import Atom, Conjunction, LinearExpr
        from repro.engine.facts import make_fact

        relation = Relation("q", 1)
        specific = Fact.ground("q", (3,))
        relation.insert(specific, stamp=0)
        general = make_fact(
            "q",
            [None],
            Conjunction([
                Atom.le(LinearExpr.var("?0"), LinearExpr.const(10))
            ]),
        )
        relation.insert(general, stamp=1)
        swept = relation.sweep_subsumed_by(general)
        assert specific in swept
        assert set(relation) == {general}
        # No probe returns the swept fact.
        assert list(
            relation.matching(ranges={0: Range(lower=Fraction(0))})
        ) == [general]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcd"),
            st.integers(min_value=0, max_value=9),
            st.booleans(),   # True: try to remove an existing fact
        ),
        min_size=1,
        max_size=40,
    )
)
def test_random_insert_remove_sequences_match_brute_force(operations):
    """Property: after any insert/remove interleaving, every probe mode
    agrees with the brute-force scan (the satellite's acceptance)."""
    relation = Relation("p", 2)
    live: list[Fact] = []
    for name, value, is_removal in operations:
        if is_removal and live:
            victim = live.pop(value % len(live))
            relation.remove(victim)
        else:
            candidate = fact(name, value)
            if candidate not in relation:
                relation.insert(candidate)
                live.append(candidate)
    assert_matches_brute_force(relation)
    assert set(relation) == set(live)
