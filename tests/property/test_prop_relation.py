"""``Relation.matching`` against a brute-force model of its contract.

The model knows nothing of hash buckets, bisect offsets or key forms:
it filters the stored facts in insertion order.  It does restate the
*index choice* (smallest candidate list, first on ties, the
``exact_stamp`` group before bound positions before ranged ones),
because the chosen index fixes the order of the result -- stamp-group
and bucket order is insertion order, range order is by value and then
insertion -- and the order of a join's candidates is the order of its
derivations, which the per-iteration logs pin.  So the results are
compared as lists.  The stamp groups must survive ``remove`` and be
independent in a ``copy``.

Relations mix integers, non-integral Fractions, symbols and PENDING
positions, and are probed after random removals (equal-valued entries
included: the ordered index must drop exactly the removed one).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import Fact, PENDING, make_fact
from repro.engine.relation import InsertOutcome, Range, Relation
from repro.lang.terms import Sym

ARITY = 3

numbers = st.sampled_from(
    [Fraction(n) for n in range(-2, 5)]
    + [Fraction(1, 2), Fraction(7, 3), Fraction(-3, 2), Fraction(5, 2)]
)
symbols = st.sampled_from([Sym("a"), Sym("b")])
fixed_values = st.one_of(numbers, numbers, symbols)
values = st.one_of(fixed_values, fixed_values, st.just(PENDING))
rows = st.tuples(*[values] * ARITY)
stamps = st.integers(min_value=0, max_value=3)
maybe = st.one_of(st.none(), numbers)
ranges = st.builds(Range, maybe, st.booleans(), maybe, st.booleans())


def build_fact(row) -> Fact:
    """A fact for the row; PENDING positions get a bound no value in
    the pool meets, so they subsume none of the fixed facts."""
    atoms = [
        Atom.ge(LinearExpr.var(f"${index}"), LinearExpr.const(100 + index))
        for index, value in enumerate(row, start=1)
        if value is PENDING
    ]
    return make_fact("p", list(row), Conjunction(atoms))


@st.composite
def relations(draw):
    """A relation after inserts, removals, and some more inserts."""
    relation = Relation("p", ARITY)
    for phase in range(2):
        for row in draw(st.lists(rows, min_size=0, max_size=14)):
            relation.insert(build_fact(row), stamp=draw(stamps))
        if phase == 0 and len(relation):
            doomed = draw(
                st.lists(st.sampled_from(relation.facts), unique=True)
            )
            for fact in doomed:
                relation.remove(fact)
    return relation


probes = st.fixed_dictionaries(
    {
        "bound": st.dictionaries(
            st.integers(0, ARITY - 1), fixed_values, max_size=2
        ),
        "ranges": st.dictionaries(
            st.integers(0, ARITY - 1), ranges, max_size=2
        ),
        "max_stamp": st.one_of(st.none(), stamps),
        "exact_stamp": st.one_of(st.none(), stamps),
    }
)


def inside(value: Fraction, probe: Range) -> bool:
    if probe.lower is not None and (
        value < probe.lower
        or (probe.lower_strict and value == probe.lower)
    ):
        return False
    if probe.upper is not None and (
        value > probe.upper
        or (probe.upper_strict and value == probe.upper)
    ):
        return False
    return True


def brute_force(relation, bound, ranges, max_stamp, exact_stamp):
    stored = list(relation)  # insertion order

    def pending(position):
        return [f for f in stored if f.args[position] is PENDING]

    def bucket(position, value):
        same = [f for f in stored if f.args[position] == value]
        return same + pending(position)

    def scan(position, probe):
        numeric = [
            f for f in stored
            if isinstance(f.args[position], Fraction)
            and inside(f.args[position], probe)
        ]
        numeric.sort(key=lambda f: f.args[position])  # stable
        return numeric + pending(position)

    candidates = None
    if exact_stamp is not None:
        # The semi-naive delta: insertion order within the stamp.
        candidates = [
            f for f in stored if relation.stamp(f) == exact_stamp
        ]
    for position, value in bound.items():
        found = bucket(position, value)
        if candidates is None or len(found) < len(candidates):
            candidates = found
    for position, probe in ranges.items():
        if position in bound:
            continue
        found = scan(position, probe)
        if candidates is None or len(found) < len(candidates):
            candidates = found
    if candidates is None:
        candidates = stored

    def keep(fact):
        stamp = relation.stamp(fact)
        if max_stamp is not None and stamp > max_stamp:
            return False
        if exact_stamp is not None and stamp != exact_stamp:
            return False
        for position, value in bound.items():
            actual = fact.args[position]
            if actual is not PENDING and actual != value:
                return False
        for position, probe in ranges.items():
            actual = fact.args[position]
            if isinstance(actual, Fraction) and not inside(actual, probe):
                return False
        return True

    return [fact for fact in candidates if keep(fact)]


class TestMatchingAgainstBruteForce:
    @given(relations(), probes)
    @settings(max_examples=300, deadline=None)
    def test_same_facts_in_the_same_order(self, relation, probe):
        expected = brute_force(relation, **probe)
        found = relation.matching(
            probe["bound"] or None,
            max_stamp=probe["max_stamp"],
            exact_stamp=probe["exact_stamp"],
            ranges=probe["ranges"] or None,
        )
        assert list(found) == expected

    @given(relations())
    @settings(max_examples=100, deadline=None)
    def test_ordered_index_tracks_inserts_and_removes(self, relation):
        for position in range(ARITY):
            numeric = [
                fact for fact in relation
                if isinstance(fact.args[position], Fraction)
            ]
            numeric.sort(key=lambda fact: fact.args[position])
            assert list(
                relation.matching(ranges={position: Range()})
            ) == numeric + [
                fact for fact in relation
                if fact.args[position] is PENDING
            ]
            assert list(
                relation.matching(ranges={position: Range(
                    Fraction(3), False, Fraction(1), False
                )})
            ) == [
                fact for fact in relation
                if fact.args[position] is PENDING
            ]


class TestStampGroups:
    @given(relations())
    @settings(max_examples=100, deadline=None)
    def test_groups_track_removes_and_copies(self, relation):
        def by_stamp(target):
            return {
                stamp: list(target.matching(exact_stamp=stamp))
                for stamp in range(5)
            }

        expected = {
            stamp: [f for f in relation if relation.stamp(f) == stamp]
            for stamp in range(5)
        }
        assert by_stamp(relation) == expected
        for stamp, facts in expected.items():
            assert relation.stamp_count(stamp) == len(facts)
        clone = relation.copy()
        assert by_stamp(clone) == expected
        # Mutating the clone leaves the original's groups alone.
        removed = clone.facts[::2]
        for fact in removed:
            clone.remove(fact)
        extra = Fact.ground("p", (Sym("fresh"),) * ARITY)
        clone.insert(extra, stamp=4)
        assert by_stamp(relation) == expected
        assert relation.stamp_count(4) == 0
        assert by_stamp(clone) == {
            **{
                stamp: [f for f in facts if f not in removed]
                for stamp, facts in expected.items()
            },
            4: [extra],
        }


class TestEqualValuedEntries:
    def test_remove_drops_exactly_the_removed_entry(self):
        relation = Relation("p", 2)
        facts = [
            Fact.ground("p", (Fraction(2), name)) for name in "abcd"
        ] + [Fact.ground("p", (Fraction(5, 2), "e"))]
        for fact in facts:
            assert relation.insert(fact) is InsertOutcome.NEW
        relation.remove(facts[1])
        relation.remove(facts[3])
        point = {0: Range(Fraction(2), False, Fraction(2), False)}
        assert list(relation.matching(ranges=point)) == [
            facts[0], facts[2]
        ]
        # A re-inserted equal value sorts after the survivors.
        relation.insert(facts[1])
        assert list(relation.matching(ranges=point)) == [
            facts[0], facts[2], facts[1]
        ]
        strict = {0: Range(Fraction(2), True, None, False)}
        assert list(relation.matching(ranges=strict)) == [facts[4]]
        below = {0: Range(None, False, Fraction(5, 2), True)}
        assert list(relation.matching(ranges=below)) == [
            facts[0], facts[2], facts[1]
        ]
