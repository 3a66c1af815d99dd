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
included: the ordered index must drop exactly the removed one).  An
integral value is drawn both as ``3`` and as ``Fraction(3)``: the two
must make one stored fact.

Indexes are built on first request.  A relation whose indexes are
first asked for after (or part-way through) a random script of inserts,
removes and copies must answer every hash, range and stamp probe with
the same facts in the same order as one whose indexes were all asked
for before its first insert; and mutating a copy of a partly indexed
relation must not change what the original answers.

The insert outcome itself is checked against a second model --
"a duplicate, else subsumed when any stored fact subsumes it" -- over
random interleavings of inserts, removes, backward sweeps and copies of
ground and constraint facts, together with the relation's count of
non-ground facts that selects the ground-only path.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import Fact, PENDING, make_fact
from repro.engine.relation import InsertOutcome, Range, Relation
from repro.lang.terms import Sym
from repro.obs import Tracer, recording

ARITY = 3

numbers = st.sampled_from(
    list(range(-2, 5))
    + [Fraction(n) for n in range(-2, 5)]
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


def numeric(value) -> bool:
    """The engine's sorts: every fixed value not a symbol is a number."""
    return value is not PENDING and not isinstance(value, Sym)


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
        found = [
            f for f in stored
            if numeric(f.args[position])
            and inside(f.args[position], probe)
        ]
        found.sort(key=lambda f: f.args[position])  # stable
        return found + pending(position)

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
            if numeric(actual) and not inside(actual, probe):
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
            ordered = [
                fact for fact in relation
                if numeric(fact.args[position])
            ]
            ordered.sort(key=lambda fact: fact.args[position])
            assert list(
                relation.matching(ranges={position: Range()})
            ) == ordered + [
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

    @given(st.lists(rows, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_int_and_fraction_spellings_store_one_fact(self, batch):
        relation = Relation("p", ARITY)
        for row in batch:
            fact, twin = build_fact(row), build_fact(respelled(row))
            assert fact == twin and hash(fact) == hash(twin)
            assert not any(map(integral_fraction, fact.args + twin.args))
            first = relation.insert(fact)
            assert relation.insert(twin) is (
                InsertOutcome.DUPLICATE
                if first is InsertOutcome.NEW
                else first
            )
        assert len(relation) == len({build_fact(row) for row in batch})


def respelled(row) -> tuple:
    """The row with each integral number in its other spelling."""
    return tuple(
        Fraction(value) if type(value) is int
        else value.numerator if integral_fraction(value)
        else value
        for value in row
    )


def integral_fraction(value) -> bool:
    return isinstance(value, Fraction) and value.denominator == 1


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


def bounded(index: int, kind: str | None) -> list[Atom]:
    """No atom (a wildcard PENDING position) or one bound at 1."""
    var, one = LinearExpr.var(f"${index}"), LinearExpr.const(1)
    if kind is None:
        return []
    return [Atom.le(var, one) if kind == "le" else Atom.ge(var, one)]


@st.composite
def mixed_facts(draw) -> Fact:
    """Arity-2 facts, ground or not, over a pool small enough that
    wildcards and bounds cover the ground facts often."""
    values, atoms = [], []
    for index in (1, 2):
        if draw(st.integers(0, 2)):
            values.append(draw(st.sampled_from(
                [0, 1, 2, Fraction(2), Fraction(1, 2), Sym("a")]
            )))
        else:
            values.append(PENDING)
            atoms += bounded(
                index, draw(st.sampled_from([None, "le", "ge"]))
            )
    return make_fact("q", values, Conjunction(atoms))


steps = st.one_of(
    st.tuples(st.just("insert"), mixed_facts()),
    st.tuples(st.just("insert"), mixed_facts()),
    st.tuples(st.just("remove"), st.integers(0, 20)),
    st.tuples(st.just("sweep"), st.integers(0, 20)),
    st.tuples(st.just("copy"), st.none()),
)


def expected_outcome(stored: list[Fact], fact: Fact) -> InsertOutcome:
    """The paper's rule, with no index: a duplicate, else subsumed when
    any stored fact subsumes it."""
    if fact in stored:
        return InsertOutcome.DUPLICATE
    if any(other.subsumes(fact) for other in stored):
        return InsertOutcome.SUBSUMED
    return InsertOutcome.NEW


def nonground(facts) -> int:
    return sum(PENDING in fact.args for fact in facts)


class TestGroundOnlyInsert:
    @given(st.lists(steps, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_outcomes_match_the_brute_force_rule(self, script):
        relation = Relation("q", 2)
        model: list[Fact] = []
        for op, payload in script:
            if op == "insert":
                expected = expected_outcome(model, payload)
                ground_only = relation._nonground == 0
                with recording(Tracer()) as tracer:
                    assert relation.insert(payload) is expected
                if ground_only:
                    assert not tracer.metrics.counters[
                        "constraint.subsumption_tests"
                    ]
                if expected is InsertOutcome.NEW:
                    model.append(payload)
            elif op == "remove" and model:
                doomed = model.pop(payload % len(model))
                relation.remove(doomed)
            elif op == "sweep" and model:
                general = model[payload % len(model)]
                covered = [
                    fact for fact in model
                    if fact is not general and general.subsumes(fact)
                ]
                removed = relation.sweep_subsumed_by(general)
                assert sorted(map(str, removed)) == sorted(
                    map(str, covered)
                )
                model = [fact for fact in model if fact not in covered]
            elif op == "copy":
                relation = relation.copy()
            assert list(relation) == model
            assert relation._nonground == nonground(model)

    def test_count_returns_to_zero_after_a_remove(self):
        relation = Relation("q", 2)
        wildcard = make_fact("q", [PENDING, Sym("a")])
        point = Fact.ground("q", (1, "a"))
        assert relation.insert(wildcard) is InsertOutcome.NEW
        assert relation._nonground == 1
        assert relation.insert(point) is InsertOutcome.SUBSUMED
        clone = relation.copy()
        relation.remove(wildcard)
        assert relation._nonground == 0
        assert clone._nonground == 1
        with recording(Tracer()) as tracer:
            assert relation.insert(point) is InsertOutcome.NEW
            assert clone.insert(point) is InsertOutcome.SUBSUMED
        assert tracer.metrics.counters["constraint.subsumption_tests"] == 1


ground_rows = st.tuples(*[fixed_values] * ARITY)
index_kinds = st.sampled_from(["hash", "range"])


@st.composite
def scripts(draw, max_size=30):
    """Insert/remove/copy steps, with "index" steps that ask for one
    index part-way.  Half the scripts insert only ground facts: a
    stored constraint fact makes every insert size (so build) every
    hash index."""
    pool = draw(st.sampled_from([rows, ground_rows]))
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pool, stamps),
            st.tuples(st.just("insert"), pool, stamps),
            st.tuples(st.just("remove"), st.integers(0, 30), st.none()),
            st.tuples(st.just("copy"), st.none(), st.none()),
            st.tuples(
                st.just("index"), st.integers(0, ARITY - 1), index_kinds
            ),
        ),
        max_size=max_size,
    ))


def request(relation: Relation, position: int, kind: str) -> None:
    """Ask for one index: run a probe that sizes it, drop the answer."""
    if kind == "hash":
        list(relation.matching({position: Sym("a")}))
    else:
        list(relation.matching(ranges={position: Range()}))


def request_all(relation: Relation) -> None:
    for position in range(ARITY):
        for kind in ("hash", "range"):
            request(relation, position, kind)


def apply(relation: Relation, op, payload, extra):
    """One script step on one relation; returns the relation to go on
    with (its copy after a "copy" step) and an insert's outcome."""
    if op == "insert":
        return relation, relation.insert(build_fact(payload), extra)
    if op == "remove" and len(relation):
        relation.remove(relation.facts[payload % len(relation)])
    elif op == "copy":
        relation = relation.copy()
    elif op == "index":
        request(relation, payload, extra)
    return relation, None


def play(script, indexed: Relation, plain: Relation):
    """Run the script on both relations; "index" steps reach only
    ``indexed``."""
    for op, payload, extra in script:
        indexed, outcome = apply(indexed, op, payload, extra)
        if op != "index":
            plain, twin_outcome = apply(plain, op, payload, extra)
            assert outcome is twin_outcome
    return indexed, plain


def answers(relation: Relation, probe) -> list[Fact]:
    return list(relation.matching(
        probe["bound"] or None,
        max_stamp=probe["max_stamp"],
        exact_stamp=probe["exact_stamp"],
        ranges=probe["ranges"] or None,
    ))


class TestLazyIndexes:
    @given(scripts(), st.lists(probes, min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_built_late_answers_as_built_first(self, script, checks):
        eager = Relation("p", ARITY)
        request_all(eager)
        lazy, eager = play(script, Relation("p", ARITY), eager)
        assert list(lazy) == list(eager)
        for probe in checks:
            assert answers(lazy, probe) == answers(eager, probe)
        for stamp in range(5):
            assert list(lazy.matching(exact_stamp=stamp)) == list(
                eager.matching(exact_stamp=stamp)
            )

    @given(
        scripts(),
        scripts(max_size=12),
        st.lists(probes, min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutating_a_copy_leaves_the_original(
        self, script, edits, checks
    ):
        original, twin = play(
            script, Relation("p", ARITY), Relation("p", ARITY)
        )
        clone = original.copy()
        for op, payload, extra in edits:
            if op != "copy":
                apply(clone, op, payload, extra)
        request_all(clone)
        for probe in checks:
            assert answers(original, probe) == answers(twin, probe)
