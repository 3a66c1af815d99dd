"""Relations: stamped, subsumption-checked fact stores with indexes.

A relation stores the facts of one predicate.  Each fact carries the
iteration *stamp* at which it was added, which is what the semi-naive
evaluator filters on (delta vs. old vs. full views).  Insertion rejects
facts subsumed by an existing fact (the paper's "subsumed facts ... are
discarded, and are not used to make new derivations").  The relation
counts its non-ground facts (with a PENDING position).  While there
are none -- on most programs always (Theorem 6.2) -- an insert is one
``setdefault`` on the fact store, one hash for the duplicate test and
the store together: only an equal fact covers a ground one, and a
canonical non-ground fact covers at least two points, so no ground
fact covers it.  What is derived, and so the derivation count, does
not change.

A per-position hash index on fixed (Sym / number) values accelerates
joins.  It does not exist until a probe asks for it: sizing a bound
position builds that position's index in one pass over the stored
facts, buckets in insertion order -- exactly what inserting fact by
fact would have left.  From then on ``insert``/``remove`` maintain it,
and ``copy`` carries it; an index no plan probes is never built or
maintained.  A build fills a local and publishes it with one
assignment, so two readers racing on a shared database at worst both
build the same index.

Facts whose value at the probed position is PENDING are kept in a side
list, maintained on every insert, since they may cover any probed
value or range.

The facts are also grouped by stamp, in insertion order, so the
semi-naive delta (an ``exact_stamp`` probe) is read off its group
rather than filtered out of the whole relation, and "how large is the
delta, if there is one" is one dict lookup.

A numeric range pushed from the rule's constraints (Section 4.6's
"Cost <= 150 and Time <= 240") is a *test*, not an index: it drops the
facts outside it where they are read, before the join binds them.  An
ordered index would serve it, but every insert would keep it sorted,
and on the benchmarks it was kept up far more often than it served.
Numeric fact arguments are int-first (:mod:`repro.engine.facts`),
already the :func:`~repro.engine.facts.number_key` form a range
compares with; only ``Range`` bounds are converted.

A probe is *sized* before anything is built: the stamp group and each
hash bucket by a ``len`` call.  Only the smallest candidate list is
then materialized (one list copy, because derivations land in the
relation while a join iterates it).  :meth:`Relation.matching` is that
probe as a generator.  A generated join (:mod:`repro.engine.ruleeval`)
makes the same probe inline, from ``stamps``, ``groups`` and
:meth:`Relation.index`, while ``nonground`` is 0, and calls
``matching`` otherwise.

The generated join is also the second writer of ``stamps``, ``groups``
and the built indexes (``_fixed``): while ``nonground`` is 0 its
inserting form stores a ground head itself, exactly as :meth:`insert`
would, and calls :meth:`insert` otherwise.  A change to how
:meth:`insert` stores a ground fact changes ``ruleeval._generate`` too
(``tests/property/test_prop_inline_store.py`` compares the two).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Iterator

from repro.engine.facts import Fact, PENDING, Value, number_key
from repro.lang.terms import Sym
from repro.obs.recorder import count as obs_count


class Range:
    """A (possibly half-open) numeric interval a probe filters on.

    Immutable once built: the bounds are also kept as
    :func:`number_key` forms, which is what probes compare against.
    """

    __slots__ = (
        "lower", "lower_strict", "upper", "upper_strict",
        "_lower_key", "_upper_key",
    )

    def __init__(
        self,
        lower: Fraction | None = None,
        lower_strict: bool = False,
        upper: Fraction | None = None,
        upper_strict: bool = False,
    ) -> None:
        self.lower = lower
        self.lower_strict = lower_strict
        self.upper = upper
        self.upper_strict = upper_strict
        self._lower_key = None if lower is None else number_key(lower)
        self._upper_key = None if upper is None else number_key(upper)

    def admits(self, value: "int | Fraction") -> bool:
        """Is the (numeric) value inside the range?"""
        lower = self._lower_key
        if lower is not None and (
            value <= lower if self.lower_strict else value < lower
        ):
            return False
        upper = self._upper_key
        if upper is not None and (
            value >= upper if self.upper_strict else value > upper
        ):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        left = "(" if self.lower_strict else "["
        right = ")" if self.upper_strict else "]"
        return f"Range{left}{self.lower}, {self.upper}{right}"


class InsertOutcome(enum.Enum):
    """What happened when a fact was inserted."""
    NEW = "new"
    DUPLICATE = "duplicate"
    SUBSUMED = "subsumed"


class Relation:
    """The stamped fact store of a single predicate."""

    def __init__(self, pred: str, arity: int) -> None:
        self.pred = pred
        self.arity = arity
        # The three attributes below, :meth:`index` and ``_fixed`` are
        # what a generated join reads to probe the relation and writes
        # to store a ground head itself; untouched elsewhere outside
        # this class.  ``stamps``: the fact store, an insertion-ordered
        # dict from fact to stamp.
        self.stamps: dict[Fact, int] = {}
        # groups[stamp] -> the facts carrying it, in insertion order;
        # a stamp nothing carries has no entry.
        self.groups: dict[int, list[Fact]] = {}
        # How many stored facts have a PENDING position.
        self.nonground = 0
        # _pending[pos] -> facts with PENDING at pos (always kept);
        # _fixed[pos][value] -> facts with that fixed value at pos, None
        # at a position no probe has asked for yet.
        self._pending: list[list[Fact]] = [[] for _ in range(arity)]
        self._fixed: list[dict[Value, list[Fact]] | None] = (
            [None] * arity
        )

    def copy(self) -> "Relation":
        """An independent copy (facts are immutable and are shared)."""
        clone = Relation(self.pred, self.arity)
        clone.stamps = dict(self.stamps)
        clone.groups = {
            stamp: list(group) for stamp, group in self.groups.items()
        }
        clone.nonground = self.nonground
        clone._pending = [list(facts) for facts in self._pending]
        clone._fixed = [
            None if index is None
            else {value: list(bucket) for value, bucket in index.items()}
            for index in self._fixed
        ]
        return clone

    # -- inspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.stamps)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.stamps)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.stamps

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The stored facts of a predicate."""
        return tuple(self.stamps)

    def stamp(self, fact: Fact) -> int:
        """The iteration stamp a fact was inserted at."""
        return self.stamps[fact]

    def stamp_count(self, stamp: int) -> int:
        """How many stored facts carry the stamp.  O(1)."""
        return len(self.groups.get(stamp, ()))

    # -- modification ---------------------------------------------------

    def insert(self, fact: Fact, stamp: int = 0) -> InsertOutcome:
        """Insert unless a syntactic duplicate or semantically subsumed
        (by the duplicate test alone while no non-ground fact is stored).

        The caller counts ``relation.inserts``: the fixpoint once per
        rule application, a load loop once per loop.
        """
        if fact.pred != self.pred or len(fact.args) != self.arity:
            raise ValueError(
                f"fact {fact} does not belong to relation "
                f"{self.pred}/{self.arity}"
            )
        stamps = self.stamps
        if self.nonground:
            if fact in stamps:
                return InsertOutcome.DUPLICATE
            for existing in self._candidate_subsumers(fact):
                obs_count("constraint.subsumption_tests")
                if existing.subsumes(fact):
                    return InsertOutcome.SUBSUMED
            stamps[fact] = stamp
        else:  # the duplicate test and the store are one hash
            size = len(stamps)
            stamps.setdefault(fact, stamp)
            if len(stamps) == size:
                return InsertOutcome.DUPLICATE
        group = self.groups.get(stamp)
        if group is None:
            self.groups[stamp] = [fact]
        else:
            group.append(fact)
        fixed = self._fixed
        ground = True
        for position, value in enumerate(fact.args):
            if value is PENDING:
                self._pending[position].append(fact)
                ground = False
                continue
            index = fixed[position]
            if index is not None:
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [fact]
                else:
                    bucket.append(fact)
        if not ground:
            self.nonground += 1
        return InsertOutcome.NEW

    def remove(self, fact: Fact) -> None:
        """Remove a stored fact (backward-subsumption support)."""
        if fact not in self.stamps:
            raise KeyError(f"{fact} is not stored")
        stamp = self.stamps.pop(fact)
        group = self.groups[stamp]
        group.remove(fact)
        if not group:
            del self.groups[stamp]
        ground = True
        for position, value in enumerate(fact.args):
            if value is PENDING:
                self._pending[position].remove(fact)
                ground = False
                continue
            index = self._fixed[position]
            if index is not None:
                bucket = index[value]
                bucket.remove(fact)
                if not bucket:
                    del index[value]
        if not ground:
            self.nonground -= 1

    def sweep_subsumed_by(self, fact: Fact) -> list[Fact]:
        """Remove stored facts the given (stored) fact subsumes.

        Returns the removed facts.  Used by the evaluator's backward-
        subsumption pass: a newly derived, more general fact covers all
        future uses of the facts it subsumes (it carries an equal or
        newer stamp, so semi-naive deltas still see it).
        """
        bound = {
            position: value
            for position, value in enumerate(fact.args)
            if value is not PENDING
        }
        removed = []
        for candidate in list(self.matching(bound or None)):
            if candidate is fact:
                continue
            obs_count("constraint.subsumption_tests")
            if fact.subsumes(candidate):
                self.remove(candidate)
                removed.append(candidate)
        return removed

    def index(self, position: int) -> dict[Value, list[Fact]]:
        """The hash index at ``position``, built on first request: fixed
        value -> the facts holding it there, in insertion order (PENDING
        facts are not in it).  The dict is kept up by every later
        insert and remove; read-only to the caller."""
        index = self._fixed[position]
        if index is None:
            index = {}
            for fact in self.stamps:  # insertion order
                value = fact.args[position]
                if value is PENDING:
                    continue
                bucket = index.get(value)
                if bucket is None:
                    index[value] = [fact]
                else:
                    bucket.append(fact)
            self._fixed[position] = index
        return index

    def _bucket_size(self, position: int, value: Value) -> int:
        """Facts a hash probe of ``value`` at ``position`` would return."""
        return len(self.index(position).get(value, ())) + len(
            self._pending[position]
        )

    def _bucket(self, position: int, value: Value) -> list[Fact]:
        """A fresh list: the hash bucket, then the PENDING facts."""
        return (
            self.index(position).get(value, [])
            + self._pending[position]
        )

    def _candidate_subsumers(self, fact: Fact) -> Iterable[Fact]:
        """Facts that could subsume ``fact`` (index-pruned superset)."""
        best: int | None = None
        best_size: int | None = None
        for position, value in enumerate(fact.args):
            if value is PENDING:
                continue
            size = self._bucket_size(position, value)
            if best_size is None or size < best_size:
                best, best_size = position, size
        if best is None:
            return list(self.stamps)
        return self._bucket(best, fact.args[best])

    # -- lookups ----------------------------------------------------------

    def matching(
        self,
        bound: dict[int, Sym | Fraction] | None = None,
        max_stamp: int | None = None,
        exact_stamp: int | None = None,
        ranges: dict[int, Range] | None = None,
    ) -> Iterator[Fact]:
        """Facts compatible with fixed values / ranges at 0-based positions.

        A fact is *compatible* when each bound position holds either the
        same fixed value or PENDING (the constraint may still rule the
        value out; the join's satisfiability check decides that), and
        each ranged position holds a value inside the range or PENDING.
        Stamp filters select the semi-naive views.  The probe reads
        whichever source promises the fewest candidates -- the
        ``exact_stamp`` group, a bound position's hash bucket, or else
        the whole relation -- the first such on ties, the group before
        bound positions; remaining conditions, every range among them,
        filter.  The result is in insertion order, except that a
        bucket's PENDING facts follow the bucket.
        """
        served: int | None = None  # the position whose bucket is used
        best_size: int | None = None
        group: list[Fact] | None = None
        if exact_stamp is not None:
            group = self.groups.get(exact_stamp)
            if group is None:
                return  # an empty delta: nothing to size or build
            best_size = len(group)
        if bound:
            for position, value in bound.items():
                size = self._bucket_size(position, value)
                if best_size is None or size < best_size:
                    served, best_size = position, size
        # Materialized so concurrent inserts (derivations landing while
        # a join iterates this view) cannot invalidate it.  The serving
        # source guarantees its own condition, so the filter drops it.
        if served is None:
            candidates = list(self.stamps if group is None else group)
            exact_stamp = None
        else:
            candidates = self._bucket(served, bound[served])
            bound = {
                position: value
                for position, value in bound.items()
                if position != served
            }
        stamps = self.stamps
        for fact in candidates:
            stamp = stamps[fact]
            if max_stamp is not None and stamp > max_stamp:
                continue
            if exact_stamp is not None and stamp != exact_stamp:
                continue
            if bound and not _compatible(fact, bound):
                continue
            if ranges and not _in_ranges(fact, ranges):
                continue
            yield fact

    def __str__(self) -> str:
        inner = ", ".join(str(fact) for fact in self.stamps)
        return f"{{{inner}}}"


def _compatible(fact: Fact, bound: dict[int, Sym | Fraction]) -> bool:
    for position, value in bound.items():
        actual = fact.args[position]
        if actual is PENDING:
            continue
        if actual != value:
            return False
    return True


def _in_ranges(fact: Fact, ranges: dict[int, Range]) -> bool:
    for position, probe in ranges.items():
        actual = fact.args[position]
        if actual is PENDING:
            continue  # a pending value may still qualify
        if type(actual) is Sym or not probe.admits(actual):
            return False  # a symbol lies in no numeric range
    return True
