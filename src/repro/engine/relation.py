"""Relations: stamped, subsumption-checked fact stores with indexes.

A relation stores the facts of one predicate.  Each fact carries the
iteration *stamp* at which it was added, which is what the semi-naive
evaluator filters on (delta vs. old vs. full views).  Insertion rejects
facts subsumed by an existing fact (the paper's "subsumed facts ... are
discarded, and are not used to make new derivations").  The relation
counts its non-ground facts (with a PENDING position).  While there
are none -- on most programs always (Theorem 6.2) -- an insert is one
set-membership test: only an equal fact covers a ground one, and a
canonical non-ground fact covers at least two points, so no ground
fact covers it.  What is derived, and so the derivation count, does
not change.

Two indexes accelerate joins:

* a per-position hash index on fixed (Sym / number) values, and
* a per-position *ordered* index on numeric values, supporting the
  range probes that Section 4.6 points out constraint selections
  enable ("the constraints Cost <= 150 and Time <= 240 could be used
  to efficiently retrieve (via B trees, etc.) singleleg tuples").

Neither exists until a probe asks for it: sizing a bound position
builds that position's hash index, and sizing a ranged position its
ordered index, in one pass over the stored facts (buckets in insertion
order, the ordered index one sort by value and then insertion
sequence -- exactly what inserting fact by fact would have left).
From then on ``insert``/``remove`` maintain it, and ``copy`` carries
it; an index no plan probes is never built or maintained.  A build
fills a local and publishes it with one assignment, so two readers
racing on a shared database at worst both build the same index.

Facts whose value at the probed position is PENDING are kept in a side
list, maintained on every insert, since they may cover any probed value
or range.  Numeric fact arguments are int-first
(:mod:`repro.engine.facts`), already the
:func:`~repro.engine.facts.number_key` form the ordered index is keyed
by; only ``Range`` bounds are converted.

The facts are also grouped by stamp, in insertion order, so the
semi-naive delta (an ``exact_stamp`` probe) is read off its group
rather than filtered out of the whole relation, and "how large is the
delta, if there is one" is one dict lookup.

A probe is *sized* before anything is built: a stamp group and a hash
bucket by ``len`` calls, a range by its two bisect offsets.  Only the
smallest candidate list is then materialized (one slice copy, because
derivations land in the relation while a join iterates it).
"""

from __future__ import annotations

import bisect
import enum
from fractions import Fraction
from typing import Iterable, Iterator

from repro.engine.facts import Fact, PENDING, Value, number_key
from repro.lang.terms import Sym
from repro.obs.recorder import count as obs_count


# Sorts after every insertion sequence number: ``(key, _AFTER)`` lands
# just past the entries of ``key`` and ``(key,)`` just before them.
_AFTER = float("inf")

# An ordered index: sorted ``(numeric key, insertion seq)`` entries and
# the facts they belong to, aligned.
_Ordered = tuple[list[tuple["int | Fraction", int]], list[Fact]]


class Range:
    """A (possibly half-open) numeric interval used for index probes.

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
        # The fact store: an insertion-ordered dict carrying the stamps.
        self._stamps: dict[Fact, int] = {}
        # _groups[stamp] -> the facts carrying it, in insertion order;
        # a stamp nothing carries has no entry.
        self._groups: dict[int, list[Fact]] = {}
        # Monotonic insertion sequence: the ordered-index tie-breaker.
        # (A length-based tie-break would collide after remove().)
        self._seqs: dict[Fact, int] = {}
        self._next_seq = 0
        # How many stored facts have a PENDING position.
        self._nonground = 0
        # _pending[pos] -> facts with PENDING at pos (always kept);
        # _fixed[pos][value] -> facts with that fixed value at pos;
        # _ordered[pos] -> (sorted (numeric key, insertion seq) entries,
        # the facts of those entries, aligned), so a range probe is one
        # slice.  None at a position no probe has asked for yet.
        self._pending: list[list[Fact]] = [[] for _ in range(arity)]
        self._fixed: list[dict[Value, list[Fact]] | None] = (
            [None] * arity
        )
        self._ordered: list[_Ordered | None] = [None] * arity

    def copy(self) -> "Relation":
        """An independent copy (facts are immutable and are shared)."""
        clone = Relation(self.pred, self.arity)
        clone._stamps = dict(self._stamps)
        clone._groups = {
            stamp: list(group) for stamp, group in self._groups.items()
        }
        clone._seqs = dict(self._seqs)
        clone._next_seq = self._next_seq
        clone._nonground = self._nonground
        clone._pending = [list(facts) for facts in self._pending]
        clone._fixed = [
            None if index is None
            else {value: list(bucket) for value, bucket in index.items()}
            for index in self._fixed
        ]
        clone._ordered = [
            None if ordered is None
            else (list(ordered[0]), list(ordered[1]))
            for ordered in self._ordered
        ]
        return clone

    # -- inspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._stamps)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._stamps

    @property
    def facts(self) -> tuple[Fact, ...]:
        """The stored facts of a predicate."""
        return tuple(self._stamps)

    def stamp(self, fact: Fact) -> int:
        """The iteration stamp a fact was inserted at."""
        return self._stamps[fact]

    def stamp_count(self, stamp: int) -> int:
        """How many stored facts carry the stamp.  O(1)."""
        return len(self._groups.get(stamp, ()))

    # -- modification ---------------------------------------------------

    def insert(self, fact: Fact, stamp: int = 0) -> InsertOutcome:
        """Insert unless a syntactic duplicate or semantically subsumed
        (by the duplicate test alone while no non-ground fact is stored).
        """
        if fact.pred != self.pred or len(fact.args) != self.arity:
            raise ValueError(
                f"fact {fact} does not belong to relation "
                f"{self.pred}/{self.arity}"
            )
        obs_count("relation.inserts")
        if fact in self._stamps:
            return InsertOutcome.DUPLICATE
        if self._nonground:
            for existing in self._candidate_subsumers(fact):
                obs_count("constraint.subsumption_tests")
                if existing.subsumes(fact):
                    return InsertOutcome.SUBSUMED
        self._stamps[fact] = stamp
        group = self._groups.get(stamp)
        if group is None:
            self._groups[stamp] = [fact]
        else:
            group.append(fact)
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seqs[fact] = seq
        fixed, ordered = self._fixed, self._ordered
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
            sorted_index = ordered[position]
            if sorted_index is not None and type(value) is not Sym:
                entries, facts = sorted_index
                entry = (value, seq)  # a number, in number_key form
                at = bisect.bisect_left(entries, entry)
                entries.insert(at, entry)
                facts.insert(at, fact)
        if not ground:
            self._nonground += 1
        return InsertOutcome.NEW

    def remove(self, fact: Fact) -> None:
        """Remove a stored fact (backward-subsumption support)."""
        if fact not in self._stamps:
            raise KeyError(f"{fact} is not stored")
        stamp = self._stamps.pop(fact)
        group = self._groups[stamp]
        group.remove(fact)
        if not group:
            del self._groups[stamp]
        seq = self._seqs.pop(fact)
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
            ordered = self._ordered[position]
            if ordered is not None and type(value) is not Sym:
                # (value, seq) is unique, so bisect lands on the entry.
                entries, facts = ordered
                at = bisect.bisect_left(entries, (value, seq))
                entries.pop(at)
                facts.pop(at)
        if not ground:
            self._nonground -= 1

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

    def _hash_index(self, position: int) -> dict[Value, list[Fact]]:
        """The hash index at ``position``, built on first request."""
        index = self._fixed[position]
        if index is None:
            index = {}
            for fact in self._stamps:  # insertion order
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

    def _ordered_index(self, position: int) -> "_Ordered":
        """The ordered index at ``position``, built on first request."""
        ordered = self._ordered[position]
        if ordered is None:
            # Insertion order is sequence order, so a stable sort by
            # value is the (value, seq) order.
            facts = sorted(
                (
                    fact for fact in self._stamps
                    if (value := fact.args[position]) is not PENDING
                    and type(value) is not Sym
                ),
                key=lambda fact: fact.args[position],
            )
            seqs = self._seqs
            entries = [(fact.args[position], seqs[fact]) for fact in facts]
            ordered = self._ordered[position] = (entries, facts)
        return ordered

    def _bucket_size(self, position: int, value: Value) -> int:
        """Facts a hash probe of ``value`` at ``position`` would return."""
        return len(self._hash_index(position).get(value, ())) + len(
            self._pending[position]
        )

    def _bucket(self, position: int, value: Value) -> list[Fact]:
        """A fresh list: the hash bucket, then the PENDING facts."""
        return (
            self._hash_index(position).get(value, [])
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
            return list(self._stamps)
        return self._bucket(best, fact.args[best])

    # -- lookups ----------------------------------------------------------

    def _span(self, position: int, probe: Range) -> tuple[int, int]:
        """The ``[low, high)`` slice of the ordered index a range admits.

        The offsets already honour strict bounds, so the slice holds
        exactly the admitted values; an inverted range is empty.
        """
        entries = self._ordered_index(position)[0]
        low = 0
        high = len(entries)
        key = probe._lower_key
        if key is not None:
            low = bisect.bisect_left(
                entries, (key, _AFTER) if probe.lower_strict else (key,)
            )
        key = probe._upper_key
        if key is not None:
            high = bisect.bisect_left(
                entries, (key,) if probe.upper_strict else (key, _AFTER)
            )
        return low, max(low, high)

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
        Stamp filters select the semi-naive views.  The probe uses
        whichever single index (stamp group, hash bucket or ordered
        range) promises the fewest candidates -- the first such on ties,
        the ``exact_stamp`` group before bound positions before ranged
        ones; remaining conditions filter.  A result served by the
        stamp group is in insertion order.
        """
        served: int | None = None  # the position whose index is used
        span: tuple[int, int] | None = None
        best_size: int | None = None
        group: list[Fact] | None = None
        if exact_stamp is not None:
            group = self._groups.get(exact_stamp)
            if group is None:
                return  # an empty delta: nothing to size or build
            best_size = len(group)
        if bound:
            for position, value in bound.items():
                size = self._bucket_size(position, value)
                if best_size is None or size < best_size:
                    served, best_size = position, size
        if ranges:
            for position, probe in ranges.items():
                if bound and position in bound:
                    continue
                obs_count("relation.range_scans")
                low, high = self._span(position, probe)
                size = high - low + len(self._pending[position])
                if best_size is None or size < best_size:
                    served, best_size, span = position, size, (low, high)
        # Materialized so concurrent inserts (derivations landing while
        # a join iterates this view) cannot invalidate it.  The serving
        # index guarantees its own condition, so the filter drops it.
        if served is None:
            candidates = list(self._stamps if group is None else group)
            exact_stamp = None
        elif span is None:
            candidates = self._bucket(served, bound[served])
            bound = {
                position: value
                for position, value in bound.items()
                if position != served
            }
        else:
            candidates = (
                self._ordered[served][1][span[0]:span[1]]
                + self._pending[served]
            )
            ranges = {
                position: probe
                for position, probe in ranges.items()
                if position != served
            }
        stamps = self._stamps
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
        inner = ", ".join(str(fact) for fact in self._stamps)
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
        if actual is PENDING or isinstance(actual, Sym):
            continue  # pending may qualify; symbols fail later in unify
        if not probe.admits(actual):
            return False
    return True
