"""EDB statistics: the selectivity ground truth the cost model reads.

One pass over a :class:`~repro.engine.database.Database` produces an
:class:`EdbStats`: per relation the cardinality, and per column the
distinct count, the numeric ``[min, max]`` interval, the mode count
(largest single-value frequency -- the worst-case equi-join fan-out),
and the sorted numeric values themselves, so that the tightness of a
constraint selection such as ``T <= 240`` is an exact *count* rather
than an interval-width ratio.

Counting (instead of ``cardinality * overlap/width`` fractions) is a
deliberate design constraint: every primitive here is **monotone under
fact insertion** -- adding facts can only grow ``count_in_range``,
``count_equal`` and the mode count -- which is what makes the cost
model's estimates monotone in the EDB (the planner property tests pin
this down).  A width-ratio estimate is not: one far outlier widens the
column interval and *shrinks* every other selection's estimate.

Restrictions on columns are expressed as :class:`Restriction` values
(an interval and/or a required constant); the per-column selectivity of
the query's bound arguments is then ``restricted_count / cardinality``
(:meth:`RelationStats.tightness`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from repro.engine.database import Database
from repro.engine.facts import is_number
from repro.lang.terms import Sym
from repro.obs.recorder import count as obs_count, span as obs_span


@dataclass(frozen=True)
class Restriction:
    """What a pushed constraint selection says about one column.

    ``lower``/``upper`` bound numeric values (``None`` = unbounded);
    ``equal`` pins the column to one constant (a :class:`Sym` or a
    :class:`~fractions.Fraction`).  The trivial restriction admits
    everything.
    """

    lower: Fraction | None = None
    lower_strict: bool = False
    upper: Fraction | None = None
    upper_strict: bool = False
    equal: object | None = None

    @staticmethod
    def from_bounds(
        lower: Fraction | None,
        lower_strict: bool,
        upper: Fraction | None,
        upper_strict: bool,
    ) -> "Restriction | None":
        """A restriction from ``Conjunction.bounds`` output, if any."""
        if lower is None and upper is None:
            return None
        return Restriction(lower, lower_strict, upper, upper_strict)

    @property
    def is_trivial(self) -> bool:
        return (
            self.lower is None
            and self.upper is None
            and self.equal is None
        )

    def admits(self, value: object) -> bool:
        """Could a fact with this column value satisfy the restriction?"""
        if self.equal is not None:
            return value == self.equal
        if not is_number(value):
            # A symbolic value never satisfies a numeric interval.
            return self.lower is None and self.upper is None
        if self.lower is not None:
            if value < self.lower:
                return False
            if self.lower_strict and value == self.lower:
                return False
        if self.upper is not None:
            if value > self.upper:
                return False
            if self.upper_strict and value == self.upper:
                return False
        return True

    def conjoined(self, other: "Restriction | None") -> "Restriction":
        """The tightest merge of two restrictions on one column."""
        if other is None or other.is_trivial:
            return self
        lower, lower_strict = self.lower, self.lower_strict
        if other.lower is not None and (
            lower is None
            or other.lower > lower
            or (other.lower == lower and other.lower_strict)
        ):
            lower, lower_strict = other.lower, other.lower_strict
        upper, upper_strict = self.upper, self.upper_strict
        if other.upper is not None and (
            upper is None
            or other.upper < upper
            or (other.upper == upper and other.upper_strict)
        ):
            upper, upper_strict = other.upper, other.upper_strict
        equal = self.equal if self.equal is not None else other.equal
        return Restriction(
            lower, lower_strict, upper, upper_strict, equal
        )


@dataclass(frozen=True)
class ColumnStats:
    """Distribution summary of one argument position of one relation."""

    distinct: int
    numeric_count: int
    symbolic_count: int
    minimum: Fraction | None
    maximum: Fraction | None
    #: Largest single-value frequency across all values (numeric and
    #: symbolic): the worst-case fan-out of an equi-join on this column.
    mode_count: int
    #: All numeric values, sorted (duplicates kept), so interval
    #: tightness is an exact count.
    values: tuple[Fraction, ...] = field(repr=False)

    def count_in_range(
        self,
        lower: Fraction | None,
        lower_strict: bool,
        upper: Fraction | None,
        upper_strict: bool,
    ) -> int:
        """How many stored values fall in the interval (exact)."""
        left = 0
        if lower is not None:
            cut = bisect_right if lower_strict else bisect_left
            left = cut(self.values, lower)
        right = len(self.values)
        if upper is not None:
            cut = bisect_left if upper_strict else bisect_right
            right = cut(self.values, upper)
        return max(0, right - left)

    def count_equal(self, value: object) -> int:
        """How many stored facts carry exactly this column value.

        Exact for numeric constants; for symbolic constants the mode
        count is the (monotone) upper estimate -- per-symbol counts are
        not retained.
        """
        if is_number(value):
            return self.count_in_range(value, False, value, False)
        return self.mode_count

    def count_restricted(self, restriction: Restriction) -> int:
        """Values admitted by a :class:`Restriction` (monotone count)."""
        if restriction.equal is not None:
            return self.count_equal(restriction.equal)
        if restriction.lower is None and restriction.upper is None:
            return self.numeric_count + self.symbolic_count
        return self.count_in_range(
            restriction.lower,
            restriction.lower_strict,
            restriction.upper,
            restriction.upper_strict,
        )


@dataclass(frozen=True)
class RelationStats:
    """Cardinality and per-column statistics of one EDB relation."""

    pred: str
    arity: int
    cardinality: int
    columns: tuple[ColumnStats, ...]

    def restricted_count(
        self, restrictions: "tuple[Restriction | None, ...]"
    ) -> int:
        """Facts that can satisfy every per-column restriction.

        The minimum over the per-column admitted counts (and the
        cardinality): the count version of independent selectivities,
        chosen because the minimum of monotone counts stays monotone
        under fact insertion and under adding further restrictions.
        """
        result = self.cardinality
        for position, restriction in enumerate(restrictions):
            if restriction is None or restriction.is_trivial:
                continue
            if position >= self.arity:
                continue
            result = min(
                result,
                self.columns[position].count_restricted(restriction),
            )
        return result

    def tightness(
        self, restrictions: "tuple[Restriction | None, ...]"
    ) -> float:
        """Selectivity in ``[0, 1]`` of the restrictions (1 = no cut)."""
        if self.cardinality == 0:
            return 1.0
        return self.restricted_count(restrictions) / self.cardinality

    def join_fanout(self, position: int) -> int:
        """Matches one bound value can find at a column (>= 1)."""
        if position >= self.arity:
            return max(1, self.cardinality)
        return max(1, self.columns[position].mode_count)


@dataclass
class EdbStats:
    """A point-in-time statistical snapshot of one EDB."""

    relations: dict[str, RelationStats]
    total_facts: int

    def relation(self, pred: str) -> RelationStats | None:
        return self.relations.get(pred)

    def cardinality(self, pred: str) -> int:
        stats = self.relations.get(pred)
        return stats.cardinality if stats is not None else 0

    def fingerprint(self) -> str:
        """A deterministic digest of the snapshot's shape.

        Plans record it so divergence between the stats a plan was
        built from and the live EDB is detectable.
        """
        digest = hashlib.sha256()
        for pred in sorted(self.relations):
            stats = self.relations[pred]
            digest.update(
                f"{pred}/{stats.arity}#{stats.cardinality};".encode()
            )
            for column in stats.columns:
                digest.update(
                    f"{column.distinct},{column.mode_count},"
                    f"{column.minimum},{column.maximum};".encode()
                )
        return digest.hexdigest()[:12]

    def as_dict(self) -> dict:
        """A JSON-ready summary (no raw values) for stats endpoints."""
        return {
            "total_facts": self.total_facts,
            "fingerprint": self.fingerprint(),
            "relations": {
                pred: {
                    "arity": stats.arity,
                    "cardinality": stats.cardinality,
                    "columns": [
                        {
                            "distinct": column.distinct,
                            "mode_count": column.mode_count,
                            "min": (
                                str(column.minimum)
                                if column.minimum is not None
                                else None
                            ),
                            "max": (
                                str(column.maximum)
                                if column.maximum is not None
                                else None
                            ),
                        }
                        for column in stats.columns
                    ],
                }
                for pred, stats in sorted(self.relations.items())
            },
        }


def _column_stats(values: list[object]) -> ColumnStats:
    numeric = sorted(v for v in values if is_number(v))
    symbolic = sum(1 for v in values if isinstance(v, Sym))
    counts: dict[object, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return ColumnStats(
        distinct=len(counts),
        numeric_count=len(numeric),
        symbolic_count=symbolic,
        minimum=numeric[0] if numeric else None,
        maximum=numeric[-1] if numeric else None,
        mode_count=max(counts.values(), default=0),
        values=tuple(numeric),
    )


def collect_stats(database: Database | None) -> EdbStats:
    """One statistics pass over a database (``None`` = empty EDB)."""
    with obs_span("planner.stats"):
        obs_count("planner.stats_collections")
        relations: dict[str, RelationStats] = {}
        total = 0
        if database is not None:
            for pred in database.predicates():
                facts = database.facts(pred)
                if not facts:
                    continue
                arity = len(facts[0].args)
                columns = tuple(
                    _column_stats(
                        [fact.args[position] for fact in facts]
                    )
                    for position in range(arity)
                )
                relations[pred] = RelationStats(
                    pred=pred,
                    arity=arity,
                    cardinality=len(facts),
                    columns=columns,
                )
                total += len(facts)
        return EdbStats(relations=relations, total_facts=total)
