"""EDB statistics, which the ``auto`` pick does not read.

One pass over a :class:`~repro.engine.database.Database` produces an
:class:`EdbStats`: per relation the cardinality, and per column the
distinct count, the numeric ``[min, max]`` interval and the mode count
(largest single-value frequency).

Nothing in the package calls :func:`collect_stats`: the pick
(:mod:`repro.planner.plan`) is a function of the program and the query.
It stays only because the ruler's traced pass
(``benchmarks/perf/trace.py`` ``PROBES``) names
``repro.planner.stats:collect_stats``.  ROADMAP item 3's benchmark
change drops that probe, and this module goes with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.engine.database import Database
from repro.engine.facts import is_number
from repro.obs.recorder import count as obs_count, span as obs_span


@dataclass(frozen=True)
class ColumnStats:
    """Distribution summary of one argument position of one relation."""

    distinct: int
    minimum: Fraction | None
    maximum: Fraction | None
    #: Largest single-value frequency across all values (numeric and
    #: symbolic).
    mode_count: int


@dataclass(frozen=True)
class RelationStats:
    """Cardinality and per-column statistics of one EDB relation."""

    pred: str
    arity: int
    cardinality: int
    columns: tuple[ColumnStats, ...]


@dataclass
class EdbStats:
    """A point-in-time statistical snapshot of one EDB."""

    relations: dict[str, RelationStats]
    total_facts: int

    def relation(self, pred: str) -> RelationStats | None:
        return self.relations.get(pred)


def _column_stats(values: list[object]) -> ColumnStats:
    numeric = sorted(v for v in values if is_number(v))
    counts: dict[object, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return ColumnStats(
        distinct=len(counts),
        minimum=numeric[0] if numeric else None,
        maximum=numeric[-1] if numeric else None,
        mode_count=max(counts.values(), default=0),
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
