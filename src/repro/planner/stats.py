"""EDB statistics: the snapshot a session's planner records are keyed on.

One pass over a :class:`~repro.engine.database.Database` produces an
:class:`EdbStats`: per relation the cardinality, and per column the
distinct count, the numeric ``[min, max]`` interval and the mode count
(largest single-value frequency).  The adaptive planner reads two
things off it: :meth:`EdbStats.fingerprint`, which ties persisted
measurements to the database they were taken against, and
``total_facts``, whose growth triggers a re-plan.
"""

from __future__ import annotations

import hashlib
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

    def fingerprint(self) -> str:
        """A deterministic digest of the snapshot's shape.

        Persisted planner records carry it so a record measured
        against another database is detectable.
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
        """A JSON-ready summary for stats endpoints."""
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
