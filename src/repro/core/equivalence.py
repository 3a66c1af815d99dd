"""Randomized query-equivalence checking between programs.

The paper's transformations promise query equivalence *on all input
EDBs* (Theorems 4.3, 4.6, 6.2, 7.x). That is not decidable in general,
but it is cheaply *refutable*: generate random EDBs and compare query
answers. This module packages that differential check as a public
utility -- the same machinery the test suite uses -- so downstream
users can validate their own rewritings.

``check_query_equivalent`` returns a report rather than asserting, so
it can be used both in tests (assert ``report.equivalent``) and
interactively (inspect ``report.counterexample``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.database import Database
from repro.engine.fixpoint import evaluate
from repro.engine.query import answers_as
from repro.lang.ast import Program, Query


EdbGenerator = Callable[[random.Random], Database]


@dataclass
class EquivalenceReport:
    """The outcome of a randomized equivalence check."""

    equivalent: bool
    trials: int
    counterexample: Database | None = None
    left_answers: frozenset[str] = frozenset()
    right_answers: frozenset[str] = frozenset()
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent


def _answers_of(
    program: Program,
    query: Query,
    edb: Database,
    query_pred: str,
    max_iterations: int,
) -> frozenset[str] | None:
    result = evaluate(program, edb, max_iterations=max_iterations)
    if not result.reached_fixpoint:
        return None
    return frozenset(
        str(fact)
        for fact in answers_as(result.database, query, query_pred)
    )


def check_query_equivalent(
    left: Program,
    right: Program,
    query: Query,
    edb_generator: EdbGenerator,
    trials: int = 20,
    seed: int = 0,
    left_query_pred: str | None = None,
    right_query_pred: str | None = None,
    max_iterations: int = 100,
) -> EquivalenceReport:
    """Compare two programs' query answers over random EDBs.

    ``left_query_pred`` / ``right_query_pred`` rename the query for
    programs whose transformations renamed the query predicate (e.g.
    adorned ones). Trials whose evaluation hits the iteration cap are
    skipped with a note (non-termination is a property of the program,
    not an inequivalence witness).
    """
    rng = random.Random(seed)
    report = EquivalenceReport(equivalent=True, trials=0)
    lq = left_query_pred or query.literal.pred
    rq = right_query_pred or query.literal.pred
    for __ in range(trials):
        edb = edb_generator(rng)
        left_answers = _answers_of(
            left, query, edb, lq, max_iterations
        )
        right_answers = _answers_of(
            right, query, edb, rq, max_iterations
        )
        if left_answers is None or right_answers is None:
            report.notes.append(
                "trial skipped: evaluation hit the iteration cap"
            )
            continue
        report.trials += 1
        if left_answers != right_answers:
            report.equivalent = False
            report.counterexample = edb
            report.left_answers = left_answers
            report.right_answers = right_answers
            break
    return report


def tuples_generator(
    schema: dict[str, int],
    max_value: int = 8,
    max_rows: int = 10,
) -> EdbGenerator:
    """A generator of random numeric EDBs for the given schema.

    ``schema`` maps EDB predicate names to arities.
    """

    def generate(rng: random.Random) -> Database:
        """Generate one random EDB."""
        database = Database()
        for pred, arity in schema.items():
            for __ in range(rng.randint(0, max_rows)):
                database.add_ground(
                    pred,
                    tuple(
                        rng.randint(0, max_value) for __ in range(arity)
                    ),
                )
        return database

    return generate


def edb_schema_of(program: Program) -> dict[str, int]:
    """The EDB predicates and arities a program expects."""
    return {
        pred: program.arity(pred)
        for pred in sorted(program.edb_predicates())
    }


def check_rewriting(
    original: Program,
    rewritten: Program,
    query: Query,
    trials: int = 20,
    seed: int = 0,
    max_value: int = 8,
    max_rows: int = 10,
    rewritten_query_pred: str | None = None,
) -> EquivalenceReport:
    """Convenience wrapper: random numeric EDBs from the program's schema."""
    generator = tuples_generator(
        edb_schema_of(original), max_value=max_value, max_rows=max_rows
    )
    return check_query_equivalent(
        original,
        rewritten,
        query,
        generator,
        trials=trials,
        seed=seed,
        right_query_pred=rewritten_query_pred,
    )
