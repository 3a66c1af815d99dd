"""Bottom-up evaluation of CQL programs over constraint facts.

The engine implements the rule-application step of Section 2: choose a
fact for each body literal, conjoin the argument equalities with the
rule's constraints and the facts' constraints, check satisfiability, and
eliminate the non-head variables by exact quantifier elimination.  Facts
may be ground or *constraint facts* ``p(X̄; C)``; newly derived facts
are discarded when subsumed by previously known ones.

Both naive and semi-naive fixpoint evaluation are provided, with
per-iteration derivation logs on request (``provenance=True``; used to
regenerate the paper's Tables 1 and 2) and an iteration cap so that
non-terminating evaluations -- a phenomenon the paper studies -- are a
reportable outcome rather than a hang.
"""

from repro.engine.facts import Fact, PENDING, Value
from repro.engine.database import Database
from repro.engine.relation import InsertOutcome, Relation
from repro.engine.fixpoint import (
    EvaluationResult,
    IterationLog,
    evaluate,
    naive_evaluate,
    resume,
    seminaive_evaluate,
)
from repro.engine.stats import EvalStats

__all__ = [
    "Fact",
    "PENDING",
    "Value",
    "Database",
    "Relation",
    "InsertOutcome",
    "evaluate",
    "naive_evaluate",
    "resume",
    "seminaive_evaluate",
    "EvaluationResult",
    "IterationLog",
    "EvalStats",
]
