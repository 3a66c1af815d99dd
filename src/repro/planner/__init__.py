"""Strategy selection for ``--strategy auto`` (plan -> adapt).

The paper's optimality results (Theorems 7.8/7.10) bound the useful
rewrite sequences to subsequences of ``pred, qrp, mg``; this package
picks among them automatically instead of relying on a hand-chosen
``--strategy``:

* :mod:`repro.planner.plan` picks by the program's shape (Section 6,
  Tables 1/2): ``optimal`` under value-generating recursion, ``magic``
  when the query binds a constant that reaches recursion, else
  ``none``; the returned :class:`~repro.planner.plan.Plan` also lists
  the candidates a session should measure;
* :mod:`repro.planner.adaptive` measures those candidates per query
  form, converges on the fastest by wall clock, and re-probes on drift
  or EDB growth;
* :mod:`repro.planner.stats` fingerprints the EDB, so persisted
  measurements are trusted only against the database they were taken
  on.
"""

from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.planner.adaptive import AdaptivePlanner, PlanRecord
from repro.planner.plan import Plan, plan_query
from repro.planner.stats import (
    ColumnStats,
    EdbStats,
    RelationStats,
    collect_stats,
)

__all__ = [
    "AdaptivePlanner",
    "ColumnStats",
    "EdbStats",
    "Plan",
    "PlanRecord",
    "RelationStats",
    "STRATEGY_SEQUENCES",
    "collect_stats",
    "plan_query",
]
