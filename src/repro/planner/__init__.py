"""Strategy selection for ``--strategy auto``.

The paper's optimality results (Theorems 7.8/7.10) bound the useful
rewrite sequences to subsequences of ``pred, qrp, mg``; this package
picks among them automatically instead of relying on a hand-chosen
``--strategy``.  :mod:`repro.planner.plan` picks by the program's shape
(Section 6, Tables 1/2): ``optimal`` under value-generating recursion,
``magic`` when the query binds a constant that reaches recursion, else
``none``.  A one-shot run and a session's query form alike run that
pick; nothing is measured or re-planned.
"""

from repro.core.pipeline import STRATEGY_SEQUENCES
from repro.planner.plan import Plan, plan_query

__all__ = [
    "Plan",
    "STRATEGY_SEQUENCES",
    "plan_query",
]
