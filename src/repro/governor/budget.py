"""Resource budgets: declarative limits, a live meter, checkpoints.

A :class:`Budget` declares limits for one run -- a wall-clock
``deadline``, caps on evaluation ``iterations``, constraint-inference
``rewrite_iterations``, stored ``facts``, and ``solver_calls``.  A
:class:`BudgetMeter` is the live counterpart: phases *charge* resource
consumption against it and *checkpoint* the deadline cooperatively (at
iteration and per-rule granularity), and the first limit crossed makes
the meter raise a typed :class:`~repro.errors.BudgetExceeded` carrying
which resource tripped.

Like the observability recorder, the meter is threaded ambiently: the
driver installs it with :func:`governed` and instrumented loops call
the module-level :func:`charge` / :func:`checkpoint` / :func:`tick`
functions, which no-op (one attribute load and an ``is None`` test)
when no meter is installed -- so the hot paths pay nothing by default.
The ambient slot is per-thread (a ``threading.local``), so concurrent
service workers each govern their own request independently.

Enforcement is per resource: once a cap is crossed, every further
charge of *that* resource raises again (so a later phase consuming the
same resource fails fast), and once the deadline passes every
checkpoint raises -- but a fallback phase that consumes a *different*
resource still runs, which is what lets the degradation ladder replace
an iteration-budget-exhausted exact fixpoint with the terminating
widening.  Code that renders partial results after catching the
exception (answer extraction, report export) runs inside
``meter.paused()``, which suspends enforcement without losing the
accounting.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from typing import Callable, Iterator

from repro.errors import BudgetExceeded
from repro.obs.recorder import count as obs_count


#: Budget field name per chargeable resource.
RESOURCE_LIMITS = {
    "iterations": "max_iterations",
    "rewrite_iterations": "max_rewrite_iterations",
    "facts": "max_facts",
    "solver_calls": "max_solver_calls",
}

#: Pre-built obs counter name per resource (budget-consumption
#: counters; they appear on whatever span is open when the charge
#: lands, and in the global metrics registry).
_CONSUMPTION_COUNTERS = {
    resource: f"governor.{resource}" for resource in RESOURCE_LIMITS
}


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one run (``None`` = unlimited).

    ``deadline`` is wall-clock seconds from the meter's creation; the
    integer caps are totals across the whole governed run (all queries
    of a ``run_text`` call share one meter).
    """

    deadline: float | None = None
    max_iterations: int | None = None
    max_rewrite_iterations: int | None = None
    max_facts: int | None = None
    max_solver_calls: int | None = None

    def is_unlimited(self) -> bool:
        """True when no limit is set at all."""
        return all(
            getattr(self, field.name) is None for field in fields(self)
        )

    def meter(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "BudgetMeter":
        """A live meter for this budget (clock injectable for tests)."""
        return BudgetMeter(self, clock=clock)


class BudgetMeter:
    """Live accounting against a :class:`Budget`.

    ``spent`` maps resource name to consumption; ``exhausted`` is the
    first resource that tripped (or ``None``).  The deadline clock
    starts at construction.
    """

    __slots__ = ("budget", "started", "spent", "exhausted", "_clock",
                 "_ticks", "_enforcing")

    #: How many :meth:`tick` calls between deadline checks.
    TICK_STRIDE = 64

    def __init__(
        self,
        budget: Budget,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget
        self._clock = clock
        self.started = clock()
        self.spent: dict[str, int] = {
            resource: 0 for resource in RESOURCE_LIMITS
        }
        self.exhausted: str | None = None
        self._ticks = 0
        self._enforcing = True

    # -- accounting ---------------------------------------------------

    def elapsed(self) -> float:
        """Wall-clock seconds since the meter started."""
        return self._clock() - self.started

    def charge(
        self, resource: str, n: int = 1, phase: str | None = None
    ) -> None:
        """Record consumption; raise when a cap is crossed."""
        self.spent[resource] += n
        obs_count(_CONSUMPTION_COUNTERS[resource], n)
        if not self._enforcing:
            return
        limit = getattr(self.budget, RESOURCE_LIMITS[resource])
        if limit is not None and self.spent[resource] > limit:
            if self.exhausted is None:
                self.exhausted = resource
            self._raise(resource, phase)

    def checkpoint(self, phase: str | None = None) -> None:
        """Cooperative stop point: enforce the deadline."""
        if not self._enforcing:
            return
        deadline = self.budget.deadline
        if deadline is not None and self.elapsed() > deadline:
            if self.exhausted is None:
                self.exhausted = "deadline"
            self._raise("deadline", phase)

    def tick(self, phase: str | None = None) -> None:
        """A cheap checkpoint for hot loops (checks every Nth call)."""
        self._ticks += 1
        if self._ticks % self.TICK_STRIDE == 0:
            self.checkpoint(phase)

    def _raise(self, resource: str, phase: str | None) -> None:
        if resource == "deadline":
            spent: object = round(self.elapsed(), 6)
            limit: object = self.budget.deadline
        else:
            spent = self.spent[resource]
            limit = getattr(self.budget, RESOURCE_LIMITS[resource])
        raise BudgetExceeded(resource, spent=spent, limit=limit,
                             phase=phase)

    # -- enforcement control ------------------------------------------

    @contextmanager
    def paused(self) -> Iterator["BudgetMeter"]:
        """Suspend enforcement (accounting continues) for a block.

        Used by degradation paths that must finish cheap work -- answer
        extraction, report export -- after the budget has tripped.
        """
        previous = self._enforcing
        self._enforcing = False
        try:
            yield self
        finally:
            self._enforcing = previous

    # -- reporting ----------------------------------------------------

    def snapshot(self) -> dict:
        """Machine-readable consumption summary (for run reports)."""
        limits = {
            resource: getattr(self.budget, attr)
            for resource, attr in RESOURCE_LIMITS.items()
        }
        return {
            "elapsed_seconds": round(self.elapsed(), 6),
            "deadline": self.budget.deadline,
            "spent": dict(self.spent),
            "limits": limits,
            "exhausted": self.exhausted,
        }


# -- the ambient meter seam -------------------------------------------
#
# The installed meter is *per-thread*: concurrent service workers each
# govern their own request with their own meter, so one request's
# budget can neither charge nor trip another's.  Single-threaded code
# sees exactly the old global-seam behavior.

_AMBIENT = threading.local()


def current_meter() -> BudgetMeter | None:
    """The ambiently installed meter for this thread, if any."""
    return getattr(_AMBIENT, "meter", None)


def set_meter(meter: BudgetMeter | None) -> None:
    """Install (or clear, with ``None``) this thread's ambient meter."""
    _AMBIENT.meter = meter


@contextmanager
def governed(meter: BudgetMeter | None) -> Iterator[BudgetMeter | None]:
    """Install a meter for the duration of a ``with`` block."""
    previous = current_meter()
    set_meter(meter)
    try:
        yield meter
    finally:
        set_meter(previous)


def paused():
    """Suspend the ambient meter's enforcement for a ``with`` block.

    The module-level face of :meth:`BudgetMeter.paused` (no-op when no
    meter is installed).
    """
    meter = current_meter()
    return meter.paused() if meter is not None else nullcontext()


def charge(resource: str, n: int = 1, phase: str | None = None) -> None:
    """Charge the ambient meter (no-op when none is installed)."""
    meter = current_meter()
    if meter is not None:
        meter.charge(resource, n, phase)


def checkpoint(phase: str | None = None) -> None:
    """Checkpoint the ambient meter (no-op when none is installed)."""
    meter = current_meter()
    if meter is not None:
        meter.checkpoint(phase)


def tick(phase: str | None = None) -> None:
    """Cheap hot-loop checkpoint on the ambient meter."""
    meter = current_meter()
    if meter is not None:
        meter.tick(phase)
