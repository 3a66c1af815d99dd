"""Deterministic fault injection at the observability recorder seam.

Every phase of the pipeline already announces itself through the
recorder seam (``obs.span("fixpoint")``, ``obs.count("constraint.
sat_checks")``, ...).  That seam is therefore the one place where a
test harness can deterministically perturb any phase without patching
library internals: a :class:`FaultyRecorder` wraps a real (or no-op)
recorder and fires configured :class:`Fault`\\ s when matching events
pass through it:

* ``delay`` -- sleep for a fixed time at a span/counter site
  (simulates slow solvers and I/O; with a ``deadline`` budget it
  exercises every deadline checkpoint);
* ``fail``  -- raise a typed :class:`~repro.errors.InjectedFault` at
  the *n*-th matching occurrence (simulates a crashing solver call or
  phase);
* ``pressure`` -- charge the ambient budget meter extra consumption
  (simulates resource pressure; budgets trip earlier but still
  deterministically);
* ``write`` / ``fsync`` -- raise ``OSError(EIO)`` at a *filesystem*
  site (simulates a full or failing disk exactly where the durability
  layer touches it).  The snapshotter announces every write and fsync
  through the recorder seam as ``fs.write.<site>`` / ``fs.fsync.<site>``
  events; the site classes are closed (:data:`FS_FAULT_SITES`:
  ``wal``, ``snapshot``, ``compact``, ``manifest``, ``dir``) and an
  unknown class is a parse error, so a typo'd chaos spec fails loudly
  instead of silently never firing;
* ``hang`` / ``garble`` -- *protocol-level* faults at the shard frame
  seam (simulates gray failure: a worker that is alive but
  unresponsive, or one whose replies arrive damaged).  Sites are the
  closed set of shard ops (:data:`OP_FAULT_SITES`); a shard worker
  announces ``shard.op.<op>`` before handling each op (where ``hang``
  sleeps forever, pinning the worker until the coordinator's deadline
  or heartbeat machinery SIGKILLs it) and consults
  :meth:`FaultyRecorder.consume` at ``shard.reply.<op>`` before
  writing each reply (where ``garble`` corrupts the reply frame so the
  coordinator's CRC check must catch it).

Faults are matched by ``fnmatch`` pattern against the event name and
fire on occurrence counts, so a run with a fixed program and plan is
fully reproducible.  Plans parse from compact text specs
(``fail:constraint.sat_checks:5;delay:iteration:0.01``) so the CLI
(``--faults``) and CI (``REPRO_FAULTS``) can enable them without code.
"""

from __future__ import annotations

import errno
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Callable

from repro.errors import InjectedFault, UsageError
from repro.governor import budget as governor
from repro.obs.recorder import NULL_RECORDER

#: The closed set of filesystem fault site classes the durability
#: layer announces (``fs.write.<site>`` / ``fs.fsync.<site>`` events
#: in :mod:`repro.serve.snapshot`): ``wal`` -- fact-log appends;
#: ``snapshot`` -- checkpoint file writes; ``compact`` -- log
#: compaction/rewrite; ``manifest`` -- cluster manifest writes
#: (:mod:`repro.shard.snapshot`); ``dir`` -- directory fsyncs after
#: renames.
FS_FAULT_SITES = ("wal", "snapshot", "compact", "manifest", "dir")

#: The closed set of shard protocol ops the ``hang``/``garble`` fault
#: kinds can target (:mod:`repro.shard.worker` announces
#: ``shard.op.<op>`` / ``shard.reply.<op>`` events at the frame seam).
OP_FAULT_SITES = (
    "recover",
    "load",
    "checkpoint",
    "q_start",
    "q_round",
    "q_answers",
    "q_finish",
    "stats",
    "healthz",
    "ping",
    "shutdown",
)

_FAULT_KINDS = (
    "delay", "fail", "pressure", "write", "fsync", "hang", "garble",
)

#: How long one ``hang`` sleep chunk lasts.  A hung worker sleeps in
#: chunks forever (it never returns); the chunking only matters for
#: injectable test sleepers.
HANG_CHUNK_SECONDS = 60.0


@dataclass(frozen=True)
class Fault:
    """One deterministic fault.

    ``site`` is an ``fnmatch`` pattern over event names (span names and
    counter names share one namespace).  The fault fires on the
    ``nth``-th matching occurrence (1-based) and on every later one up
    to ``times`` total firings (``None`` = unlimited).
    """

    kind: str                       # one of _FAULT_KINDS
    site: str
    nth: int = 1
    times: int | None = None
    seconds: float = 0.0            # delay amount
    resource: str = "solver_calls"  # pressure target
    amount: int = 1                 # pressure amount

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise UsageError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact text plan.

        ``spec`` is ``;``-separated faults, each ``kind:site[:args]``:

        * ``delay:<site>[:<seconds>]`` -- every occurrence;
        * ``fail:<site>[:<nth>[:<times>]]`` -- from the nth occurrence
          (default 1), firing ``times`` total (default 1; ``*`` =
          unlimited);
        * ``pressure:<site>:<resource>*<amount>`` -- every occurrence;
        * ``write:<site>[:<nth>[:<times>]]`` / ``fsync:<site>[:<nth>
          [:<times>]]`` -- raise ``OSError(EIO)`` at the named
          filesystem site class (one of :data:`FS_FAULT_SITES`, or
          ``*`` for all).  Unlike ``fail``, the default firing count
          is unlimited: a failed disk stays failed, which is what the
          degraded-mode machinery must survive;
        * ``hang:<op>[:<nth>[:<times>]]`` / ``garble:<op>[:<nth>
          [:<times>]]`` -- protocol faults at a shard frame-seam op
          (one of :data:`OP_FAULT_SITES`, or ``*``): ``hang`` sleeps
          forever at the op's ``shard.op.<op>`` announcement (the
          worker is alive but never replies -- the coordinator's
          hang detection must SIGKILL and respawn it), ``garble``
          corrupts the ``shard.reply.<op>`` frame so the reader's
          CRC check rejects it.  Default firing count 1, like
          ``fail``.

        Filesystem sites are a *closed* class set: an unknown site is
        a parse error here, never a pattern that silently matches
        nothing.

        Every malformed spec raises a ``REPRO_USAGE``
        :class:`~repro.errors.UsageError` naming the offending token.
        """
        faults: list[Fault] = []
        for part in spec.split(";"):
            part = part.strip()
            if part:
                faults.append(cls._parse_fault(part))
        return cls(tuple(faults))

    @staticmethod
    def _parse_fault(part: str) -> Fault:
        def malformed(detail: str) -> UsageError:
            return UsageError(f"malformed fault spec {part!r}: {detail}")

        def parse_number(token: str, what: str, *, integer: bool):
            try:
                value = int(token) if integer else float(token)
            except ValueError:
                raise malformed(
                    f"{what} must be a number, got {token!r}"
                ) from None
            if value < 0 or not math.isfinite(value):
                raise malformed(f"{what} must be >= 0, got {token!r}")
            return value

        def parse_occurrences(
            args: list[str], default_times: int | None
        ) -> tuple[int, int | None]:
            nth = (
                parse_number(args[0], "occurrence", integer=True)
                if args and args[0] else 1
            )
            if nth < 1:
                raise malformed(
                    f"occurrence must be >= 1, got {args[0]!r}"
                )
            times = default_times
            if len(args) > 1 and args[1]:
                if args[1] == "*":
                    times = None
                else:
                    times = parse_number(
                        args[1], "firing count", integer=True
                    )
                    if times < 1:
                        raise malformed(
                            f"firing count must be >= 1, got {args[1]!r}"
                        )
            return nth, times

        pieces = [piece.strip() for piece in part.split(":")]
        kind = pieces[0]
        if kind not in _FAULT_KINDS:
            raise malformed(
                f"unknown fault kind {kind!r} "
                f"(expected one of {', '.join(_FAULT_KINDS)})"
            )
        if len(pieces) < 2 or not pieces[1]:
            raise malformed("missing site pattern")
        site = pieces[1]
        args = pieces[2:]
        if kind == "delay":
            if len(args) > 1:
                raise malformed(f"unexpected token {args[1]!r}")
            seconds = (
                parse_number(args[0], "delay seconds", integer=False)
                if args and args[0] else 0.0
            )
            return Fault(kind, site, seconds=seconds)
        if kind == "fail":
            if len(args) > 2:
                raise malformed(f"unexpected token {args[2]!r}")
            nth, times = parse_occurrences(args, default_times=1)
            return Fault(kind, site, nth=nth, times=times)
        if kind in ("write", "fsync"):
            if len(args) > 2:
                raise malformed(f"unexpected token {args[2]!r}")
            if site != "*" and site not in FS_FAULT_SITES:
                raise malformed(
                    f"unknown filesystem fault site {site!r} (expected "
                    f"one of {', '.join(FS_FAULT_SITES)}, or *)"
                )
            nth, times = parse_occurrences(args, default_times=None)
            return Fault(kind, f"fs.{kind}.{site}", nth=nth, times=times)
        if kind in ("hang", "garble"):
            if len(args) > 2:
                raise malformed(f"unexpected token {args[2]!r}")
            if site != "*" and site not in OP_FAULT_SITES:
                raise malformed(
                    f"unknown protocol fault op {site!r} (expected "
                    f"one of {', '.join(OP_FAULT_SITES)}, or *)"
                )
            nth, times = parse_occurrences(args, default_times=1)
            seam = "shard.op" if kind == "hang" else "shard.reply"
            return Fault(kind, f"{seam}.{site}", nth=nth, times=times)
        # pressure
        if len(args) != 1 or not args[0]:
            raise malformed(
                "expected pressure:<site>:<resource>*<amount>"
            )
        resource, __, amount_text = args[0].partition("*")
        if resource not in governor.RESOURCE_LIMITS:
            raise malformed(
                f"unknown pressure resource {resource!r} (expected one "
                f"of {sorted(governor.RESOURCE_LIMITS)})"
            )
        amount = (
            parse_number(amount_text, "pressure amount", integer=True)
            if amount_text else 1
        )
        if amount < 1:
            raise malformed(
                f"pressure amount must be >= 1, got {amount_text!r}"
            )
        return Fault(kind, site, resource=resource, amount=amount)


class FaultyRecorder:
    """A recorder wrapper that fires a :class:`FaultPlan`.

    Implements the recorder protocol (``span``/``count``/
    ``record_time``) by delegating to ``inner`` after consulting the
    plan.  ``sleeper`` is injectable so tests can observe delays
    without real waiting.  ``fired`` logs every firing as
    ``(kind, site-pattern, event-name, occurrence)`` for assertions.
    """

    def __init__(
        self,
        plan: FaultPlan,
        inner=NULL_RECORDER,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self.inner = inner
        self.sleeper = sleeper
        self.occurrences: Counter = Counter()
        self.fired: list[tuple[str, str, str, int]] = []
        self._firings: Counter = Counter()  # per-fault firing counts
        # Occurrence counting must stay exact when events arrive from
        # concurrent serving workers; the lock covers only the counter
        # bookkeeping -- delays and charges run outside it.
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Mirror the wrapped recorder's enabled flag."""
        return getattr(self.inner, "enabled", False)

    # -- the recorder protocol ----------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a span on the inner recorder, after firing faults."""
        self._event(name)
        return self.inner.span(name, **attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Forward a counter increment, after firing faults."""
        self._event(name)
        self.inner.count(name, n)

    def record_time(self, name: str, seconds: float) -> None:
        """Forward a timing observation (never faulted)."""
        self.inner.record_time(name, seconds)

    # -- fault dispatch -----------------------------------------------

    def _event(self, name: str) -> None:
        if name.startswith("governor."):
            # Budget charges themselves emit governor.* counters;
            # faulting those would recurse (pressure -> charge ->
            # counter -> pressure).  The governor is the harness, not
            # a fault site.
            return
        firing: list[Fault] = []
        with self._lock:
            self.occurrences[name] += 1
            occurrence = self.occurrences[name]
            for index, fault in enumerate(self.plan.faults):
                if fault.kind == "garble":
                    continue  # consumed at the frame seam, never here
                if not fnmatch(name, fault.site):
                    continue
                if occurrence < fault.nth:
                    continue
                if (
                    fault.times is not None
                    and self._firings[index] >= fault.times
                ):
                    continue
                self._firings[index] += 1
                self.fired.append(
                    (fault.kind, fault.site, name, occurrence)
                )
                firing.append(fault)
                if fault.kind in ("fail", "write", "fsync", "hang"):
                    # A raise (or an endless hang) abandons the event;
                    # later faults in the plan are not charged a
                    # firing for it.
                    break
        for fault in firing:
            if fault.kind == "delay":
                self.sleeper(fault.seconds)
            elif fault.kind == "pressure":
                governor.charge(fault.resource, fault.amount,
                                phase=f"fault:{name}")
            elif fault.kind == "hang":
                # Alive but unresponsive, forever: the gray-failure
                # mode deadline-bounded RPC must detect.  Only a
                # signal (the coordinator's SIGKILL) ends it.
                while True:
                    self.sleeper(HANG_CHUNK_SECONDS)
            elif fault.kind in ("write", "fsync"):
                raise OSError(
                    errno.EIO,
                    f"injected {fault.kind} fault at {name!r} "
                    f"(occurrence {occurrence})",
                )
            else:  # fail
                raise InjectedFault(name, occurrence)

    def consume(self, kind: str, name: str) -> bool:
        """Whether a ``kind`` fault fires for this ``name`` occurrence.

        The non-raising side channel for faults that must be *acted
        on* by the announcing code rather than thrown through it --
        today the ``garble`` kind, consulted by the shard worker
        before writing each reply frame.  Counts an occurrence of
        ``name`` and charges the firing exactly like :meth:`_event`.
        """
        with self._lock:
            self.occurrences[name] += 1
            occurrence = self.occurrences[name]
            for index, fault in enumerate(self.plan.faults):
                if fault.kind != kind:
                    continue
                if not fnmatch(name, fault.site):
                    continue
                if occurrence < fault.nth:
                    continue
                if (
                    fault.times is not None
                    and self._firings[index] >= fault.times
                ):
                    continue
                self._firings[index] += 1
                self.fired.append(
                    (fault.kind, fault.site, name, occurrence)
                )
                return True
        return False


def faulty_recorder(spec: str | None, inner=NULL_RECORDER):
    """``inner`` firing the ``--faults`` plan ``spec``; ``inner``
    itself when there is none.  A malformed spec raises
    ``REPRO_USAGE``."""
    if not spec:
        return inner
    return FaultyRecorder(FaultPlan.from_spec(spec), inner=inner)
