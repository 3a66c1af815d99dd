"""The benchmark's own tracer: spans at layer boundaries, from outside.

Nothing here is used by the program under test and ``repro.obs`` is
not used for times (its spans live *inside* the program, where the
next PRs will move them).  A traced run instead

* wraps every op the driver loop issues in an *op span* carrying the
  op's index as request id, and
* installs *probes* on a fixed list of public callables
  (:data:`PROBES`) by rebinding the name in every ``repro.*`` module
  namespace that holds it, or on the class for methods.

A probe pushes a frame on a per-thread stack; when it returns, its
duration is charged to its parent frame as child time, so each name
accumulates ``calls``, ``total`` and ``self`` (total minus children)
nanoseconds.  Probes marked ``record`` also keep a span event (name,
start, end, parent, request id, thread) for the Chrome trace; the hot
leaf calls (index probes, inserts, solver calls) only aggregate.

Shard worker subprocesses are opaque to this tracer: only the round
trips to them are visible.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter_ns


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[list] = []
        self.agg: dict[str, list[int]] = {}
        self.events: list[tuple] = []
        self.request: "int | None" = None
        self.spans = 0


class Tracer:
    """Per-thread frame stacks, aggregated on :meth:`drain`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        #: Counts read off return values at the probe boundaries.
        self.counts: Counter = Counter()
        self.events: list[tuple] = []
        self.origin = _now()

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def enter(self, name: str) -> tuple[_ThreadState, list]:
        state = self.state()
        state.spans += 1
        frame = [name, _now(), 0, state.spans]
        state.stack.append(frame)
        return state, frame

    def leave(
        self, state: _ThreadState, frame: list, record: bool
    ) -> int:
        end = _now()
        state.stack.pop()
        name, start, children, span_id = frame
        duration = end - start
        totals = state.agg.get(name)
        if totals is None:
            totals = state.agg[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - children
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            state.events.append((
                name,
                start,
                end,
                parent[3] if parent is not None else 0,
                span_id,
                state.request,
                state.index,
            ))
        return duration

    def op(self, name: str, request: int) -> "_OpSpan":
        """The driver loop's span around one op (sets the request id)."""
        return _OpSpan(self, name, request)

    def drain(self) -> tuple[dict[str, list[int]], Counter, list]:
        """(aggregates, counts, span events) since the last drain."""
        merged: dict[str, list[int]] = {}
        events: list[tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, totals in state.agg.items():
                into = merged.setdefault(name, [0, 0, 0])
                for index in range(3):
                    into[index] += totals[index]
            state.agg = {}
            events.extend(state.events)
            state.events = []
        counts, self.counts = self.counts, Counter()
        self.events.extend(events)
        return merged, counts, events

    def write_chrome_trace(self, path: str) -> None:
        """Every recorded span as Chrome trace-event JSON."""
        self.drain()
        trace = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self.origin) / 1000,
                "dur": (end - start) / 1000,
                "pid": 1,
                "tid": thread,
                "args": {
                    "span": span_id,
                    "parent": parent,
                    "request": request,
                },
            }
            for name, start, end, parent, span_id, request, thread
            in self.events
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": trace}, handle)


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str, request: int) -> None:
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self) -> None:
        self.state, self.frame = self.tracer.enter(self.name)
        self.state.request = self.request

    def __exit__(self, *exc_info) -> None:
        self.tracer.leave(self.state, self.frame, record=True)
        self.state.request = None


# -- probes -------------------------------------------------------------


def _engine_counts(tracer, args, result, duration) -> None:
    stats = result.stats
    tracer.counts["engine.derivations"] += stats.derivations
    tracer.counts["engine.probes"] += stats.probes
    tracer.counts["engine.facts_new"] += stats.new_facts
    tracer.counts["engine.iterations"] += stats.iterations


def _optimize_counts(tracer, args, result, duration) -> None:
    tracer.counts["core.rules_out"] += len(result[0])
    stack = tracer.state().stack
    if any(frame[0].startswith("service.") for frame in stack):
        tracer.counts["service.compile_ns"] += duration


def _call_counts(tracer, args, result, duration) -> None:
    op = args[1].get("op")
    if op == "ping":
        return  # heartbeats are the cluster's, not the workload's
    tracer.counts["shard.calls"] += 1
    tracer.counts["shard.call_ns"] += duration
    tracer.counts[f"shard.call_ns.{op}"] += duration


@dataclass(frozen=True)
class Probe:
    """One public callable to wrap: ``module:name`` or
    ``module:Class.name``, the aggregate key it reports under,
    whether it keeps span events, and an optional count hook."""

    target: str
    key: str
    record: bool = True
    hook: "Callable | None" = None
    kind: str = "call"


PROBES = (
    Probe("repro.lang.parser:parse_program", "lang.parse"),
    Probe("repro.lang.parser:parse_query", "lang.parse"),
    Probe("repro.lang.parser:parse_program_and_queries", "lang.parse"),
    Probe("repro.driver:optimize", "core.optimize",
          hook=_optimize_counts),
    Probe("repro.core.predconstraints:gen_prop_predicate_constraints",
          "core.pred"),
    Probe("repro.core.qrp:gen_prop_qrp_constraints", "core.qrp"),
    Probe("repro.magic.templates:magic_rewrite", "magic.rewrite"),
    Probe("repro.magic.templates:constraint_magic", "magic.rewrite"),
    Probe("repro.planner.stats:collect_stats", "planner.plan"),
    Probe("repro.planner.plan:plan_query", "planner.plan"),
    Probe("repro.constraints.conjunction:Conjunction.project",
          "constraints.project", record=False),
    Probe("repro.constraints.conjunction:Conjunction.is_satisfiable",
          "constraints.sat", record=False),
    Probe("repro.constraints.conjunction:Conjunction.implies_atom",
          "constraints.implies", record=False),
    Probe("repro.constraints.conjunction:Conjunction.implies_set",
          "constraints.implies", record=False),
    Probe("repro.engine.fixpoint:evaluate", "engine.evaluate",
          hook=_engine_counts),
    Probe("repro.engine.fixpoint:resume", "engine.resume",
          hook=_engine_counts),
    Probe("repro.engine.relation:Relation.matching", "engine.matching",
          record=False, kind="generator"),
    Probe("repro.engine.relation:Relation.insert", "engine.insert",
          record=False),
    Probe("repro.service.session:Session.query", "service.query"),
    Probe("repro.service.session:Session.add_facts",
          "service.add_facts"),
    Probe("repro.service.session:Session.prepare", "service.prepare"),
    Probe("repro.serve.snapshot:Snapshotter.append_log",
          "serve.wal_append"),
    Probe("repro.serve.snapshot:Snapshotter.snapshot",
          "serve.checkpoint"),
    Probe("repro.serve.snapshot:Snapshotter.recover", "serve.recover"),
    Probe("repro.shard.coordinator:ShardCoordinator.query",
          "shard.coordinator"),
    Probe("repro.shard.coordinator:ShardCoordinator.add_facts",
          "shard.coordinator"),
    Probe("repro.shard.coordinator:ShardCoordinator.checkpoint",
          "shard.coordinator"),
    Probe("repro.shard.coordinator:ShardClient.spawn", "shard.spawn"),
    Probe("repro.shard.coordinator:ShardClient.call", "shard.call",
          hook=_call_counts),
    Probe("repro.shard.protocol:write_frame", "shard.write_frame",
          record=False, kind="frame"),
)


class _CountingStream:
    """Counts the bytes ``write_frame`` puts on a worker's pipe."""

    def __init__(self, stream, counts: Counter) -> None:
        self._stream, self._counts = stream, counts

    def write(self, data: bytes) -> int:
        self._counts["shard.frame_bytes"] += len(data)
        return self._stream.write(data)

    def flush(self) -> None:
        self._stream.flush()


def _wrap(tracer: Tracer, original: Callable, probe: Probe) -> Callable:
    key, record, hook = probe.key, probe.record, probe.hook
    counts_frames = probe.kind == "frame"

    if probe.kind == "generator":

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            # Time only what the generator itself spends between
            # yields; the consumer's time belongs to the caller.
            spent = 0
            iterator = original(*args, **kwargs)
            try:
                while True:
                    started = _now()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        spent += _now() - started
                        return
                    spent += _now() - started
                    yield item
            finally:
                state = tracer.state()
                totals = state.agg.get(key)
                if totals is None:
                    totals = state.agg[key] = [0, 0, 0]
                totals[0] += 1
                totals[1] += spent
                totals[2] += spent
                if state.stack:
                    state.stack[-1][2] += spent

        return generator_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counts_frames:
            args = (_CountingStream(args[0], tracer.counts), *args[1:])
        state, frame = tracer.enter(key)
        try:
            result = original(*args, **kwargs)
        finally:
            duration = tracer.leave(state, frame, record)
        if hook is not None:
            hook(tracer, args, result, duration)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Install every probe; returns the patches for :func:`uninstall`."""
    patches: list[tuple[object, str, object]] = []
    # Import everything first: a module imported after a name was
    # rebound would copy the wrapper and keep it past uninstall.
    for probe in PROBES:
        importlib.import_module(probe.target.partition(":")[0])
    for probe in PROBES:
        module_name, __, path = probe.target.partition(":")
        module = sys.modules[module_name]
        owner_name, __, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrap(tracer, original, probe))
            patches.append((owner, attribute, original))
            continue
        original = getattr(module, attribute)
        wrapper = _wrap(tracer, original, probe)
        for name, holder in list(sys.modules.items()):
            if holder is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for held, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, held, wrapper)
                    patches.append((holder, held, original))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
