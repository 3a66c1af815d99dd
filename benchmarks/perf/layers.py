"""Per-layer metrics of one traced epoch.

Times are *self* time in milliseconds per epoch (a probe's duration
minus the probes it called); counts are per epoch, read at the same
boundaries or from the program's public surfaces
(``EvaluationResult.stats``, ``Engine.stats()``,
``Supervisor.stats()``, ``coordinator.stats()``,
``solver_cache.stats()``, ``intern_stats()``).  Every workload reports
every metric; a layer the workload does not enter reads 0, which is
the "bypasses this layer" statement in numbers.
"""

from __future__ import annotations

MS = 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _covered(spans: list[tuple[int, int]], start: int, end: int) -> int:
    """Nanoseconds of [start, end) covered by the union of spans."""
    covered = 0
    reach = start
    for lo, hi in sorted(spans):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def coordinator_self_ns(events: list[tuple]) -> int:
    """Coordinator request time not spent waiting on a worker.

    Broadcast calls run on the coordinator's scatter pool, so they are
    not children of the request frame; the union of every round trip
    that falls inside a request is subtracted instead.
    """
    calls = [
        (start, end)
        for name, start, end, *__ in events
        if name == "shard.call"
    ]
    total = 0
    for name, start, end, *__ in events:
        if name == "shard.coordinator":
            inside = [
                call for call in calls
                if call[1] > start and call[0] < end
            ]
            total += (end - start) - _covered(inside, start, end)
    return total


def layer_metrics(
    phases: dict[str, tuple], extras: dict, interned: int
) -> dict[str, float]:
    """The per-layer metric values of one traced epoch.

    ``phases`` maps ``setup`` and ``measured`` to the tracer's
    (aggregates, counts, events) for that part of the epoch.  Layer
    times and counts cover both (a form compile sits in set-up); the
    untracked share is taken over the measured phase alone.  What
    happens after the crash is reported from the workload's own
    clocks (``recover_s``), not from probes.
    """
    agg: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    events: list[tuple] = []
    for phase in ("setup", "measured"):
        phase_agg, phase_counts, phase_events = phases[phase]
        for key, totals in phase_agg.items():
            into = agg.setdefault(key, [0, 0, 0])
            for index in range(3):
                into[index] += totals[index]
        for key, value in phase_counts.items():
            counts[key] = counts.get(key, 0) + value
        events.extend(phase_events)
    measured = phases["measured"][0]

    def calls(key: str) -> int:
        return agg.get(key, (0, 0, 0))[0]

    def total(key: str) -> int:
        return agg.get(key, (0, 0, 0))[1]

    def own(key: str) -> int:
        return agg.get(key, (0, 0, 0))[2]

    engine_ns = sum(
        own(key)
        for key in (
            "engine.evaluate", "engine.resume", "engine.matching",
            "engine.insert",
        )
    )
    derivations = counts.get("engine.derivations", 0)
    solver = extras.get("solver", {"hits": 0, "misses": 0})
    session = extras.get("session", {}).get("cache", {})
    serve = extras.get("serve", {})
    recovery = extras.get("recovery", {})
    shard = extras.get("shard", {})
    sharded = bool(shard)
    disk_per_fact = _ratio(
        extras.get("disk_bytes", 0), extras.get("edb_facts", 0)
    )
    recover_ms = extras.get("recover_s", 0.0) * 1000

    ops_ns = sum(
        totals[1] for key, totals in measured.items()
        if key.startswith("op.")
    )
    ops_self = sum(
        totals[2] for key, totals in measured.items()
        if key.startswith("op.")
    )
    if serve:
        # The supervisor's workers run on their own threads, so
        # nothing is a child of a client's op span.  What the clients
        # waited for beyond the worker-side probes is the serve
        # layer's own share: queue wait, dispatch, line parsing.
        worker_side = sum(
            totals[2] for key, totals in measured.items()
            if not key.startswith("op.")
        )
        request_self = max(ops_ns - worker_side, 0)
        untracked = 0
    else:
        request_self = 0
        untracked = ops_self

    return {
        "lang.parse_ms": own("lang.parse") / MS,
        "lang.parse_calls": calls("lang.parse"),
        "core.optimize_ms": own("core.optimize") / MS,
        "core.optimize_calls": calls("core.optimize"),
        "core.pred_ms": own("core.pred") / MS,
        "core.qrp_ms": own("core.qrp") / MS,
        "core.rules_out": counts.get("core.rules_out", 0),
        "magic.rewrite_ms": own("magic.rewrite") / MS,
        "planner.plan_ms": own("planner.plan") / MS,
        "planner.plan_calls": calls("planner.plan"),
        "planner.choice_regret": extras.get("choice_regret", 0.0),
        "constraints.project_ms": own("constraints.project") / MS,
        "constraints.project_calls": calls("constraints.project"),
        "constraints.sat_ms": own("constraints.sat") / MS,
        "constraints.sat_calls": calls("constraints.sat"),
        "constraints.implies_ms": own("constraints.implies") / MS,
        "constraints.implies_calls": calls("constraints.implies"),
        "constraints.cache_hit_ratio": _ratio(
            solver["hits"], solver["hits"] + solver["misses"]
        ),
        "constraints.interned_forms": interned,
        "engine.evaluate_ms": own("engine.evaluate") / MS,
        "engine.evaluate_calls": calls("engine.evaluate"),
        "engine.resume_ms": own("engine.resume") / MS,
        "engine.resume_calls": calls("engine.resume"),
        "engine.matching_ms": own("engine.matching") / MS,
        "engine.matching_calls": calls("engine.matching"),
        "engine.us_per_probe": _ratio(
            own("engine.matching") / 1e3,
            counts.get("engine.probes", 0),
        ),
        "engine.insert_ms": own("engine.insert") / MS,
        "engine.insert_calls": calls("engine.insert"),
        "engine.derivations": derivations,
        "engine.probes": counts.get("engine.probes", 0),
        "engine.facts_new": counts.get("engine.facts_new", 0),
        "engine.iterations": counts.get("engine.iterations", 0),
        "engine.us_per_derivation": _ratio(
            engine_ns / 1e3, derivations
        ),
        "engine.useful_derivation_ratio": _ratio(
            counts.get("engine.facts_new", 0), derivations
        ),
        "engine.relevant_fact_ratio": _ratio(
            counts.get("engine.facts_new", 0),
            extras.get("facts_as_written", 0),
        ),
        "service.query_self_ms": own("service.query") / MS,
        "service.add_facts_ms": own("service.add_facts") / MS,
        "service.compile_ms": counts.get("service.compile_ns", 0) / MS,
        "service.form_compiles": session.get("misses", 0),
        "service.form_hit_ratio": _ratio(
            session.get("hits", 0),
            session.get("hits", 0) + session.get("misses", 0),
        ),
        "service.warm_hit_ratio": _ratio(
            extras.get("warm_hits", 0), extras.get("queries", 0)
        ),
        "service.warm_states": session.get("warm_states", 0),
        "serve.request_self_ms": request_self / MS,
        "serve.wal_append_ms": own("serve.wal_append") / MS,
        "serve.wal_appends": calls("serve.wal_append"),
        "serve.checkpoint_ms": own("serve.checkpoint") / MS,
        "serve.checkpoints": calls("serve.checkpoint"),
        "serve.wal_bytes_per_fact": _ratio(
            extras.get("wal_bytes", 0), extras.get("wal_facts", 0)
        ),
        "serve.snapshot_bytes_per_fact": _ratio(
            extras.get("snapshot_bytes", 0),
            extras.get("snapshot_facts", 0),
        ),
        "serve.recover_ms": 0.0 if sharded else recover_ms,
        "serve.recover_replayed": recovery.get("replayed", 0),
        "serve.disk_bytes_per_fact": (
            0.0 if sharded else disk_per_fact
        ),
        "serve.shed": serve.get("shed", 0),
        "serve.retries": serve.get("retries", 0),
        "shard.coordinator_self_ms": (
            coordinator_self_ns(events) / MS if sharded else 0.0
        ),
        "shard.call_ms": counts.get("shard.call_ns", 0) / MS,
        "shard.calls": counts.get("shard.calls", 0),
        "shard.rtt_us_per_call": _ratio(
            counts.get("shard.call_ns", 0) / 1e3,
            counts.get("shard.calls", 0),
        ),
        "shard.rounds": shard.get("rounds", 0),
        "shard.exchanged": shard.get("exchanged", 0),
        "shard.frame_bytes": counts.get("shard.frame_bytes", 0),
        "shard.bytes_per_exchanged_fact": _ratio(
            counts.get("shard.frame_bytes", 0),
            shard.get("exchanged", 0),
        ),
        "shard.pruned_ratio": _ratio(
            shard.get("scatter_pruned", 0),
            shard.get("scatter_pruned", 0)
            + shard.get("scatter_broadcast", 0),
        ),
        "shard.spawn_ms": total("shard.spawn") / MS,
        "shard.checkpoint_ms": counts.get(
            "shard.call_ns.checkpoint", 0
        ) / MS,
        "shard.recover_ms": recover_ms if sharded else 0.0,
        "shard.disk_bytes_per_fact": (
            disk_per_fact if sharded else 0.0
        ),
        "shard.respawns": shard.get("respawns", 0),
        "obs.untracked_ratio": _ratio(untracked, ops_ns),
    }
