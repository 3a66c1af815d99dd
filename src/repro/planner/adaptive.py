"""The feedback loop: a session measures the candidates and keeps the fastest.

The pick of :func:`~repro.planner.plan.plan_query` reads only the
program's shape; what a strategy costs on this EDB is measured.  An
:class:`AdaptivePlanner` closes the loop per *query form* (the same
normalized key the service's ``FormCache`` uses):

1. **Plan** -- on first sight of a form, take the plan's fixed
   candidate list (the pick first).
2. **Probe** -- serve the next requests with each candidate in that
   order until every candidate has ``probe_runs`` *warm* observations
   (the first post-compile run of each strategy is recorded but
   excluded from the comparison -- it pays the compile bill the cache
   amortizes away).
3. **Converge** -- switch to the candidate with the lowest mean
   wall-clock seconds and stay there.
4. **Re-plan** -- if the converged strategy's EWMA drifts past
   ``divergence`` times its at-convergence baseline, or the EDB grows
   past ``growth`` times the planned-against snapshot, mark the record
   stale: the next ``decide`` re-collects stats and re-probes.

All state lives behind one lock, so the planner is safe under the
serve supervisor's reader--writer locking (readers of different forms
contend only on this lock, never on engine state).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.lang.ast import Program, Query
from repro.obs.recorder import count as obs_count, span as obs_span
from repro.planner.plan import Plan, plan_query
from repro.planner.stats import EdbStats, collect_stats

#: Warm observations each candidate gets before the comparison.
PROBE_RUNS = 2
#: Converged-EWMA drift (vs. the at-convergence baseline) that forces
#: a re-plan.
DIVERGENCE_FACTOR = 4.0
#: EDB growth (vs. the planned-against snapshot) that forces a re-plan.
GROWTH_REPLAN_FACTOR = 2.0
#: Smoothing of the converged strategy's observed seconds.
EWMA_ALPHA = 0.4
#: Divergence is judged against at least this baseline (seconds).  A
#: sub-millisecond warm hit's EWMA crosses ``DIVERGENCE_FACTOR`` times
#: its baseline on any scheduler hiccup or GC pause, and the re-plan it
#: would trigger re-probes every candidate -- orders of magnitude more
#: expensive than anything the re-plan could recover at that scale.
REPLAN_NOISE_FLOOR = 0.005


@dataclass
class StrategyObservation:
    """Accumulated measurements of one strategy on one form."""

    runs: int = 0
    cold_runs: int = 0
    total_seconds: float = 0.0

    @property
    def mean(self) -> float:
        return self.total_seconds / self.runs if self.runs else 0.0

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "cold_runs": self.cold_runs,
            "mean_seconds": round(self.mean, 6),
        }


@dataclass
class PlanRecord:
    """Everything the planner knows about one query form."""

    form: str
    query: Query
    plan: Plan
    state: str  # "probing" | "converged"
    candidates: tuple[str, ...]
    chosen: str
    observations: dict[str, StrategyObservation] = field(
        default_factory=dict
    )
    baseline: float | None = None
    ewma: float | None = None
    replans: int = 0
    stale: bool = False

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "chosen": self.chosen,
            "candidates": list(self.candidates),
            "plan": self.plan.as_dict(),
            "observations": {
                name: observation.as_dict()
                for name, observation in sorted(
                    self.observations.items()
                )
            },
            "baseline": (
                round(self.baseline, 6)
                if self.baseline is not None
                else None
            ),
            "ewma": (
                round(self.ewma, 6) if self.ewma is not None else None
            ),
            "replans": self.replans,
            "stale": self.stale,
        }


class AdaptivePlanner:
    """Per-form strategy decisions that improve with observations."""

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        *,
        probe_runs: int = PROBE_RUNS,
        divergence: float = DIVERGENCE_FACTOR,
        growth: float = GROWTH_REPLAN_FACTOR,
    ) -> None:
        self._program = program
        self._database = database
        self._stats = collect_stats(database)
        self._probe_runs = max(1, probe_runs)
        self._divergence = divergence
        self._growth = growth
        self._records: dict[str, PlanRecord] = {}
        self._pending_facts = 0
        self._refreshes = 0
        self._lock = threading.Lock()

    # -- decisions ----------------------------------------------------

    def decide(self, form: str, query: Query) -> str:
        """The strategy to run this form with, right now."""
        with self._lock:
            self._maybe_refresh()
            record = self._records.get(form)
            if record is None or record.stale:
                record = self._plan(form, query, record)
            if record.state == "converged":
                return record.chosen
            for name in record.candidates:
                observation = record.observations.get(name)
                if (
                    observation is None
                    or observation.runs < self._probe_runs
                ):
                    record.chosen = name
                    return name
            return self._converge(record)

    def observe(
        self,
        form: str,
        strategy: str,
        seconds: float,
        cold: bool,
    ) -> PlanRecord | None:
        """Fold one real execution's wall-clock seconds into the record.

        ``cold`` marks the first run after a (re)compile, which is
        recorded but kept out of the warm comparison.  Returns the
        form's record so callers on the hot path do not need a second
        lookup.
        """
        with self._lock:
            record = self._records.get(form)
            if record is None:
                return None
            observation = record.observations.setdefault(
                strategy, StrategyObservation()
            )
            if cold:
                observation.cold_runs += 1
                return record
            observation.runs += 1
            observation.total_seconds += seconds
            if (
                record.state == "converged"
                and strategy == record.chosen
            ):
                previous = (
                    record.ewma if record.ewma is not None else seconds
                )
                record.ewma = (
                    EWMA_ALPHA * seconds
                    + (1.0 - EWMA_ALPHA) * previous
                )
                baseline = record.baseline
                if (
                    baseline is not None
                    and baseline > 0.0
                    and record.ewma
                    > self._divergence
                    * max(baseline, REPLAN_NOISE_FLOOR)
                ):
                    record.stale = True
                    record.replans += 1
                    obs_count("planner.replans")
            return record

    def note_facts(self, added: int) -> None:
        """Tell the planner the session's EDB grew by ``added`` facts."""
        if added > 0:
            with self._lock:
                self._pending_facts += added

    # -- persistence (see repro.serve.snapshot) -----------------------

    def export_records(self) -> list[dict]:
        """JSON-ready converged records, for snapshot embedding.

        Only converged, non-stale records are worth persisting: a
        probing record's measurements are incomplete and a stale one
        is already scheduled for re-planning.  Each carries the
        *current* EDB fingerprint (recollected, not the possibly-stale
        planning snapshot), so :meth:`restore_records` can tell
        whether the restored EDB is the one the measurements were
        taken against.
        """
        with self._lock:
            fingerprint = (
                collect_stats(self._database).fingerprint()
                if self._database is not None
                else self._stats.fingerprint()
            )
            exported = []
            for form, record in sorted(self._records.items()):
                if record.state != "converged" or record.stale:
                    continue
                exported.append({
                    "form": form,
                    "query": str(record.query),
                    "strategy": record.chosen,
                    "fingerprint": fingerprint,
                    "baseline": record.baseline,
                    "ewma": record.ewma,
                    "replans": record.replans,
                    "observations": {
                        name: {
                            "runs": observation.runs,
                            "cold_runs": observation.cold_runs,
                            "total_seconds": observation.total_seconds,
                        }
                        for name, observation in sorted(
                            record.observations.items()
                        )
                    },
                })
            return exported

    def restore_records(self, records: list[dict]) -> tuple[int, int]:
        """Reinstall exported records; returns ``(restored, discarded)``.

        Call after the recovered EDB is in place but *before* WAL
        replay: the fingerprint each record carries is compared
        against the current EDB's, so a record measured against a
        different database (the program changed its facts, the
        snapshot is from another lineage) is discarded rather than
        trusted.  Restored records re-enter as converged -- the
        session serves their strategy immediately, skipping the probe
        phase.  Malformed records are discarded, never fatal: planner
        state is an optimization, not correctness.  So are records
        whose observations carry ``total_scalar``: they were measured
        in the units of a cost model this planner no longer has, and
        their form re-probes.
        """
        from repro.lang.parser import parse_query

        restored = discarded = 0
        with self._lock:
            if self._database is not None:
                # The EDB just changed under us (restore_state); later
                # decisions must plan against what was restored.
                self._stats = collect_stats(self._database)
                self._pending_facts = 0
            current = self._stats.fingerprint()
            for payload in records:
                try:
                    form = payload["form"]
                    strategy = payload["strategy"]
                    if payload.get("fingerprint") != current:
                        discarded += 1
                        continue
                    query = parse_query(payload["query"])
                    observations = {
                        name: _restored_observation(entry)
                        for name, entry in dict(
                            payload.get("observations") or {}
                        ).items()
                    }
                    baseline = payload.get("baseline")
                    ewma = payload.get("ewma")
                    self._records[form] = PlanRecord(
                        form=form,
                        query=query,
                        plan=plan_query(self._program, query),
                        state="converged",
                        candidates=(strategy,),
                        chosen=strategy,
                        observations=observations,
                        baseline=(
                            float(baseline)
                            if baseline is not None else None
                        ),
                        ewma=float(ewma) if ewma is not None else None,
                        replans=int(payload.get("replans", 0)),
                    )
                    restored += 1
                except (KeyError, TypeError, ValueError):
                    discarded += 1
        if restored:
            obs_count("planner.records_restored", restored)
        if discarded:
            obs_count("planner.records_discarded", discarded)
        return restored, discarded

    # -- introspection ------------------------------------------------

    def record(self, form: str) -> PlanRecord | None:
        with self._lock:
            return self._records.get(form)

    def snapshot(self) -> EdbStats:
        """The stats snapshot decisions are currently based on."""
        with self._lock:
            return self._stats

    def stats(self) -> dict:
        """A JSON-ready summary for service/serve stats endpoints."""
        with self._lock:
            converged = sum(
                1
                for record in self._records.values()
                if record.state == "converged"
            )
            return {
                "forms": len(self._records),
                "converged": converged,
                "probing": len(self._records) - converged,
                "replans": sum(
                    record.replans
                    for record in self._records.values()
                ),
                "stats_refreshes": self._refreshes,
                "edb_fingerprint": self._stats.fingerprint(),
                "records": {
                    form: record.as_dict()
                    for form, record in sorted(
                        self._records.items()
                    )
                },
            }

    # -- internals (lock held) ----------------------------------------

    def _plan(
        self,
        form: str,
        query: Query,
        previous: PlanRecord | None,
    ) -> PlanRecord:
        with obs_span("planner.adapt", form=form):
            plan = plan_query(self._program, query)
        record = PlanRecord(
            form=form,
            query=query,
            plan=plan,
            state="probing",
            candidates=plan.candidates,
            chosen=plan.strategy,
            replans=previous.replans if previous is not None else 0,
        )
        self._records[form] = record
        return record

    def _converge(self, record: PlanRecord) -> str:
        best = record.candidates[0]
        best_mean: float | None = None
        for name in record.candidates:
            observation = record.observations.get(name)
            if observation is None or not observation.runs:
                continue
            if best_mean is None or observation.mean < best_mean:
                best, best_mean = name, observation.mean
        record.state = "converged"
        record.chosen = best
        record.baseline = best_mean
        record.ewma = best_mean
        obs_count("planner.converged")
        return best

    def _maybe_refresh(self) -> None:
        if self._database is None or self._pending_facts == 0:
            return
        before = max(self._stats.total_facts, 1)
        if (
            self._stats.total_facts + self._pending_facts
            < self._growth * before
        ):
            return
        self._stats = collect_stats(self._database)
        self._pending_facts = 0
        self._refreshes += 1
        obs_count("planner.stats_refresh")
        for record in self._records.values():
            record.stale = True


def _restored_observation(entry: dict) -> StrategyObservation:
    if "total_scalar" in entry:
        raise ValueError("observation in cost-model units")
    return StrategyObservation(
        runs=int(entry.get("runs", 0)),
        cold_runs=int(entry.get("cold_runs", 0)),
        total_seconds=float(entry.get("total_seconds", 0.0)),
    )
