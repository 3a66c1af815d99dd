"""The eight workloads: what one *epoch* of each does.

An epoch is a fixed, complete unit of work: set the program up from
nothing, push one deterministic op stream through it, check every
response against :mod:`reference`, tear down.  The runner repeats
whole epochs until ``--seconds`` are used, so a faster program simply
completes more epochs and every epoch of a run sees the same inputs
(which is what lets the runner take each op's best latency across
epochs, and what makes the counts repeat exactly).

Sizes are the constants in :data:`SIZES`, not calibrated at run time.
They were picked so that one epoch takes one to two seconds on the
two-core sandbox at the commit that defined the benchmark: short
enough that a ten-second run replays each op five to ten times and
finds the host quiet for some of them.

No ``--faults``, no ``delay:`` injection and library defaults for
every knob.  Load comes from this process in a closed loop with one
client: every caller here waits for its reply.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import hostspeed
import inputs
from inputs import Op

SRC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "src",
)

SIZES = {
    "cold-none": {"layers": 4, "width": 4, "calls": 6},
    "cold-rewrite": {"layers": 4, "width": 4, "calls": 2},
    "cold-auto": {"layers": 4, "width": 4, "calls": 6},
    "compile-forms": {"programs": 110},
    "session-warm": {"layers": 3, "width": 6, "blocks": 6},
    "session-seeds": {
        "layers": 3, "width": 5, "queries": 19, "pool": 24,
    },
    "serve-durable": {
        "layers": 3, "width": 6, "pairs": 16, "batch": 8, "workers": 2,
        "snapshot_every": 8,
    },
    "sharded": {"layers": 3, "width": 4, "blocks": 8, "shards": 2},
}

#: ``--smoke``: the same workloads, small enough for the self-tests.
SMOKE_SIZES = {
    "cold-none": {"layers": 3, "width": 3, "calls": 2},
    "cold-rewrite": {"layers": 3, "width": 3, "calls": 1},
    "cold-auto": {"layers": 3, "width": 3, "calls": 2},
    "compile-forms": {"programs": 25},
    "session-warm": {"layers": 3, "width": 3, "blocks": 3},
    "session-seeds": {
        "layers": 3, "width": 3, "queries": 10, "pool": 9,
    },
    "serve-durable": {
        "layers": 3, "width": 3, "pairs": 10, "batch": 8, "workers": 2,
        "snapshot_every": 8,
    },
    "sharded": {"layers": 3, "width": 3, "blocks": 3, "shards": 2},
}


@dataclass
class Epoch:
    """What one epoch measured.

    ``latency`` maps the op kind (``query``, ``load``) to latencies
    in op order, so the same position in two epochs is the same op.
    ``extras`` are counts read from the program's public surfaces for
    the per-layer metrics.  ``spins`` are the :mod:`hostspeed`
    samples, taken at every phase boundary and between ops.
    """

    tracer: object = None
    index: int = 0
    spins: list = field(default_factory=list)
    setup_s: float = 0.0
    latency: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    extras: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    _calibrated: float = 0.0

    def calibrate(self, count: int) -> None:
        self.spins.extend(hostspeed.sample() for __ in range(count))
        self._calibrated = time.perf_counter()

    def mark(self, phase: str) -> None:
        """Close a phase (``setup``, ``measured``): what the probes
        saw since the previous mark belongs to it."""
        if self.tracer is not None:
            self.phases[phase] = self.tracer.drain()
        self.calibrate(6)

    def timed(self, kind: str, call, check=None):
        """Run one op under the clock; ``check(result)`` is applied
        outside the timed region and a falsy verdict counts as a
        failure."""
        samples = self.latency.setdefault(kind, [])
        span = (
            self.tracer.op(f"op.{kind}", len(samples))
            if self.tracer is not None
            else nullcontext()
        )
        with span:
            started = time.perf_counter()
            result = call()
            samples.append(time.perf_counter() - started)
        if time.perf_counter() - self._calibrated > 0.05:
            self.calibrate(1)
        self.verify(
            check is None or check(result),
            f"{kind} #{len(samples) - 1}",
            result,
        )
        return result

    def verify(self, good: bool, what: str, detail=None) -> None:
        """Count one checked outcome; a failure is kept with its
        description for the run's standard error."""
        self.attempted += 1
        if not good:
            self.failed += 1
            self.failures.append(f"{what}: {detail}"[:400])


def answered(op: Op):
    """The check for a service/serve/shard query response."""

    def check(response) -> bool:
        return (
            response.ok
            and response.completeness == "complete"
            and frozenset(response.answer_strings) == op.expected
        )

    return check


def loaded(op: Op):
    def check(response) -> bool:
        return response.ok and response.added == len(set(op.legs))

    return check


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, __, names in os.walk(path)
        for name in names
    )


class Workload:
    name = ""
    why = ""

    def __init__(self, smoke: bool = False) -> None:
        self.size = (SMOKE_SIZES if smoke else SIZES)[self.name]

    def generate(self, seed: int, traced: bool):
        raise NotImplementedError

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        raise NotImplementedError


# -- one-shot workloads -------------------------------------------------


def import_seconds() -> float:
    """Set-up of a one-shot run: a fresh interpreter importing the
    driver, which is what every ``python -m repro FILE`` pays before
    it reads its input."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.driver"],
        env=env,
        check=True,
    )
    return time.perf_counter() - started


def load_text(text: str):
    """A one-shot run's load: program text with its facts and query
    to (rules, query, EDB)."""
    from repro.driver import split_edb
    from repro.lang.parser import parse_program_and_queries

    program, queries = parse_program_and_queries(text)
    rules, edb = split_edb(program)
    return rules, queries[0], edb


class ColdFlights(Workload):
    """One-shot ``driver.answer_query`` on the flights program."""

    strategy = ""

    def generate(self, seed: int, traced: bool):
        size = self.size
        text, ops = inputs.oneshot_ops(
            seed, size["calls"], size["layers"], size["width"]
        )
        generated = {"text": text, "ops": ops}
        if traced:
            # The paper's yardstick: facts the program *as written*
            # computes on this EDB (Tables 1-2 compare against it).
            from repro.driver import split_edb
            from repro.engine import evaluate
            from repro.lang.parser import parse_program

            rules, edb = split_edb(parse_program(text))
            generated["facts_as_written"] = evaluate(
                rules, edb
            ).stats.new_facts
        return generated

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        from repro.constraints import cache as solver_cache
        from repro.driver import answer_query

        epoch.setup_s = import_seconds()
        epoch.mark("setup")

        def answer(strategy: str, rules, query, edb):
            return answer_query(rules, query, edb, strategy=strategy)

        def check(op: Op):
            return lambda outcome: (
                outcome.completeness == "complete"
                and frozenset(outcome.answer_strings) == op.expected
            )

        for op in generated["ops"]:
            rules, query, edb = epoch.timed(
                "load", lambda: load_text(generated["text"] + op.text)
            )
            solver_cache.clear()
            epoch.timed(
                "query",
                lambda: answer(self.strategy, rules, query, edb),
                check=check(op),
            )
        epoch.mark("measured")
        epoch.extras["facts_as_written"] = generated.get(
            "facts_as_written", 0
        ) * len(generated["ops"])
        if epoch.tracer is not None and self.strategy == "auto":
            # What the planner is judged against: each fixed strategy
            # on the same input, back to back with its own choice.
            seconds = {}
            for strategy in ("auto", "none", "rewrite", "optimal"):
                solver_cache.clear()
                started = time.perf_counter()
                answer(strategy, rules, query, edb)
                seconds[strategy] = time.perf_counter() - started
            epoch.extras["choice_regret"] = seconds.pop("auto") / min(
                seconds.values()
            )


class ColdNone(ColdFlights):
    name = "cold-none"
    strategy = "none"
    why = (
        "engine-bound: the program as written computes every flight; "
        "relation inserts and the rule join do the work, the solver "
        "and the rewrites none"
    )


class ColdRewrite(ColdFlights):
    name = "cold-rewrite"
    strategy = "rewrite"
    why = (
        "Constraint_rewrite pushed into the same network: fewer "
        "derivations than cold-none but range probes on the index "
        "dominate, the gap ROADMAP's index item must close"
    )


class ColdAuto(ColdFlights):
    name = "cold-auto"
    strategy = "auto"
    why = (
        "the same one-shot query with the cost-based planner choosing "
        "the strategy; the only workload that enters planner/"
    )


class CompileForms(Workload):
    name = "compile-forms"
    why = (
        "parse and optimal-order rewrite of many tiny generated "
        "programs: lang, core, magic, transform and the solver do the "
        "work and the engine little; the bypass for engine changes"
    )

    def generate(self, seed: int, traced: bool):
        from repro.conformance.generator import case_from_text
        from repro.conformance.oracle import numeric_domain

        corpus = []
        for text, expected in inputs.compile_corpus(
            seed, self.size["programs"]
        ):
            case = case_from_text(text)
            corpus.append((
                text,
                expected,
                numeric_domain(case.program, case.query),
            ))
        return corpus

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        from repro.conformance.differ import canonical_answers
        from repro.constraints import cache as solver_cache
        from repro.driver import answer_query

        epoch.setup_s = import_seconds()
        epoch.mark("setup")
        for text, expected, domain in generated:
            rules, query, edb = epoch.timed(
                "load", lambda: load_text(text)
            )
            solver_cache.clear()
            epoch.timed(
                "query",
                lambda: answer_query(
                    rules, query, edb, strategy="optimal"
                ),
                check=lambda outcome: (
                    outcome.completeness == "complete"
                    and canonical_answers(outcome.answers, domain)
                    == expected
                ),
            )
        epoch.mark("measured")


# -- in-process sessions ------------------------------------------------


def flights_engine(strategy: str):
    from repro.service import Engine
    from repro.workloads.flights import flights_program

    return Engine(flights_program(), strategy=strategy)


class SessionWorkload(Workload):
    """A long-lived in-process ``service.Engine`` under one strategy."""

    strategy = ""

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        base, first, ops = generated
        started = time.perf_counter()
        engine = flights_engine(self.strategy)
        ready = engine.add_facts(inputs.facts_text(base)).ok
        for op in first:
            ready = answered(op)(engine.query(op.text)) and ready
        epoch.setup_s = time.perf_counter() - started
        epoch.mark("setup")
        epoch.verify(ready, "set-up load or first query")
        warm = queries = 0
        for op in ops:
            if op.kind == "load":
                epoch.timed(
                    "load", lambda: engine.add_facts(op.text),
                    check=loaded(op),
                )
                continue
            response = epoch.timed(
                "query", lambda: engine.query(op.text),
                check=answered(op),
            )
            queries += 1
            warm += response.warm and not response.resumed
        epoch.mark("measured")
        epoch.extras.update(
            session=engine.stats(), warm_hits=warm, queries=queries
        )


class SessionWarm(SessionWorkload):
    name = "session-warm"
    strategy = "rewrite"
    why = (
        "long-lived rewrite session, three query forms, a load every "
        "fifth op: p50 is a warm hit (pure service self time), p90 "
        "the incremental refresh through engine.resume"
    )

    def generate(self, seed: int, traced: bool):
        size = self.size
        return inputs.session_warm_ops(
            seed, size["blocks"], size["layers"], size["width"]
        )


class SessionSeeds(SessionWorkload):
    name = "session-seeds"
    strategy = "optimal"
    why = (
        "one form under the optimal (magic) order, constants from a "
        "pool three times the per-form warm slots: most queries pay a "
        "cold magic fixpoint, the case seeds-as-deltas must fix"
    )

    def generate(self, seed: int, traced: bool):
        size = self.size
        return inputs.session_seeds_ops(
            seed, size["queries"], size["pool"], size["layers"],
            size["width"],
        )


# -- durable serving ----------------------------------------------------

REQUEST_TIMEOUT = 120.0


class ServeDurable(Workload):
    name = "serve-durable"
    why = (
        "write-heavy supervisor with a snapshot directory: WAL append "
        "and fsync, checkpoints, compaction and recovery carry the "
        "loads; the loaded legs are ones the rewrite proves irrelevant"
    )

    def generate(self, seed: int, traced: bool):
        size = self.size
        return inputs.serve_durable_ops(
            seed, size["pairs"], size["batch"], size["layers"],
            size["width"],
        )

    def supervisor(self, directory: str):
        from repro.serve import ServeConfig, Supervisor

        engine = flights_engine("rewrite")
        config = ServeConfig(
            workers=self.size["workers"],
            snapshot_dir=directory,
            snapshot_every=self.size["snapshot_every"],
        )
        return engine, Supervisor(
            engine, config, program_id="perf-serve-durable"
        )

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        from repro.engine.facts import Fact

        base, first, ops = generated
        live = os.path.join(workdir, "serve-live")
        crashed = os.path.join(workdir, "serve-crashed")

        def request(supervisor, line: str):
            return supervisor.submit(line).result(REQUEST_TIMEOUT)

        started = time.perf_counter()
        engine, supervisor = self.supervisor(live)
        supervisor.recover()
        supervisor.start()
        ready = request(supervisor, inputs.facts_text(base)).ok
        ready = answered(first)(
            request(supervisor, first.text)
        ) and ready
        epoch.setup_s = time.perf_counter() - started
        epoch.mark("setup")
        epoch.verify(ready, "set-up load or first query")

        acknowledged: list = []
        for op in ops:
            response = epoch.timed(
                op.kind,
                lambda: request(supervisor, op.text),
                check=answered(op) if op.kind == "query" else loaded(op),
            )
            if op.kind == "load" and response.ok:
                acknowledged.extend(op.legs)
        epoch.mark("measured")

        # The crash: what is on disk after the last acknowledged op,
        # with no drain and no final checkpoint.
        shutil.copytree(live, crashed)
        epoch.extras.update(
            serve=supervisor.stats()["serve"],
            session=engine.stats(),
            disk_bytes=directory_bytes(crashed),
            edb_facts=engine.session.edb.count(),
        )
        supervisor.drain()  # only to stop the worker threads

        started = time.perf_counter()
        recovered, restarted = self.supervisor(crashed)
        report = restarted.recover()
        epoch.extras["recover_s"] = time.perf_counter() - started
        snapshots = sorted(
            name for name in os.listdir(crashed)
            if name.startswith("snapshot-")
        )
        epoch.extras.update(
            recovery=report,
            wal_bytes=os.path.getsize(
                os.path.join(crashed, "facts.log")
            ),
            wal_facts=report["replayed"] * self.size["batch"],
            snapshot_bytes=os.path.getsize(
                os.path.join(crashed, snapshots[-1])
            ),
            snapshot_facts=report["facts_restored"],
        )
        edb = recovered.session.edb
        lost = [
            leg for leg in acknowledged
            if Fact.ground("singleleg", leg) not in edb
        ]
        epoch.verify(
            not report["corrupt"] and not lost,
            "acknowledged legs lost in recovery",
            (report, lost),
        )
        shutil.rmtree(live)
        shutil.rmtree(crashed)


class Sharded(Workload):
    name = "sharded"
    why = (
        "two shard worker processes behind the coordinator, no "
        "injected delays: key-bound lookups isolate per-request "
        "coordinator and wire cost, recursive queries the exchange"
    )

    def generate(self, seed: int, traced: bool):
        from repro.workloads.flights import FLIGHTS_PROGRAM_TEXT

        size = self.size
        base, first, ops = inputs.sharded_ops(
            seed, size["blocks"], size["layers"], size["width"],
            size["shards"],
        )
        # The base legs ride in the program text: the partition plan
        # is built from it and would demote an empty relation to
        # broadcast.
        text = FLIGHTS_PROGRAM_TEXT + "\n".join(
            map(inputs.leg_text, base)
        )
        return text, first, ops

    def cluster(self, text: str, directory: str):
        from repro.shard import ShardedEngine

        engine = ShardedEngine.from_text(
            text, self.size["shards"], snapshot_dir=directory
        )
        engine.coordinator.start()
        return engine, engine.coordinator.recover()

    def epoch(self, generated, epoch: Epoch, workdir: str) -> None:
        from repro.lang.parser import parse_query

        text, first, ops = generated
        directory = os.path.join(workdir, "shards")

        def ask(engine, op: Op):
            return engine.session.query(parse_query(op.text))

        started = time.perf_counter()
        engine, __ = self.cluster(text, directory)
        try:
            ready = all(
                answered(op)(ask(engine, op)) for op in first
            )
            epoch.setup_s = time.perf_counter() - started
            epoch.mark("setup")
            epoch.verify(ready, "set-up load or first query")
            acknowledged = []
            for op in ops:
                if op.kind == "load":
                    response = epoch.timed(
                        "load", lambda: engine.add_facts(op.text),
                        check=loaded(op),
                    )
                    if response.ok:
                        acknowledged.append(op)
                else:
                    epoch.timed(
                        "query", lambda: ask(engine, op),
                        check=answered(op),
                    )
            epoch.mark("measured")
            stats = engine.coordinator.stats()
            epoch.extras.update(
                shard=stats["coordinator"],
                edb_facts=sum(
                    entry.get("edb_facts", 0)
                    for entry in stats["healthz"]["shards"]
                ),
            )
        finally:
            # The crash: workers are stopped without the final
            # checkpoint barrier, leaving per-shard WAL tails.
            engine.coordinator.close(drain=False)
        epoch.extras["disk_bytes"] = directory_bytes(directory)
        # Restarting costs as much as set-up, so only the run's first
        # epoch and the traced ones (which report it) pay for it.
        if epoch.index == 0 or epoch.tracer is not None:
            self.restart(text, directory, acknowledged, epoch)
        shutil.rmtree(directory)

    def restart(self, text, directory, acknowledged, epoch) -> None:
        """Recover a new cluster from the crashed directory; every
        acknowledged leg must be readable from it."""
        from repro.lang.parser import parse_query

        started = time.perf_counter()
        engine, report = self.cluster(text, directory)
        epoch.extras["recover_s"] = time.perf_counter() - started
        try:
            lost = [
                leg
                for op in acknowledged
                for leg in op.legs
                if f"C = {leg[3]}, D = {leg[1]}, T = {leg[2]}"
                not in engine.session.query(
                    parse_query(f"?- singleleg({leg[0]}, D, T, C).")
                ).answer_strings
            ]
            epoch.verify(
                not report["corrupt"] and not lost,
                "acknowledged legs lost in recovery",
                (report, lost),
            )
        finally:
            engine.coordinator.close(drain=False)


WORKLOADS = {
    workload.name: workload
    for workload in (
        ColdNone, ColdRewrite, ColdAuto, CompileForms, SessionWarm,
        SessionSeeds, ServeDurable, Sharded,
    )
}
