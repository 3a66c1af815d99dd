"""``repro serve`` -- the supervised concurrent batch front-end.

Reads batch-protocol request lines (``--batch FILE``, default stdin),
serves them through a :class:`~repro.serve.supervisor.Supervisor`
worker pool, and prints one JSON result per request *in submission
order* on stdout.  The driver applies backpressure: at most
``--queue-depth`` requests are outstanding at once, so a slow pool
slows the reader instead of shedding its own input (external callers
hammering :meth:`Supervisor.submit` directly still get shed).

With ``--snapshot-dir`` the supervisor first recovers any existing
snapshot + fact log (so a killed process restarts where it crashed),
logs every acknowledged fact load durably, and checkpoints every
``--snapshot-every`` loads and at drain.  Re-feeding a batch file
after recovery is safe: already-loaded facts deduplicate to no-ops.

Exit status follows the batch contract (``docs/service.md``): 0 when
every request succeeded (including ``approximated`` under an explicit
``--on-limit widen``), 1 on any error, shed, or truncation, 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys

from repro import obs
from repro.config import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
)
from repro.driver import STRATEGY_CHOICES
from repro.errors import ReproError, UsageError, exit_code_for
from repro.governor.cli import add_governor_arguments, build_budget
from repro.serve.retry import RetryPolicy
from repro.serve.snapshot import program_sha
from repro.serve.supervisor import ServeConfig, Supervisor
from repro.service.batch import degraded_status
from repro.service.engine import Engine


def positive_int(text: str) -> int:
    """Argparse type for flags that must be a positive integer.

    Rejecting at parse time turns ``--workers 0`` into a clean usage
    error (exit 2 with the offending flag named) instead of a
    ``ValueError`` surfacing from ``ServeConfig``.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve batch-protocol requests through a supervised "
            "worker pool: bounded admission, retry with backoff, "
            "per-form circuit breakers, crash-safe snapshots "
            "(docs/serving.md)."
        ),
    )
    parser.add_argument(
        "file",
        help="program file with rules and ground facts ('-' for stdin "
        "is not supported here; requests come from --batch)",
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        default="-",
        help="request stream: one query (?- ...) or fact line per "
        "input line ('-' = stdin, the default)",
    )
    pool = parser.add_argument_group("worker pool")
    pool.add_argument(
        "--workers",
        type=positive_int,
        default=4,
        metavar="N",
        help="worker threads serving requests (default 4)",
    )
    pool.add_argument(
        "--queue-depth",
        type=positive_int,
        default=64,
        metavar="N",
        help="admission-queue bound; requests beyond it are shed "
        "with REPRO_OVERLOAD (default 64)",
    )
    pool.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="per-query retry budget for transient failures "
        "(default 2; fact loads are never retried)",
    )
    pool.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base of the full-jitter exponential backoff "
        "(default 0.05)",
    )
    pool.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive budget failures that open a form's "
        "circuit breaker (default 3)",
    )
    pool.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long an open breaker refuses a form before "
        "probing again (default 5)",
    )
    durability = parser.add_argument_group("durability")
    durability.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="checkpoint directory: recover from it at startup, log "
        "every fact load, snapshot periodically and at drain",
    )
    durability.add_argument(
        "--snapshot-every",
        type=positive_int,
        default=8,
        metavar="N",
        help="full checkpoint every N fact loads (default 8)",
    )
    sharding = parser.add_argument_group("sharding")
    sharding.add_argument(
        "--shards",
        type=positive_int,
        default=None,
        metavar="N",
        help="partition the EDB across N worker processes and run "
        "queries as a distributed fixpoint with delta exchange "
        "(docs/serving.md); with --snapshot-dir each shard keeps "
        "its own WAL under DIR/shard-NN and checkpoints are "
        "consistent cross-shard cuts",
    )
    sharding.add_argument(
        "--partition-key",
        action="append",
        metavar="PRED=COL[@B1,B2,...]",
        help="shard-key column for a relation (default column 0); "
        "an @-suffixed ascending bound list switches the relation "
        "to range partitioning (repeatable)",
    )
    sharding.add_argument(
        "--shard-op-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="deadline per coordinator-worker op: a worker that "
        "does not reply in time is declared hung, SIGKILLed and "
        "respawned (default 30; 0 disables, leaving only "
        "heartbeat detection)",
    )
    sharding.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how often the coordinator pings each worker (and "
        "probes during long ops) to tell slow from dead "
        "(default 2; 0 disables heartbeats)",
    )
    parser.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="rewrite",
        help="transformation pipeline, or 'auto' to run each query "
        "form with the strategy its shape picks (default: rewrite)",
    )
    parser.add_argument(
        "--max-iterations", type=int, metavar="N",
        default=DEFAULT_REWRITE_ITERATIONS,
        help="cap for the constraint-inference fixpoints "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--eval-iterations", type=int, metavar="N",
        default=DEFAULT_EVAL_ITERATIONS,
        help="cap for the bottom-up evaluation (default %(default)s)",
    )
    parser.add_argument(
        "--cache-size", type=int, metavar="N",
        default=DEFAULT_CACHE_SIZE,
        help="query-form LRU cache capacity (default %(default)s)",
    )
    add_governor_arguments(parser, "each request")
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the supervisor stats JSON to stderr at drain",
    )
    return parser


def _start_shards(engine, err) -> None:
    """Spawn the shard fleet, recover it, and report what happened.

    The ``shard K pid P`` lines give the chaos harness a handle to
    SIGKILL one specific worker; the corruption and consistency lines
    mirror the single-session recovery report (same ``REPRO_CORRUPT``
    vocabulary) but per shard and against the cluster manifest.
    """
    coordinator = engine.coordinator
    recovery = coordinator.recover()
    for shard, pid in sorted(coordinator.pids().items()):
        print(f"repro serve: shard {shard} pid {pid}", file=err)
    corrupt = recovery.get("corrupt", 0)
    quarantined_manifests = recovery.get("quarantined_manifests", [])
    if corrupt or quarantined_manifests:
        print(
            f"repro serve: [REPRO_CORRUPT] corrupt durable state "
            f"quarantined across shards ({corrupt} shard files, "
            f"{len(quarantined_manifests)} cluster manifests moved "
            f"to corrupt/); recovery fell back to the newest "
            f"verifiable state",
            file=err,
        )
    manifest = recovery.get("manifest", {})
    if not manifest.get("consistent", True):
        behind = ", ".join(
            f"shard {entry['shard']} epoch "
            f"{entry['recovered_epoch']} < "
            f"{entry['manifest_epoch']}"
            for entry in manifest.get("behind", ())
        )
        print(
            f"repro serve: [REPRO_CORRUPT] inconsistent cluster "
            f"recovery against manifest generation "
            f"{manifest.get('generation')}: {behind}",
            file=err,
        )
    restored = sum(
        (summary or {}).get("facts_restored", 0)
        + (summary or {}).get("replayed", 0)
        for summary in recovery.get("shards", {}).values()
    )
    if restored:
        per_shard = ", ".join(
            f"shard {shard} epoch {summary.get('epoch', 0)}"
            for shard, summary in sorted(
                recovery.get("shards", {}).items()
            )
            if summary
        )
        print(
            f"repro serve: recovered cluster epoch "
            f"{recovery.get('epoch', 0)} ({per_shard})",
            file=err,
        )


def _serve(arguments, supervisor: Supervisor, lines, out) -> int:
    """Pump request lines through the pool, printing in order."""
    status = 0
    on_limit = supervisor._engine.session.on_limit
    pending: "collections.deque" = collections.deque()

    def flush_one() -> None:
        nonlocal status
        response = pending.popleft().result()
        print(json.dumps(response.to_dict()), file=out, flush=True)
        status |= degraded_status(response, on_limit)

    for line in lines:
        request = supervisor.submit(line)
        if request is None:
            continue
        pending.append(request)
        # Backpressure: never more outstanding than the queue could
        # hold, so the driver itself cannot force sheds.
        while len(pending) >= arguments.queue_depth:
            flush_one()
    while pending:
        flush_one()
    return status


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro serve``; returns the exit status."""
    arguments = build_parser().parse_args(argv)
    try:
        with open(arguments.file) as handle:
            text = handle.read()
    except OSError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    sharded = arguments.shards is not None
    try:
        if arguments.partition_key and not sharded:
            raise UsageError(
                "--partition-key requires --shards"
            )
        session_options = dict(
            strategy=arguments.strategy,
            max_iterations=arguments.max_iterations,
            eval_iterations=arguments.eval_iterations,
            budget=build_budget(arguments),
            on_limit=arguments.on_limit,
            cache_size=arguments.cache_size,
        )
        if sharded:
            from repro.shard import (
                ShardedEngine,
                parse_partition_keys,
            )

            keys, ranges = parse_partition_keys(
                arguments.partition_key or []
            )
            engine = ShardedEngine.from_text(
                text,
                arguments.shards,
                snapshot_dir=arguments.snapshot_dir,
                snapshot_every=arguments.snapshot_every,
                faults=arguments.faults,
                partition_keys=keys,
                partition_ranges=ranges,
                op_timeout=(
                    arguments.shard_op_timeout or None
                ),
                heartbeat_interval=max(
                    arguments.heartbeat_interval, 0.0
                ),
                **session_options,
            )
        else:
            engine = Engine.from_text(text, **session_options)
        config = ServeConfig(
            workers=arguments.workers,
            queue_depth=arguments.queue_depth,
            retry=RetryPolicy(
                retries=arguments.retries,
                base_delay=arguments.retry_base_delay,
            ),
            breaker_threshold=arguments.breaker_threshold,
            breaker_cooldown=arguments.breaker_cooldown,
            # In sharded mode durability belongs to the shards: each
            # worker WALs its own loads and the coordinator writes
            # the cluster manifest, so the supervisor keeps none.
            snapshot_dir=(
                None if sharded else arguments.snapshot_dir
            ),
            snapshot_every=arguments.snapshot_every,
        )
    except (ReproError, ValueError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return (
            exit_code_for(error)
            if isinstance(error, ReproError) else 2
        )
    recorder = obs.get_recorder()
    if arguments.faults:
        from repro.governor import FaultPlan, FaultyRecorder

        try:
            plan = FaultPlan.from_spec(arguments.faults)
        except ReproError as error:
            print(f"repro serve: {error}", file=sys.stderr)
            return exit_code_for(error)
        recorder = FaultyRecorder(plan, inner=recorder)
    supervisor = Supervisor(
        engine, config, program_id=program_sha(text)
    )
    try:
        with obs.recording(recorder):
            if sharded:
                _start_shards(engine, sys.stderr)
                recovery = None
            else:
                recovery = supervisor.recover()
            if recovery and recovery.get("corrupt"):
                print(
                    f"repro serve: [{recovery['code']}] corrupt "
                    f"durable state quarantined "
                    f"({recovery['log_records_dropped']} log records "
                    f"dropped, {len(recovery['quarantined'])} files "
                    f"moved to corrupt/); recovery fell back to the "
                    f"newest verifiable state",
                    file=sys.stderr,
                )
            if recovery and (
                recovery["facts_restored"] or recovery["replayed"]
            ):
                print(
                    f"repro serve: recovered epoch "
                    f"{recovery['epoch']} "
                    f"({recovery['facts_restored']} facts from "
                    f"snapshot {recovery['snapshot_epoch']}, "
                    f"{recovery['replayed']} log epochs replayed)",
                    file=sys.stderr,
                )
            supervisor.start()
            try:
                if arguments.batch == "-":
                    status = _serve(
                        arguments, supervisor, sys.stdin, sys.stdout
                    )
                else:
                    with open(arguments.batch) as handle:
                        status = _serve(
                            arguments, supervisor, handle, sys.stdout
                        )
            finally:
                supervisor.drain()
                if sharded:
                    engine.coordinator.close()
    except OSError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(
            f"repro serve: [{error.code}] {error}", file=sys.stderr
        )
        return exit_code_for(error)
    if arguments.summary:
        print(
            json.dumps(supervisor.stats(), default=str),
            file=sys.stderr,
        )
    return status
