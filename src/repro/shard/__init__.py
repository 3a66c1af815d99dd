"""Sharded multi-process serving: the cluster behind one session.

The package splits the EDB across ``N`` worker subprocesses by a
deterministic shard key (:mod:`~repro.shard.partition`), runs the
semi-naive fixpoint as a distributed round protocol that exchanges
each round's newly derived tuples between shards
(:mod:`~repro.shard.exchange` driving
:mod:`~repro.shard.worker` over length-prefixed JSON frames,
:mod:`~repro.shard.protocol`), and presents the whole fleet behind
the single-session surface the serve supervisor already speaks
(:mod:`~repro.shard.coordinator`).  Cross-shard durability -- per-
shard WALs stitched into a consistent checkpoint by cluster
manifests -- lives in :mod:`~repro.shard.snapshot`.

Wired up as ``repro serve program.cql --shards N``.
"""

from repro.shard.coordinator import (
    ShardClient,
    ShardCoordinator,
    ShardedEngine,
)
from repro.shard.exchange import ExchangeOutcome, run_exchange
from repro.shard.partition import (
    PartitionSpec,
    PlanNote,
    ShardPlan,
    build_plan,
    parse_partition_keys,
    stable_hash,
)

__all__ = [
    "ExchangeOutcome",
    "PartitionSpec",
    "PlanNote",
    "ShardClient",
    "ShardCoordinator",
    "ShardPlan",
    "ShardedEngine",
    "build_plan",
    "parse_partition_keys",
    "run_exchange",
    "stable_hash",
]
