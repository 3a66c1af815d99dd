"""The deterministic shard-key router: which shard owns which fact.

A :class:`ShardPlan` assigns every EDB relation a
:class:`PartitionSpec` -- hash- or range-partitioned on one key
column, or *broadcast* (replicated to every shard).  Routing is pure
arithmetic over the plan: no state, no randomness, and the hash is
``crc32`` over a canonical byte rendering of the key value, so the
same fact lands on the same shard in every process and across
restarts (Python's salted ``hash`` would not).

Which relations may be partitioned at all is a static property of the
*rules*: a derivation joining two partitioned facts that live on
different shards would never fire, because the exchange loop
(:mod:`repro.shard.exchange`) only replicates derived (IDB) tuples.
:func:`build_plan` therefore demotes relations until every rule body
contains at most one partitioned literal -- the remaining literals are
broadcast EDB relations (present everywhere) or IDB predicates (their
tuples are exchanged every round) -- which makes the partitioned
evaluation answer-identical to a single session for *any* program.
Small relations and relations with constraint (non-ground) facts are
broadcast outright: replicating a handful of tuples is cheaper than
exchanging against them, and a pending key position has no value to
hash.  The plan is derived from the program text alone -- never from
runtime loads -- so a restarted cluster with the same shard count
rebuilds the identical plan.

The seed side of the same arithmetic is
:meth:`ShardPlan.seed_shards`: a query whose form binds the key
column of a partitioned relation (the constants a magic seed would
carry -- the pushed constraint selection) can only touch the shard
owning that key value, so the coordinator scatters it to exactly that
shard and falls back to broadcast for everything else.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from repro.engine.database import Database
from repro.engine.facts import Fact, is_number
from repro.errors import UsageError
from repro.lang.ast import Program, Query
from repro.lang.normalize import normalize_query
from repro.lang.terms import NumTerm, Sym
from repro.service.forms import canonicalize

#: Relations with at most this many program facts are broadcast.
SMALL_RELATION = 4


@dataclass(frozen=True)
class PartitionSpec:
    """How one relation's facts map to shards.

    ``kind`` is ``"hash"``, ``"range"``, or ``"broadcast"``.
    ``column`` is the 0-based key column; ``bounds`` (range only) are
    ascending split points: a numeric key ``v`` goes to the number of
    bounds ``< v`` (modulo the shard count), so ``bounds=(10, 20)``
    over 3 shards sends ``v<=10`` to shard 0, ``v<=20`` to shard 1,
    the rest to shard 2.  Non-numeric keys under a range spec fall
    back to the hash, keeping routing total.
    """

    kind: str
    column: int = 0
    bounds: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "range", "broadcast"):
            raise UsageError(
                f"unknown partition kind {self.kind!r}"
            )
        if self.column < 0:
            raise UsageError(
                f"partition key column must be >= 0: {self.column}"
            )


def _key_bytes(value: object) -> bytes | None:
    """A canonical, process-stable byte rendering of a key value."""
    if isinstance(value, Sym):
        return b"s:" + value.name.encode("utf-8")
    if is_number(value):
        return (
            b"n:"
            + str(value.numerator).encode()
            + b"/"
            + str(value.denominator).encode()
        )
    return None  # PENDING (a constrained position): no value to hash


def stable_hash(value: object) -> int | None:
    """The router's stable hash of one key value (``None`` = no key)."""
    data = _key_bytes(value)
    if data is None:
        return None
    return zlib.crc32(data)


class ShardPlan:
    """A frozen routing table over ``shards`` worker processes."""

    def __init__(
        self, shards: int, specs: dict[str, PartitionSpec]
    ) -> None:
        if shards < 1:
            raise UsageError(f"shard count must be >= 1: {shards}")
        self.shards = shards
        self.specs = dict(specs)

    # -- fact routing -------------------------------------------------

    def spec_for(self, pred: str) -> PartitionSpec:
        """The relation's spec (unknown relations broadcast)."""
        return self.specs.get(pred, PartitionSpec("broadcast"))

    def route_value(self, pred: str, value: object) -> int | None:
        """The shard owning one key value (``None`` = broadcast)."""
        spec = self.spec_for(pred)
        if spec.kind == "broadcast":
            return None
        if spec.kind == "range" and is_number(value):
            return bisect_right(
                [Fraction(b) for b in spec.bounds], value
            ) % self.shards
        digest = stable_hash(value)
        if digest is None:
            return None
        return digest % self.shards

    def route(self, fact: Fact) -> int | None:
        """The shard owning a fact, or ``None`` for broadcast.

        Total: every fact gets exactly one owner or is broadcast to
        all -- a partitioned relation's fact whose key position is
        pending (constraint facts) or out of range broadcasts rather
        than being dropped.
        """
        spec = self.spec_for(fact.pred)
        if spec.kind == "broadcast" or spec.column >= len(fact.args):
            return None
        return self.route_value(fact.pred, fact.args[spec.column])

    def placed_on(self, fact: Fact, shard: int) -> bool:
        """Does ``shard``'s EDB hold this fact under the plan?"""
        owner = self.route(fact)
        return owner is None or owner == shard

    # -- seed routing -------------------------------------------------

    def seed_shards(self, query: Query) -> list[int] | None:
        """The shards a query can touch (``None`` = broadcast to all).

        Prunable exactly when the query is over a partitioned EDB
        relation and its form binds the relation's key column -- then
        every answer fact carries that key value, all of them on its
        owner shard.  Queries over IDB predicates (derivations may
        join facts anywhere) and unbound key columns fall back to
        broadcast.
        """
        spec = self.spec_for(query.literal.pred)
        if spec.kind == "broadcast":
            return None
        form, __ = canonicalize(query)
        if spec.column >= len(form.adornment):
            return None
        if form.adornment[spec.column] != "b":
            return None
        normalized = normalize_query(query)
        arg = normalized.literal.args[spec.column]
        if isinstance(arg, Sym):
            value: object = arg
        elif isinstance(arg, NumTerm) and arg.is_constant():
            value = arg.value
        else:
            return None
        owner = self.route_value(query.literal.pred, value)
        return None if owner is None else [owner]

    # -- description --------------------------------------------------

    def describe(self) -> dict:
        """A JSON-ready rendering (handshake payload, stats)."""
        return {
            "shards": self.shards,
            "relations": {
                pred: {
                    "kind": spec.kind,
                    "column": spec.column,
                    **(
                        {"bounds": [str(b) for b in spec.bounds]}
                        if spec.bounds
                        else {}
                    ),
                }
                for pred, spec in sorted(self.specs.items())
            },
        }

    @classmethod
    def from_description(cls, payload: dict) -> "ShardPlan":
        """Rebuild the plan a worker received in its handshake."""
        specs = {
            pred: PartitionSpec(
                entry["kind"],
                entry.get("column", 0),
                tuple(
                    Fraction(b) for b in entry.get("bounds", ())
                ),
            )
            for pred, entry in payload["relations"].items()
        }
        return cls(payload["shards"], specs)


@dataclass
class PlanNote:
    """Why a relation ended up broadcast (surfaced in stats/docs)."""

    pred: str
    reason: str


def build_plan(
    rules: Program,
    edb: Database,
    shards: int,
    keys: dict[str, int] | None = None,
    ranges: dict[str, tuple] | None = None,
    small_threshold: int = SMALL_RELATION,
) -> tuple[ShardPlan, list[PlanNote]]:
    """Derive the routing plan for a program (module docstring).

    ``keys`` overrides the key column per relation (default 0);
    ``ranges`` maps relations to ascending numeric bounds, switching
    them from hash to range partitioning on the same key column.
    Returns the plan plus the demotion notes explaining every
    broadcast decision.
    """
    keys = keys or {}
    ranges = ranges or {}
    derived = rules.derived_predicates()
    counts: dict[str, int] = {}
    pending: set[str] = set()
    for fact in edb.all_facts():
        counts[fact.pred] = counts.get(fact.pred, 0) + 1
        column = keys.get(fact.pred, 0)
        if column >= len(fact.args) or _key_bytes(
            fact.args[column]
        ) is None:
            pending.add(fact.pred)
    edb_preds = set(counts)
    for rule in rules:
        for literal in rule.body:
            if literal.pred not in derived:
                edb_preds.add(literal.pred)

    notes: list[PlanNote] = []
    partitioned = set()
    for pred in sorted(edb_preds):
        if pred in pending:
            notes.append(PlanNote(
                pred, "constraint facts: key position has no value"
            ))
        elif counts.get(pred, 0) <= small_threshold:
            notes.append(PlanNote(
                pred,
                f"small relation ({counts.get(pred, 0)} facts): "
                "replication is cheaper than exchange",
            ))
        else:
            partitioned.add(pred)

    # Join safety: shrink until no rule body holds two partitioned
    # literals.  Keep the largest relation of each conflicting pair
    # (the biggest scan win); a self-join demotes the relation
    # outright -- its two facts may live on different shards.
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.is_fact:
                continue
            lits = [
                literal.pred
                for literal in rule.body
                if literal.pred in partitioned
            ]
            if len(lits) < 2:
                continue
            if len(set(lits)) < len(lits):  # self-join
                victims = set(lits)
            else:
                keep = max(
                    set(lits), key=lambda p: (counts.get(p, 0), p)
                )
                victims = set(lits) - {keep}
            for pred in sorted(victims):
                partitioned.discard(pred)
                notes.append(PlanNote(
                    pred,
                    f"joined against another partitioned relation "
                    f"in rule {rule.label or str(rule.head)!r}",
                ))
            changed = True

    specs: dict[str, PartitionSpec] = {}
    for pred in sorted(edb_preds):
        column = keys.get(pred, 0)
        if pred not in partitioned:
            specs[pred] = PartitionSpec("broadcast", column)
        elif pred in ranges:
            specs[pred] = PartitionSpec(
                "range", column, tuple(ranges[pred])
            )
        else:
            specs[pred] = PartitionSpec("hash", column)
    return ShardPlan(shards, specs), notes


def parse_partition_keys(
    entries: list[str],
) -> tuple[dict[str, int], dict[str, tuple]]:
    """CLI ``--partition-key pred=COL[@B1,B2,...]`` entries.

    Returns ``(keys, ranges)`` for :func:`build_plan`; the ``@``
    suffix lists ascending range bounds, switching the relation to
    range partitioning.
    """
    keys: dict[str, int] = {}
    ranges: dict[str, tuple] = {}
    for entry in entries:
        pred, sep, rest = entry.partition("=")
        if not sep or not pred:
            raise UsageError(
                f"bad --partition-key {entry!r}: expected "
                "pred=COL or pred=COL@B1,B2,..."
            )
        column_text, at, bounds_text = rest.partition("@")
        try:
            keys[pred] = int(column_text)
        except ValueError:
            raise UsageError(
                f"bad --partition-key column in {entry!r}"
            ) from None
        if keys[pred] < 0:
            raise UsageError(
                f"--partition-key column must be >= 0 in {entry!r}"
            )
        if at:
            try:
                bounds = tuple(
                    Fraction(piece)
                    for piece in bounds_text.split(",")
                    if piece.strip()
                )
            except ValueError:
                raise UsageError(
                    f"bad --partition-key bounds in {entry!r}"
                ) from None
            if list(bounds) != sorted(bounds):
                raise UsageError(
                    f"--partition-key bounds must ascend in {entry!r}"
                )
            ranges[pred] = bounds
    return keys, ranges
