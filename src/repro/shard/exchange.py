"""The delta-exchange loop: distributed semi-naive fixpoint in rounds.

One distributed evaluation advances every participating shard one
semi-naive iteration per *round*.  In round 0 each shard runs a cold
iteration over its own EDB partition (the specialized seed rule fires
there) or, when the frame carries ``warm`` (:func:`warm_start`),
resumes the form's warm state with its delta: the EDB facts loaded
since and the call's seed as a fact.  All or none, because rounds
forward only *new* facts: a cold shard next to warm ones would never
receive what they derived before.  In round ``r`` each shard folds
the tuples other shards derived in round ``r-1`` into its database as
an external delta
(:func:`repro.engine.fixpoint.resume` with ``assume_delta``) and runs
exactly one more iteration, so a tuple derived anywhere is visible
everywhere one round later -- the distributed run explores the same
derivations as a single session, just interleaved.

Between rounds the coordinator plays switchboard: it collects every
shard's newly derived tuples, drops the ones already exchanged in an
earlier round (a global ``seen`` set of :func:`repro.codec.frozen`
encoded facts -- the encoding is canonical, so the entry is its own
identity), and forwards each genuinely fresh tuple to every
participant that did not itself derive it this round.  The round
barrier declares *global fixpoint* only when no shard derived
anything new -- at that point every shard's local delta has been
processed and no tuple is in flight, because a tuple is always
delivered (and folded in) on the round immediately after it is
derived.

Budgets stay per shard: a shard whose meter trips reports the
exhausted resource in its round reply, and the loop stops immediately
with a truncated outcome instead of delivering further deltas --
mirroring the single-session governor's truncate-at-a-checkpoint
behaviour.  The loop itself is transport-agnostic (it only needs a
``scatter`` callable): the coordinator drives it over the wire for a
broadcast query, the sole worker of a pruned query drives it over its
own round step, and the shard test suite drives it against fakes.

Stragglers are the transport's problem, and the transport solves it:
the coordinator's ``scatter`` closure carries the request's remaining
deadline on every round frame and bounds each call with an op
timeout, so a participant that wedges mid-round fails the barrier
with :class:`~repro.errors.ShardError` within that bound instead of
stalling it forever.  The coordinator then respawns the dead
participants inline and retries the whole query once from
``q_start`` (every exchange round replays -- the fresh incarnations
hold no query state), counting ``shard.round_retries``; a second
failure surfaces as transient ``REPRO_SHARD``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.codec import frozen
from repro.obs.recorder import count as obs_count
from repro.obs.recorder import span as obs_span


class WorkerReplyError(Exception):
    """A shard answered an exchange op with a ``REPRO_*`` error."""

    def __init__(self, shard: int, code: str, message: str) -> None:
        super().__init__(f"shard {shard}: [{code}] {message}")
        self.shard = shard
        self.code = code
        self.message = message


@dataclass
class ExchangeOutcome:
    """What one distributed evaluation's round loop did."""

    rounds: int
    exchanged: int
    truncated: str | None

    @property
    def fixpoint(self) -> bool:
        return self.truncated is None


def check_replies(replies: Mapping[int, dict]) -> None:
    """Raise the lowest shard's error reply as :class:`WorkerReplyError`."""
    for shard, reply in sorted(replies.items()):
        if not reply.get("ok"):
            raise WorkerReplyError(
                shard,
                reply.get("error_code", "REPRO_INTERNAL"),
                reply.get("error_message", "shard op failed"),
            )


def warm_start(starts: Mapping[int, dict]) -> tuple[bool, bool]:
    """``(warm, rounds)`` for a query, from its ``q_start`` replies.

    Warm when every reply names the same earlier run as its state's
    origin.  Not when a shard has none (respawned, evicted, trimmed,
    beaten to the checkout) or two concurrent runs checked theirs back
    in in different orders.  Rounds run unless warm with no delta.
    """
    origins = {reply.get("warm") for reply in starts.values()}
    warm = len(origins) == 1 and None not in origins
    return warm, not warm or any(
        reply.get("delta") for reply in starts.values()
    )


def run_exchange(
    scatter: Callable[[Mapping[int, dict]], Mapping[int, dict]],
    participants: Sequence[int],
    qid: str,
    max_rounds: int,
    warm: bool = False,
) -> ExchangeOutcome:
    """Drive one query's rounds to global fixpoint (module docstring).

    ``scatter`` sends one payload per participating shard and returns
    the replies keyed the same way; transport failures are its
    problem (the coordinator raises ``ShardError``), ``REPRO_*``
    error replies surface here as :class:`WorkerReplyError`.
    ``warm`` tells round 0 to resume every participant's warm state.
    """
    participants = list(participants)
    seen: set[tuple] = set()
    deltas: dict[int, list[list]] = {s: [] for s in participants}
    exchanged = 0
    truncated: str | None = None
    rounds = 0
    for number in range(max_rounds):
        with obs_span(
            "shard.round", round=number, participants=len(participants)
        ):
            frame = {"op": "q_round", "qid": qid, "round": number}
            if warm and number == 0:
                frame["warm"] = True
            replies = scatter({
                shard: dict(frame, facts=deltas[shard])
                for shard in participants
            })
        check_replies(replies)
        rounds = number + 1
        obs_count("shard.rounds")
        fresh: dict[tuple, tuple[list, set[int]]] = {}
        any_new = False
        for shard, reply in sorted(replies.items()):
            if reply.get("exhausted") and truncated is None:
                truncated = str(reply["exhausted"])
            if reply.get("count"):
                any_new = True
            for entry in reply.get("new", ()):
                key = frozen(entry)
                if key in seen:
                    continue
                record = fresh.setdefault(key, (entry, set()))
                record[1].add(shard)
        if truncated is not None:
            break  # stop delivering; the answer is already partial
        deltas = {shard: [] for shard in participants}
        for key, (entry, emitters) in fresh.items():
            seen.add(key)
            for shard in participants:
                if shard not in emitters:
                    deltas[shard].append(entry)
                    exchanged += 1
        if not any_new:
            break  # global fixpoint: nothing derived, nothing in flight
    else:
        truncated = "iterations"
    obs_count("shard.exchanged", exchanged)
    return ExchangeOutcome(
        rounds=rounds, exchanged=exchanged, truncated=truncated
    )
