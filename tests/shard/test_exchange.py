"""Unit tests for the delta-exchange round loop (against fakes).

``run_exchange`` only needs a ``scatter`` callable, so these tests
drive it with scripted in-process shards and check the protocol-level
contracts directly: fresh tuples are delivered exactly to the shards
that did not emit them, a tuple is never exchanged twice (even when a
later round re-derives it), the barrier declares fixpoint only when
no shard derived anything, truncation stops delivery immediately, and
the round cap reports ``truncated:iterations``-style outcomes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import codec
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import make_fact
from repro.shard.exchange import (
    WorkerReplyError,
    run_exchange,
    warm_start,
)


def enc(name: str) -> list:
    return ["t", [name], []]


class ScriptedShards:
    """Shards that derive a scripted sequence of facts per round."""

    def __init__(self, script: dict[int, list[list[list]]]) -> None:
        self.script = script
        self.delivered: dict[int, list[list[list]]] = {
            shard: [] for shard in script
        }

    def scatter(self, payloads):
        replies = {}
        for shard, payload in payloads.items():
            number = payload["round"]
            self.delivered[shard].append(payload["facts"])
            rounds = self.script[shard]
            new = rounds[number] if number < len(rounds) else []
            replies[shard] = {
                "ok": True,
                "new": new,
                "count": len(new),
                "exhausted": None,
            }
        return replies


def test_single_shard_runs_to_local_fixpoint():
    shards = ScriptedShards({0: [[enc("a")], [enc("b")], []]})
    outcome = run_exchange(shards.scatter, [0], "q1", 10)
    assert outcome.fixpoint
    assert outcome.rounds == 3
    assert outcome.exchanged == 0  # nowhere to send


def test_fresh_facts_delivered_to_non_emitters_only():
    shards = ScriptedShards({
        0: [[enc("a")], [], []],
        1: [[], [], []],
        2: [[enc("a")], [], []],
    })
    outcome = run_exchange(shards.scatter, [0, 1, 2], "q1", 10)
    assert outcome.fixpoint
    # 'a' was emitted by shards 0 and 2 in round 0: only shard 1
    # (which did not derive it) receives it, in round 1.
    assert shards.delivered[1][1] == [enc("a")]
    assert shards.delivered[0][1] == []
    assert shards.delivered[2][1] == []
    assert outcome.exchanged == 1


def test_seen_facts_never_exchanged_twice():
    # Shard 1 re-derives 'a' in round 2 after receiving it in round
    # 1; the re-derivation must not be delivered back to shard 0.
    shards = ScriptedShards({
        0: [[enc("a")], [], [], []],
        1: [[], [], [enc("a")], []],
    })
    outcome = run_exchange(shards.scatter, [0, 1], "q1", 10)
    assert outcome.fixpoint
    assert outcome.exchanged == 1
    flat = [
        entry
        for deliveries in shards.delivered[0]
        for entry in deliveries
    ]
    assert flat == []


def test_barrier_requires_all_shards_quiet():
    # Shard 1 keeps deriving locally (duplicates of the global set
    # do not count as new) -- rounds continue while ANY shard reports
    # new facts, and stop the first round all are quiet.
    shards = ScriptedShards({
        0: [[enc("a")], [], [], []],
        1: [[enc("b")], [enc("c")], [enc("d")], []],
    })
    outcome = run_exchange(shards.scatter, [0, 1], "q1", 10)
    assert outcome.fixpoint
    assert outcome.rounds == 4


def test_truncation_stops_delivery_immediately():
    class Exhausting(ScriptedShards):
        def scatter(self, payloads):
            replies = super().scatter(payloads)
            for shard, payload in payloads.items():
                if payload["round"] == 1 and shard == 1:
                    replies[shard]["exhausted"] = "facts"
            return replies

    shards = Exhausting({
        0: [[enc("a")], [enc("b")], [enc("c")]],
        1: [[], [], []],
    })
    outcome = run_exchange(shards.scatter, [0, 1], "q1", 10)
    assert not outcome.fixpoint
    assert outcome.truncated == "facts"
    assert outcome.rounds == 2
    # Round 2 never ran: 'b' (fresh in the truncated round) was not
    # delivered anywhere.
    assert len(shards.delivered[1]) == 2


def test_round_cap_reports_iteration_truncation():
    endless = ScriptedShards({
        0: [[enc(f"f{i}")] for i in range(100)],
    })
    outcome = run_exchange(endless.scatter, [0], "q1", 5)
    assert outcome.truncated == "iterations"
    assert outcome.rounds == 5


def test_warm_bit_rides_round_zero_only():
    shards = ScriptedShards({0: [[enc("a")], []], 1: [[], []]})
    frames: list = []

    def scatter(payloads):
        frames.extend(payloads.values())
        return shards.scatter(payloads)

    run_exchange(scatter, [0, 1], "q1", 10, warm=True)
    assert [frame.get("warm") for frame in frames] == [
        True, True, None, None,
    ]


@pytest.mark.parametrize(
    "starts, expected",
    [
        # One run left every participant's state: resume, or read.
        ({0: {"warm": "q1", "delta": 0}, 1: {"warm": "q1"}},
         (True, False)),
        ({0: {"warm": "q1", "delta": 2}, 1: {"warm": "q1"}},
         (True, True)),
        # A cold participant, or states from two runs: all cold.
        ({0: {"warm": "q1", "delta": 0}, 1: {"warm": None}},
         (False, True)),
        ({0: {"warm": "q2", "delta": 0}, 1: {"warm": "q3"}},
         (False, True)),
        ({0: {"warm": None}}, (False, True)),
    ],
)
def test_warm_start_is_all_or_none(starts, expected):
    assert warm_start(starts) == expected


def test_error_reply_raises_worker_reply_error():
    def scatter(payloads):
        return {
            shard: {
                "ok": False,
                "error_code": "REPRO_BUDGET",
                "error_message": "deadline budget exhausted",
            }
            for shard in payloads
        }

    with pytest.raises(WorkerReplyError) as info:
        run_exchange(scatter, [0, 1], "q1", 10)
    assert info.value.code == "REPRO_BUDGET"


def test_same_constraint_fact_from_two_shards_is_exchanged_once():
    # t(a, $2; 1/2 <= $2 < 10) derived by shards 0 and 2 in the same
    # round arrives as two separately parsed (equal, not identical)
    # arrays; the encoding is canonical, so they are one fact and
    # shard 1 receives it exactly once.
    fact = make_fact(
        "t",
        ["a", None],
        Conjunction([
            Atom.le(
                LinearExpr.const(Fraction(1, 2)), LinearExpr.var("$2")
            ),
            Atom.lt(LinearExpr.var("$2"), LinearExpr.const(10)),
        ]),
    )
    wire = codec.dumps(codec.encode_fact(fact))
    first, second = codec.loads(wire), codec.loads(wire)
    assert first is not second
    shards = ScriptedShards({
        0: [[first], [], []],
        1: [[], [], []],
        2: [[second], [], []],
    })
    outcome = run_exchange(shards.scatter, [0, 1, 2], "q1", 10)
    assert outcome.fixpoint
    assert outcome.exchanged == 1
    [delivered] = shards.delivered[1][1]
    assert codec.decode_fact(delivered) == fact
    assert shards.delivered[0][1] == shards.delivered[2][1] == []
