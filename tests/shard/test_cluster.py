"""End-to-end tests for the sharded cluster (real worker processes).

The acceptance bar for sharded serving is answer-identity: whatever a
single :class:`~repro.service.session.Session` answers, the cluster
must answer, for broadcast and pruned scatter alike, before and after
fact loads, cold and warm.  On top of that ride the operational
contracts: per-shard WAL durability with consistent cross-shard
manifests, recovery after SIGKILL, worker respawn with the failure
isolated to the requests that touched the dead shard, and the
positive-integer/usage validation of the serve CLI flags.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.codec import decode_fact, unseal
from repro.governor import Budget
from repro.lang.parser import parse_program, parse_query
from repro.service.engine import parse_facts
from repro.service.session import Session
from repro.shard import ShardedEngine
from repro.shard.snapshot import (
    build_manifest,
    latest_manifest,
    reconcile,
    shard_directory,
    write_manifest,
)

PROGRAM = """
edge(n1, n2, 1). edge(n2, n3, 1). edge(n3, n4, 2). edge(n4, n5, 1).
edge(n5, n6, 3). edge(n2, n5, 2). edge(n6, n7, 1). edge(n1, n4, 5).
label(n1, start). label(n7, goal).
reach(X, Y) :- edge(X, Y, C).
reach(X, Z) :- reach(X, Y), edge(Y, Z, C).
goalpath(X) :- reach(X, Y), label(Y, goal).
"""

QUERIES = [
    "?- reach(n1, Y).",
    "?- reach(X, Y).",
    "?- reach(X, n7).",
    "?- goalpath(X).",
    "?- edge(n2, Y, C).",
    "?- edge(zzz, Y, C).",
    "?- label(n1, L).",
]


def answers_of(response):
    return sorted(str(fact) for fact in response.answers)


@pytest.fixture(scope="module")
def cluster():
    engine = ShardedEngine.from_text(PROGRAM, 3)
    engine.coordinator.start()
    yield engine
    engine.coordinator.close(drain=False)


@pytest.fixture(scope="module")
def single():
    return Session(parse_program(PROGRAM))


@pytest.mark.parametrize("query_text", QUERIES)
def test_cluster_matches_single_session(cluster, single, query_text):
    query = parse_query(query_text)
    mine = cluster.session.query(query)
    reference = single.query(query)
    assert mine.ok == reference.ok
    assert mine.error_code == reference.error_code
    assert answers_of(mine) == answers_of(reference)
    if reference.ok:
        assert mine.completeness == reference.completeness


def test_warm_repeat_hits_coordinator_cache(cluster):
    query = parse_query("?- reach(n3, Y).")
    cold = cluster.session.query(query)
    warm = cluster.session.query(query)
    assert answers_of(warm) == answers_of(cold)
    assert warm.warm and warm.cached


def test_pruned_scatter_touches_one_shard(cluster):
    before = dict(cluster.coordinator.counters)
    response = cluster.session.query(parse_query("?- edge(n4, Y, C)."))
    assert response.ok
    after = cluster.coordinator.counters
    assert (
        after["scatter_pruned"] == before["scatter_pruned"] + 1
    )


def test_load_reaches_owner_and_queries_see_it():
    engine = ShardedEngine.from_text(PROGRAM, 2)
    engine.coordinator.start()
    try:
        single = Session(parse_program(PROGRAM))
        load = engine.add_facts("edge(n7, n8, 1).")
        assert load.ok and load.added == 1 and load.epoch == 1
        # Duplicate load: acknowledged, nothing new, epoch advances
        # exactly as in the single session.
        again = engine.add_facts("edge(n7, n8, 1).")
        assert again.ok and again.added == 0
        single.add_facts(parse_facts("edge(n7, n8, 1)."))
        query = parse_query("?- reach(n1, Y).")
        assert answers_of(engine.session.query(query)) == answers_of(
            single.query(query)
        )
        # IDB facts are rejected by every shard, like one session.
        bad = engine.add_facts("reach(n1, n9).")
        assert not bad.ok and bad.error_code == "REPRO_USAGE"
    finally:
        engine.coordinator.close(drain=False)


#: A chain long enough for twenty sibling seeds of ``reach(nK, Y)``.
#: Right-recursive, so under ``optimal`` the seeds' magic closures
#: overlap: a seed downstream of an earlier one is already held.
CHAIN = "\n".join(
    [f"edge(n{i}, n{i + 1}, 1)." for i in range(24)]
    + [f"edge(n{i}, n{i + 3}, 2)." for i in range(0, 24, 4)]
    + [
        "reach(X, Y) :- edge(X, Y, C).",
        "reach(X, Z) :- edge(X, Y, C), reach(Y, Z).",
    ]
)


def _wait_until(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.05)
    return predicate()


@pytest.mark.parametrize("strategy", ["rewrite", "optimal"])
def test_warm_states_take_seeds_and_loads_as_deltas(strategy):
    engine = ShardedEngine.from_text(
        CHAIN, 2, strategy=strategy, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    single = Session(parse_program(CHAIN), strategy=strategy)

    def ask(text, reference=single):
        query = parse_query(text)
        response = engine.session.query(query)
        assert response.ok, response.error_message
        assert answers_of(response) == answers_of(reference.query(query))
        return response

    try:
        assert not ask("?- reach(n3, Y).").warm
        sibling = ask("?- reach(n1, Y).")
        # Under optimal the upstream sibling's seed is new and folded
        # in; the seed-less rewrite has nothing to fold and reads the
        # state.
        assert sibling.warm
        assert sibling.resumed == (strategy == "optimal")
        fact = parse_facts("edge(n24, n25, 1).")[0]
        owner = engine.coordinator.plan.route(fact)
        assert owner is not None  # the load lands on one shard only
        assert engine.add_facts("edge(n24, n25, 1).").added == 1
        single.add_facts([fact])
        loaded = ask("?- reach(n1, Y).")
        assert loaded.warm and loaded.resumed
        assert "Y = n25" in loaded.answer_strings
        os.kill(engine.coordinator.pids()[owner], signal.SIGKILL)
        client = engine.coordinator._clients[owner]
        assert _wait_until(lambda: not client.alive)
        # The respawned owner lost the load and holds no state, so the
        # survivor's state (which derived from the load) is dropped
        # too: the answer is the program's own, computed cold.
        amnesiac = ask(
            "?- reach(n2, Y).",
            Session(parse_program(CHAIN), strategy=strategy),
        )
        assert not amnesiac.warm and not amnesiac.resumed
    finally:
        engine.coordinator.close(drain=False)


@pytest.mark.parametrize("strategy", ["rewrite", "optimal"])
def test_concurrent_sibling_seeds_share_one_form(strategy):
    engine = ShardedEngine.from_text(
        CHAIN, 2, strategy=strategy, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    single = Session(parse_program(CHAIN), strategy=strategy)
    expected = {
        index: answers_of(
            single.query(parse_query(f"?- reach(n{index}, Y)."))
        )
        for index in range(20)
    }
    wrong: list = []

    def asker(variable, order):
        # Distinct query text per thread, same seeds: the coordinator's
        # answer cache cannot serve one thread from the other's run.
        for index in order:
            response = engine.session.query(
                parse_query(f"?- reach(n{index}, {variable}).")
            )
            if not response.ok or answers_of(response) != expected[index]:
                wrong.append((variable, index, response.error_message))

    threads = [
        threading.Thread(target=asker, args=("Y", range(20))),
        threading.Thread(target=asker, args=("Z", range(19, -1, -1))),
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' frames
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
    finally:
        sys.setswitchinterval(switch)
        engine.coordinator.close(drain=False)


def test_durable_cycle_recovers_cluster(tmp_path):
    snapdir = str(tmp_path / "snap")
    engine = ShardedEngine.from_text(
        PROGRAM, 2, snapshot_dir=snapdir, snapshot_every=2
    )
    engine.coordinator.recover()
    for index in range(5):
        response = engine.add_facts(f"edge(x{index}, y{index}, 1).")
        assert response.ok
    assert engine.coordinator.epoch == 5
    engine.coordinator.close()  # drain checkpoint + manifest

    revived = ShardedEngine.from_text(
        PROGRAM, 2, snapshot_dir=snapdir, snapshot_every=2
    )
    summary = revived.coordinator.recover()
    try:
        assert summary["epoch"] == 5
        assert summary["manifest"]["consistent"]
        response = revived.session.query(
            parse_query("?- edge(x3, Y, C).")
        )
        assert response.ok and len(response.answers) == 1
    finally:
        revived.coordinator.close(drain=False)


def test_shard_checkpoints_hold_only_loaded_facts(tmp_path):
    # Each worker's session owns the program facts placed on its shard
    # as its EDB, so no checkpoint re-encodes them.
    snapdir = tmp_path / "snap"
    engine = ShardedEngine.from_text(
        PROGRAM, 2, snapshot_dir=str(snapdir), snapshot_every=100
    )
    engine.coordinator.recover()
    loaded = [f"edge(x{index}, y{index}, 1)." for index in range(4)]
    try:
        for spec in loaded:
            assert engine.add_facts(spec).ok
    finally:
        engine.coordinator.close()  # drain checkpoint + manifest
    snapshots = sorted(snapdir.glob("shard-*/snapshot-*.json"))
    assert snapshots
    written = {
        decode_fact(entry)
        for snapshot in snapshots
        for entry in unseal(snapshot.read_text())["facts"]
    }
    assert written == set(parse_facts("\n".join(loaded)))


def test_sigkill_one_shard_isolates_then_recovers(tmp_path):
    snapdir = str(tmp_path / "snap")
    engine = ShardedEngine.from_text(
        PROGRAM, 2, snapshot_dir=snapdir, snapshot_every=100
    )
    engine.coordinator.recover()
    try:
        for index in range(4):
            assert engine.add_facts(
                f"edge(k{index}, m{index}, 1)."
            ).ok
        os.kill(engine.coordinator.pids()[1], signal.SIGKILL)
        # The reader thread notices the death immediately, so the
        # next request already finds the shard marked down, respawns
        # it, and replays its WAL: the acknowledged loads survive the
        # kill without a caller-visible error.
        query = parse_query("?- reach(n1, Y).")
        recovered = engine.session.query(query)
        assert recovered.ok
        assert engine.coordinator.epoch == 4
        assert engine.coordinator.counters["respawns"] == 1
        check = engine.session.query(parse_query("?- edge(k2, Y, C)."))
        assert check.ok and len(check.answers) == 1
    finally:
        engine.coordinator.close(drain=False)


def test_manifest_roundtrip_and_quarantine(tmp_path):
    directory = str(tmp_path)
    write_manifest(directory, "prog1", 1, 2, {0: 3, 1: 4})
    write_manifest(directory, "prog1", 2, 2, {0: 5, 1: 4})
    manifest, quarantined = latest_manifest(directory, "prog1")
    assert quarantined == []
    assert manifest["generation"] == 2
    assert manifest["global_epoch"] == 9
    # Consistency: a shard short of its manifest epoch is flagged.
    assert reconcile(manifest, {0: 5, 1: 4})["consistent"]
    assert reconcile(manifest, {0: 5, 1: 9})["consistent"]
    status = reconcile(manifest, {0: 2, 1: 4})
    assert not status["consistent"]
    assert status["behind"][0]["shard"] == 0
    # Damage the newest file: it is quarantined and the walk falls
    # back to generation 1.
    path = os.path.join(directory, "manifest-00000002.json")
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(path, "wb").write(bytes(data))
    manifest, quarantined = latest_manifest(directory, "prog1")
    assert manifest["generation"] == 1
    assert quarantined == ["manifest-00000002.json"]
    assert os.path.exists(
        os.path.join(directory, "corrupt", "manifest-00000002.json")
    )


def test_quarantined_manifests_are_sequence_suffixed_and_kept(tmp_path):
    # Manifests are quarantined by the serve snapshot helper: a second
    # damaged file of the same name must not overwrite the first.  An
    # unsealed pre-v3 manifest is damage, never an older format.
    directory = str(tmp_path)
    for expected in ("manifest-00000001.json", "manifest-00000001.json.1"):
        path = write_manifest(directory, "prog1", 1, 1, {0: 1})
        with open(path, "w") as handle:
            handle.write('{"schema": "repro-snap/v2", "crc": "0"}')
        manifest, quarantined = latest_manifest(directory, "prog1")
        assert manifest is None
        assert quarantined == [expected]
    assert sorted(os.listdir(tmp_path / "corrupt")) == [
        "manifest-00000001.json",
        "manifest-00000001.json.1",
    ]
    assert not os.path.exists(path)


def test_manifest_for_other_program_is_hard_error(tmp_path):
    from repro.errors import SnapshotError

    write_manifest(str(tmp_path), "prog1", 1, 2, {0: 1, 1: 1})
    with pytest.raises(SnapshotError):
        latest_manifest(str(tmp_path), "prog2")


def test_manifest_retention(tmp_path):
    for generation in range(1, 6):
        write_manifest(
            str(tmp_path), "p", generation, 1, {0: generation}
        )
    kept = sorted(
        name
        for name in os.listdir(str(tmp_path))
        if name.startswith("manifest-")
    )
    assert kept == [
        "manifest-00000003.json",
        "manifest-00000004.json",
        "manifest-00000005.json",
    ]


def test_shard_directory_layout():
    assert shard_directory("/snap", 0).endswith("shard-00")
    assert shard_directory("/snap", 11).endswith("shard-11")
    payload = build_manifest("p", 1, 2, {0: 1, 1: 2})
    assert payload["shards"] == {"0": 1, "1": 2}


def _run_serve(tmp_path, *flags, batch_lines=()):
    program = tmp_path / "prog.cql"
    program.write_text(PROGRAM)
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line + "\n" for line in batch_lines))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", str(program),
            "--batch", str(batch), *flags,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_serve_cli_sharded_end_to_end(tmp_path):
    result = _run_serve(
        tmp_path,
        "--shards", "2",
        batch_lines=["edge(n7, n8, 1).", "?- reach(n6, Y)."],
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert lines[0]["type"] == "facts" and lines[0]["added"] == 1
    assert sorted(lines[1]["answers"]) == ["Y = n7", "Y = n8"]
    pid_lines = [
        line
        for line in result.stderr.splitlines()
        if line.startswith("repro serve: shard ")
    ]
    assert len(pid_lines) == 2


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (("--workers", "0"), "--workers"),
        (("--queue-depth", "-1"), "--queue-depth"),
        (("--shards", "0"), "--shards"),
        (("--shards", "two"), "--shards"),
        (("--snapshot-every", "0"), "--snapshot-every"),
        (("--partition-key", "edge=0"), "--partition-key"),
        (("--max-iterations", "-1"), "--max-iterations"),
        (("--eval-iterations", "0"), "--eval-iterations"),
        (("--cache-size", "0"), "--cache-size"),
    ],
)
def test_serve_cli_rejects_bad_flags(tmp_path, flags, fragment):
    result = _run_serve(tmp_path, *flags)
    assert result.returncode == 2
    assert fragment in result.stderr
    assert "Traceback" not in result.stderr


# -- pruned lookups: one frame, run, answered and checked in on the owner


def _counting_calls(engine, monkeypatch):
    """Patch every client so each non-ping call is recorded by op."""
    calls: list[tuple[int, str]] = []
    for client in engine.coordinator._clients:
        original = client.call

        def call(payload, *args, _client=client, _call=original, **kw):
            if payload.get("op") != "ping":
                calls.append((_client.shard, payload.get("op")))
            return _call(payload, *args, **kw)

        monkeypatch.setattr(client, "call", call)
    return calls


def test_pruned_lookups_interleaved_with_loads(monkeypatch):
    engine = ShardedEngine.from_text(PROGRAM, 2, heartbeat_interval=0.0)
    engine.coordinator.start()
    single = Session(parse_program(PROGRAM))
    calls = _counting_calls(engine, monkeypatch)

    def lookup(text):
        query = parse_query(text)
        owner = engine.coordinator.plan.seed_shards(query)
        assert owner is not None and len(owner) == 1
        del calls[:]
        response = engine.session.query(query)
        assert response.ok, response.error_message
        assert calls == [(owner[0], "q_start")]
        assert answers_of(response) == answers_of(single.query(query))
        return response

    try:
        first = lookup("?- edge(n2, Y, C).")
        assert not first.warm and not first.resumed
        # Another form of the same compile key, on the same state.
        again = lookup("?- edge(n2, Z, D).")
        assert again.warm and not again.resumed
        for index, fact in enumerate(
            ["edge(n2, n9, 4).", "edge(n2, n8, 1)."]
        ):
            assert engine.add_facts(fact).ok
            single.add_facts(parse_facts(fact))
            loaded = lookup(f"?- edge(n2, Y{index}, C).")
            assert loaded.warm and loaded.resumed
            assert len(loaded.answers) == 3 + index
    finally:
        engine.coordinator.close(drain=False)


@pytest.mark.parametrize(
    "options",
    [{"budget": Budget(max_facts=3)}, {"eval_iterations": 2}],
    ids=["meter", "round-cap"],
)
def test_budget_truncated_solo_run_keeps_no_warm_state(options):
    # Under ``none`` an edge lookup still computes every reach fact:
    # the worker's meter trips, or the round cap cuts the run.
    engine = ShardedEngine.from_text(
        PROGRAM, 2, strategy="none", heartbeat_interval=0.0, **options
    )
    engine.coordinator.start()
    try:
        for variable in ("Y", "Z"):
            query = parse_query(f"?- edge(n1, {variable}, C).")
            assert engine.coordinator.plan.seed_shards(query)
            response = engine.session.query(query)
            assert response.ok
            assert response.completeness.startswith("truncated:")
            assert not response.warm and not response.resumed
    finally:
        engine.coordinator.close(drain=False)


def test_broadcast_cut_at_the_round_cap_keeps_no_warm_state():
    engine = ShardedEngine.from_text(
        PROGRAM, 2, eval_iterations=2, heartbeat_interval=0.0
    )
    engine.coordinator.start()
    try:
        for variable in ("Y", "Z"):
            response = engine.session.query(
                parse_query(f"?- reach(n1, {variable}).")
            )
            assert response.completeness == "truncated:iterations"
            assert not response.warm
    finally:
        engine.coordinator.close(drain=False)


def test_solo_check_in_makes_the_next_broadcast_cold():
    engine = ShardedEngine.from_text(PROGRAM, 2, heartbeat_interval=0.0)
    engine.coordinator.start()
    plan = engine.coordinator.plan
    try:
        broadcast = parse_query("?- edge(X, n3, C).")
        assert plan.seed_shards(broadcast) is None
        assert not engine.session.query(broadcast).warm
        # The owner's solo run resumes the broadcast's state, then
        # checks it in as its own: the two shards now disagree.
        solo = parse_query("?- edge(n1, Y, C).")
        assert plan.seed_shards(solo) is not None
        assert engine.session.query(solo).warm
        # Same compile key, new text (the answer cache must miss).
        again = engine.session.query(parse_query("?- edge(Z, n3, D)."))
        assert again.answer_strings == ["D = 1, Z = n2"]
        assert not again.warm
        # ... which left every shard on one origin again.
        assert engine.session.query(parse_query("?- edge(W, n3, C).")).warm
    finally:
        engine.coordinator.close(drain=False)
