"""Snapshots and the fact log: codec fidelity, atomicity, recovery.

The crash-safety claim rests on three properties proved here: facts
round-trip :mod:`repro.codec` bit-identically (symbols, exact
fractions, PENDING positions, constraint conjunctions), snapshots
appear atomically under their final name, and recovery = newest
snapshot + ordered log replay reproduces exactly the pre-crash session
state.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from fractions import Fraction

import pytest

from repro.codec import SCHEMA, decode_fact, encode_fact, seal
from repro.constraints.atom import Atom
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr
from repro.engine.facts import Fact, make_fact
from repro.errors import SnapshotError
from repro.serve.snapshot import Snapshotter, program_sha
from repro.service.engine import Engine

PROGRAM = """
reach(X, Y, C) :- edge(X, Y, C).
reach(X, Z, C) :- reach(X, Y, C1), edge(Y, Z, C2), C = C1 + C2,
    C <= 100.
edge(a, b, 3).
edge(b, c, 4).
"""


def _constraint_fact() -> Fact:
    # p(a, $2, 7/3) with 1 <= $2 < 10: symbol, pending, and an exact
    # non-integer fraction in one fact.
    fact = make_fact(
        "p",
        ["a", None, Fraction(7, 3)],
        Conjunction([
            Atom.le(LinearExpr.const(1), LinearExpr.var("$2")),
            Atom.lt(LinearExpr.var("$2"), LinearExpr.const(10)),
        ]),
    )
    assert fact is not None
    return fact


class TestFactCodec:
    def test_ground_fact_round_trips(self):
        fact = Fact.ground("edge", ["a", "b", 3])
        assert decode_fact(encode_fact(fact)) == fact

    def test_constraint_fact_round_trips_exactly(self):
        fact = _constraint_fact()
        rebuilt = decode_fact(encode_fact(fact))
        assert rebuilt == fact
        assert rebuilt.constraint == fact.constraint

    def test_codec_is_json_serializable(self):
        payload = json.dumps(encode_fact(_constraint_fact()))
        assert decode_fact(json.loads(payload)) == _constraint_fact()

    def test_malformed_payload_is_a_snapshot_error(self):
        for entry in (
            ["p", [["wat", 1]], []],  # a tagged argument: the v2 way
            ["p", [[1, 0]], []],  # zero denominator
            ["p", [True], []],
            ["p", [1.5], []],
            ["p", [{"sym": "a"}], []],
            ["p", [None], [["<>", 0, [["$1", 1]]]]],  # unknown op
            ["p", [None], [["<", 0, [[1, 1]]]]],  # not a variable name
            ["p", [None], [["<", 0]]],
            ["p", "ab", []],
            [7, [], []],
            ["p"],
            "pxy",
            None,
            {"pred": "p", "args": [["sym", "a"]], "constraint": []},
        ):
            with pytest.raises(SnapshotError):
                decode_fact(entry)

    def test_an_int_argument_is_a_number_never_pending(self):
        # A plain int reaching Fact(...) directly used to fall through
        # the argument dispatch and be written as PENDING.
        fact = Fact("p", (3,), Conjunction.true())
        assert encode_fact(fact) == ["p", [3], []]
        rebuilt = decode_fact(encode_fact(fact))
        assert rebuilt == Fact.ground("p", [3])
        assert rebuilt.is_ground()

    @pytest.mark.parametrize("value", ["a", 1.5, True, object()])
    def test_an_unknown_argument_type_is_refused(self, value):
        with pytest.raises(TypeError):
            encode_fact(Fact("p", (value,), Conjunction.true()))


class TestSnapshotter:
    def test_snapshot_is_atomic_and_readable(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        facts = [Fact.ground("edge", ["a", "b", 3])]
        path = snap.snapshot(2, facts)
        assert os.path.basename(path) == "snapshot-00000002.json"
        assert not os.path.exists(path + ".tmp")
        payload = snap.latest()
        assert payload["epoch"] == 2
        assert [decode_fact(f) for f in payload["facts"]] == facts

    def test_old_snapshots_are_pruned(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        for epoch in range(1, 7):
            snap.snapshot(epoch, [])
        names = sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("snapshot-")
        )
        assert names == [
            "snapshot-00000004.json",
            "snapshot-00000005.json",
            "snapshot-00000006.json",
        ]

    def test_latest_skips_a_corrupt_newest_snapshot(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.snapshot(1, [Fact.ground("e", ["a"])])
        snap.snapshot(2, [])
        with open(tmp_path / "snapshot-00000002.json", "w") as fh:
            fh.write("{ torn")
        assert snap.latest()["epoch"] == 1

    def test_foreign_program_snapshot_is_refused(self, tmp_path):
        Snapshotter(str(tmp_path), "prog1").snapshot(1, [])
        other = Snapshotter(str(tmp_path), "prog2")
        with pytest.raises(SnapshotError, match="different program"):
            other.latest()

    def test_log_tolerates_a_torn_tail_only(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.append_log(1, [Fact.ground("e", ["a"])])
        with open(tmp_path / "facts.log", "a") as fh:
            fh.write('{"epoch": 2, "fac')  # crash mid-append
        entries = list(snap._read_log())
        assert [entry["epoch"] for entry in entries] == [1]
        # ... but corruption mid-file is a hard error.
        with open(tmp_path / "facts.log", "w") as fh:
            fh.write('{ torn\n{"epoch": 2, "facts": []}\n')
        with pytest.raises(SnapshotError, match="line 1"):
            list(snap._read_log())

    def test_snapshot_compacts_covered_log_entries(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.append_log(1, [Fact.ground("e", ["a"])])
        snap.append_log(2, [Fact.ground("e", ["b"])])
        snap.snapshot(1, [Fact.ground("e", ["a"])])
        assert [e["epoch"] for e in snap._read_log()] == [2]


class TestIntegrity:
    """CRC framing, quarantine, and the valid-prefix fallback."""

    def test_log_records_carry_a_verified_checksum(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.append_log(1, [Fact.ground("e", ["a"])])
        with open(tmp_path / "facts.log", "rb") as fh:
            stored, body = fh.read().rstrip(b"\n").split(b" ", 1)
        # The checksum is over the payload bytes exactly as written.
        assert len(stored) == 8
        assert int(stored, 16) == zlib.crc32(body)
        assert json.loads(body)["epoch"] == 1
        # The body decodes back through the normal reader.
        assert [e["epoch"] for e in snap._read_log()] == [1]

    def test_a_bit_flip_in_a_record_fails_its_checksum(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.append_log(1, [Fact.ground("e", ["a"])])
        snap.append_log(2, [Fact.ground("e", ["b"])])
        with open(tmp_path / "facts.log") as fh:
            first, second = fh.read().splitlines()
        # Flip a payload character in the *first* record: the line is
        # still valid JSON, so only the checksum can catch it.
        damaged = first.replace('"a"', '"z"')
        assert damaged != first
        with open(tmp_path / "facts.log", "w") as fh:
            fh.write(damaged + "\n" + second + "\n")
        with pytest.raises(SnapshotError, match="crc mismatch"):
            list(snap._read_log())

    def test_a_crc_less_log_line_is_damage_not_a_format(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        bare = json.dumps({
            "epoch": 2,
            "facts": [encode_fact(Fact.ground("edge", ["x", "y", 1]))],
        })

        def recover_with(lines):
            with open(tmp_path / "facts.log", "w") as fh:
                fh.write("\n".join(lines) + "\n")
            engine = Engine.from_text(PROGRAM)
            return Snapshotter(str(tmp_path), sha).recover(
                engine.session
            )

        good = seal({
            "epoch": 1,
            "facts": [encode_fact(Fact.ground("edge", ["c", "d", 5]))],
        })
        # Last line: a torn tail -- dropped, not corruption.
        summary = recover_with([good, bare])
        assert summary["corrupt"] is False
        assert summary["replayed"] == 1
        assert summary["log_records_dropped"] == 1
        assert summary["quarantined"] == []
        # Mid-log: corruption -- the log is quarantined and only the
        # prefix before the un-checksummed record is trusted.
        later = seal({
            "epoch": 3,
            "facts": [encode_fact(Fact.ground("edge", ["d", "e", 6]))],
        })
        summary = recover_with([good, bare, later])
        assert summary["corrupt"] is True
        assert summary["replayed"] == 1
        assert summary["log_records_dropped"] == 2
        assert len(summary["quarantined"]) == 1

    def test_a_crc_less_snapshot_is_quarantined(self, tmp_path):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.snapshot(1, [Fact.ground("e", ["a"])])
        with open(tmp_path / "snapshot-00000002.json", "w") as fh:
            json.dump({
                "schema": "repro-snap/v1", "program_sha": "prog1",
                "epoch": 2, "facts": [],
            }, fh)
        assert snap.latest()["epoch"] == 1
        assert [os.path.basename(p) for p in snap.quarantined] == [
            "snapshot-00000002.json"
        ]

    def test_recover_quarantines_a_corrupt_mid_log_record(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        for spec in ("edge(c, d, 5).", "edge(d, e, 6).",
                     "edge(e, f, 7)."):
            response = first.add_facts(spec)
            snap.append_log(response.epoch, response.loaded)
        with open(tmp_path / "facts.log") as fh:
            lines = fh.read().splitlines()
        # Corrupt the middle record: epoch 1 is the valid prefix,
        # epochs 2-3 are untrusted and must be dropped.
        lines[1] = lines[1][:20] + "X" + lines[1][21:]
        with open(tmp_path / "facts.log", "w") as fh:
            fh.write("\n".join(lines) + "\n")

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["corrupt"] is True
        assert summary["code"] == "REPRO_CORRUPT"
        assert summary["replayed"] == 1
        assert summary["log_records_dropped"] == 2
        assert summary["epoch"] == 1
        [quarantined] = summary["quarantined"]
        assert os.path.exists(quarantined)
        assert os.path.dirname(quarantined).endswith("corrupt")
        # The log was rewritten to the valid prefix: a second
        # recovery is clean and reproduces the same state.
        again = Engine.from_text(PROGRAM)
        second = Snapshotter(str(tmp_path), sha).recover(
            again.session
        )
        assert second["corrupt"] is False
        assert second["replayed"] == 1

    def test_non_utf8_bytes_mid_log_are_corruption_not_a_crash(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        for spec in ("edge(c, d, 5).", "edge(d, e, 6).",
                     "edge(e, f, 7)."):
            response = first.add_facts(spec)
            snap.append_log(response.epoch, response.loaded)
        # A disk can hand back arbitrary bytes, not just mangled
        # text: an undecodable byte mid-log must take the quarantine
        # path, never escape as a UnicodeDecodeError.
        with open(tmp_path / "facts.log", "rb") as fh:
            raw = fh.read().splitlines()
        raw[1] = raw[1][:10] + b"\x80\xff" + raw[1][12:]
        with open(tmp_path / "facts.log", "wb") as fh:
            fh.write(b"\n".join(raw) + b"\n")

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["corrupt"] is True
        assert summary["replayed"] == 1
        assert len(summary["quarantined"]) == 1

    def test_recover_quarantines_a_crc_mismatched_snapshot(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        response = first.add_facts("edge(c, d, 5).")
        epoch, facts = first.session.export_state()
        snap.snapshot(epoch, facts)
        first.add_facts("edge(d, e, 6).")
        epoch, facts = first.session.export_state()
        path = snap.snapshot(epoch, facts)
        # Flip a fact inside the newest snapshot; it stays valid JSON
        # with a valid schema, so only the CRC can reject it.
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace('"d"', '"z"', 1))

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["corrupt"] is True
        assert summary["snapshot_epoch"] == 1  # fell back
        assert len(summary["quarantined"]) == 1
        answers = recovered.query("?- edge(X, Y, C).").answer_strings
        assert any("c" in answer for answer in answers)

    @pytest.mark.parametrize("where", ["first byte", "crc", "schema"])
    def test_a_flip_anywhere_in_a_snapshot_falls_back(
        self, tmp_path, where
    ):
        # The seal covers every byte, the schema value included: header
        # damage is damage (quarantine + fallback), not a future format.
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        for spec in ("edge(c, d, 5).", "edge(d, e, 6)."):
            first.add_facts(spec)
            path = snap.snapshot(*first.session.export_state())
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        offset = {
            "first byte": 0,
            "crc": 5,
            "schema": data.index(SCHEMA.encode()) + len(SCHEMA) - 1,
        }[where]
        data[offset] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(data))

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["corrupt"] is True
        assert summary["code"] == "REPRO_CORRUPT"
        assert summary["snapshot_epoch"] == 1  # fell back
        assert [os.path.basename(p) for p in summary["quarantined"]] == [
            "snapshot-00000002.json"
        ]

    def test_an_intact_snapshot_of_an_unknown_schema_is_refused(
        self, tmp_path
    ):
        snap = Snapshotter(str(tmp_path), "prog1")
        snap.snapshot(1, [])
        with open(tmp_path / "snapshot-00000002.json", "w") as fh:
            fh.write(seal({
                "schema": "repro-snap/v9", "program_sha": "prog1",
                "epoch": 2, "facts": [], "planner": [],
            }))
        with pytest.raises(SnapshotError, match="unknown schema"):
            snap.latest()
        assert snap.quarantined == []

    def test_torn_tail_is_rewritten_away_not_flagged_corrupt(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        response = first.add_facts("edge(c, d, 5).")
        snap.append_log(response.epoch, response.loaded)
        with open(tmp_path / "facts.log", "a") as fh:
            fh.write('0badc0de {"epoch":2,"fa')  # crash mid-append

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["corrupt"] is False
        assert summary["replayed"] == 1
        assert summary["log_records_dropped"] == 1
        assert summary["quarantined"] == []
        # The stump is gone: appending now cannot concatenate onto it
        # (the latent mid-log-corruption-one-crash-later bug).
        snap2 = Snapshotter(str(tmp_path), sha)
        snap2.append_log(2, [Fact.ground("edge", ["x", "y", 1])])
        assert [e["epoch"] for e in snap2._read_log()] == [1, 2]

    def test_recover_tolerates_missing_log_beside_snapshot(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        first.add_facts("edge(c, d, 5).")
        epoch, facts = first.session.export_state()
        snap.snapshot(epoch, facts)
        os.remove(tmp_path / "facts.log")

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["snapshot_epoch"] == 1
        assert summary["replayed"] == 0
        assert summary["corrupt"] is False


class TestRecovery:
    def test_recover_into_empty_dir_is_a_noop(self, tmp_path):
        engine = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), program_sha(PROGRAM))
        summary = snap.recover(engine.session)
        assert summary == {
            "snapshot_epoch": 0,
            "facts_restored": 0,
            "replayed": 0,
            "epoch": 0,
            "planner_records_discarded": 0,
            "log_records_dropped": 0,
            "quarantined": [],
            "corrupt": False,
        }

    def test_snapshot_plus_log_replay_reproduces_state(self, tmp_path):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        # Epoch 1 makes it into the snapshot; epochs 2-3 only into
        # the log -- recovery must replay exactly those.
        for spec in ("edge(c, d, 5).", "edge(d, e, 6).",
                     "edge(e, f, 7)."):
            response = first.add_facts(spec)
            assert response.ok and response.loaded
            snap.append_log(response.epoch, response.loaded)
            if response.epoch == 1:
                epoch, facts = first.session.export_state()
                snap.snapshot(epoch, facts)
        expected = first.query("?- reach(a, X, C).").answer_strings

        recovered = Engine.from_text(PROGRAM)
        summary = Snapshotter(str(tmp_path), sha).recover(
            recovered.session
        )
        assert summary["snapshot_epoch"] == 1
        assert summary["replayed"] == 2
        assert summary["epoch"] == 3
        answers = recovered.query("?- reach(a, X, C).").answer_strings
        assert sorted(answers) == sorted(expected)

    def test_replaying_a_full_batch_after_recovery_dedups(
        self, tmp_path
    ):
        sha = program_sha(PROGRAM)
        first = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        response = first.add_facts("edge(c, d, 5).")
        snap.append_log(response.epoch, response.loaded)

        recovered = Engine.from_text(PROGRAM)
        Snapshotter(str(tmp_path), sha).recover(recovered.session)
        # Feeding the same fact again must be a no-op (idempotent
        # restart semantics for re-fed batch files).
        again = recovered.add_facts("edge(c, d, 5).")
        assert again.ok and again.added == 0
        assert recovered.session.epoch == 1


class TestConcurrentLoaders:
    """Compaction must not drop a record appended meanwhile."""

    def test_append_during_compaction_survives_recovery(
        self, tmp_path, monkeypatch
    ):
        sha = program_sha(PROGRAM)
        engine = Engine.from_text(PROGRAM)
        snap = Snapshotter(str(tmp_path), sha)
        first = engine.add_facts("edge(c, d, 5).")
        snap.append_log(first.epoch, first.loaded)
        epoch, facts = engine.session.export_state()

        compacting = threading.Event()
        appended = threading.Event()
        rewrite = snap._rewrite_log

        def stalled_rewrite(entries):
            # The checkpoint has read the log; hold it there (bounded)
            # while the other loader tries to get its record in.
            compacting.set()
            appended.wait(0.5)
            rewrite(entries)

        monkeypatch.setattr(snap, "_rewrite_log", stalled_rewrite)

        def loader():
            assert compacting.wait(10)
            second = engine.add_facts("edge(d, e, 6).")
            snap.append_log(second.epoch, second.loaded)
            appended.set()  # acknowledged

        thread = threading.Thread(target=loader)
        thread.start()
        snap.snapshot(epoch, facts)
        thread.join(10)
        assert not thread.is_alive() and appended.is_set()

        recovered = Engine.from_text(PROGRAM)
        Snapshotter(str(tmp_path), sha).recover(recovered.session)
        for acked in (["c", "d", 5], ["d", "e", 6]):
            assert Fact.ground("edge", acked) in recovered.session.edb
