"""Crash-safe snapshots: checkpoint the EDB, log the epochs, replay.

A serving process accumulates state the program text does not capture:
every ``add_facts`` epoch since startup.  Losing the process loses
those epochs -- unless they are durable.  This module implements the
classic checkpoint + write-ahead-log pair:

* **Snapshots** dump the facts the session's loads added by a fact
  epoch (the program text supplies the rest), one sealed line
  (:func:`repro.codec.seal`) written to
  ``snapshot-<epoch>.json`` via a temporary file and
  :func:`os.replace`, so a crash mid-write can never leave a torn
  snapshot under the final name.  A small trailing window of old
  snapshots is retained as fallback against a corrupt latest file.
* The **fact log** (``facts.log``) is an append-only file with one
  sealed line per *acknowledged* fact load, so an acked load survives
  a crash even between snapshots.  After each snapshot the log is
  compacted down to the entries the snapshot does not cover.
* **Recovery** loads the newest *verifiable* snapshot whose program
  hash matches the running program, restores it into a fresh session,
  and replays the log entries with epochs past the snapshot point --
  in order, through :meth:`Session.add_facts`, so replayed state is
  *exactly* the state a warm database would have been resumed against.

**Integrity.**  Every WAL record and snapshot is sealed -- the CRC32
of its bytes as written, covering all of them -- so recovery
distinguishes three kinds of damage:

* a *torn tail* -- a truncated final log line, the expected residue of
  a crash mid-append.  The partial line was never acknowledged (the
  fsync that precedes the ack did not complete), so dropping it loses
  nothing acked.  Recovery rewrites the log to the valid prefix so a
  later append cannot concatenate onto the stump;
* *mid-log corruption* -- a record before the tail that fails to
  decode or fails its CRC.  Everything from the damaged record on is
  untrusted; recovery quarantines the whole log file into a
  ``corrupt/`` sidecar (evidence for the operator), rewrites the valid
  prefix in place, and reports :class:`~repro.errors.CorruptionError`'s
  ``REPRO_CORRUPT`` code in the recovery summary;
* a *corrupt snapshot* -- a file that fails :func:`repro.codec.unseal`,
  wherever the damage sits (its ``schema`` value is inside the seal).
  The file is quarantined and recovery falls back to the next-newest
  verifiable snapshot (that is what the retention window is for).

A record or snapshot that does not unseal is damage, never an older
format; only an *intact* file can be of an unknown schema, and that
is a hard error.

**The durability policy** lives here once, for the single-process
supervisor and every shard worker alike -- they decide only *when* to
checkpoint:

* :meth:`Snapshotter.load` acknowledges a fact load only after its WAL
  record is fsynced.  If the append fails the load is answered with
  ``REPRO_SNAPSHOT`` (its facts stay in the live session -- sound,
  like an unacked in-flight load at crash time) and the snapshotter
  flips *degraded*;
* degraded is one-way for the process lifetime (a disk that failed
  once cannot be trusted to have kept everything since) and
  read-only: later loads are refused before they touch the session --
  an un-logged load would be acked state the WAL never saw -- while
  queries keep being served (:attr:`Snapshotter.durability`,
  :attr:`Snapshotter.degraded_reason`);
* :meth:`Snapshotter.checkpoint` snapshots the session and compacts
  the log.  A failed checkpoint degrades too but un-acks nothing:
  every acked epoch is already in the fsynced WAL;
* one mutex serialises appends, checkpoints and recovery, so a
  compaction can never replace the log with a read that misses a
  record appended meanwhile: with any number of concurrent loaders,
  an acknowledged load survives a crash.

**File discipline.**  The module-level helpers (:func:`atomic_write`,
:func:`quarantine`, :func:`numbered_files`, :func:`prune_numbered`,
:func:`newest_verifiable`) are the only code that writes, lists,
quarantines or walks durable files; the cluster manifests of
:mod:`repro.shard.snapshot` go through them too.

**Fault sites.**  Every write and fsync announces itself through the
observability seam first (``fs.write.<site>`` / ``fs.fsync.<site>``
counters, sites ``wal``/``snapshot``/``compact``/``manifest``/``dir``),
so the governor's fault injector (``write:wal``, ``fsync:snapshot``,
...) can turn any of them into a deterministic ``OSError(EIO)`` -- the
seam degraded mode is tested through.

**Older snapshots.**  A snapshot written while ``auto`` sessions
measured strategies per form carries those measurements under a
``planner`` key.  Recovery restores its facts as usual and counts the
records in ``planner_records_discarded``; nothing else about them is
read, since a session under ``auto`` runs the planner's pick.

Facts are written in :mod:`repro.codec`'s encoding, so a recovered
constraint fact is bit-identical to the original -- the paper's
finitely-represented infinite relations survive the crash too.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from typing import Iterable, Iterator

from repro.codec import SCHEMA, decode_fact, encode_fact, seal, unseal
from repro.engine.facts import Fact
from repro.errors import CorruptionError, SnapshotError
from repro.obs.recorder import count as obs_count, span as obs_span
from repro.service.session import Response, Session

LOG_NAME = "facts.log"
#: Sidecar directory quarantined (damaged) files are moved into.
CORRUPT_DIR = "corrupt"
SNAPSHOT_PATTERN = re.compile(r"^snapshot-(\d{8})\.json$")

#: Old snapshots kept as fallback behind the newest one.
RETAIN_SNAPSHOTS = 3


def program_sha(text: str) -> str:
    """The identity of a program text, for snapshot compatibility."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- file discipline (shared with repro.shard.snapshot) ----------------


def _fsync_dir(directory: str) -> None:
    """Make a rename/creation in ``directory`` durable."""
    obs_count("fs.fsync.dir")
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, text: str, site: str) -> None:
    """Durably put ``text`` under ``path``; readers never see it torn.

    The text lands under a temporary name first, is fsynced, and is
    moved into place with :func:`os.replace`, then the directory is
    fsynced.  ``site`` names the fault-site class the write and fsync
    announce themselves under.
    """
    tmp_path = path + ".tmp"
    obs_count(f"fs.write.{site}")
    with open(tmp_path, "w") as handle:
        handle.write(text)
        handle.flush()
        obs_count(f"fs.fsync.{site}")
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_dir(os.path.dirname(path))


def quarantine(directory: str, path: str) -> str:
    """Move a damaged file into ``directory``'s ``corrupt/`` sidecar.

    The file is preserved (evidence beats deletion when diagnosing a
    bad disk or a torn write) under its own name, suffixed with a
    sequence number on collision.  Both directories are fsynced so the
    quarantine itself survives a crash.  Returns the new path.
    """
    corrupt_dir = os.path.join(directory, CORRUPT_DIR)
    os.makedirs(corrupt_dir, exist_ok=True)
    base = os.path.basename(path)
    target = os.path.join(corrupt_dir, base)
    sequence = 0
    while os.path.exists(target):
        sequence += 1
        target = os.path.join(corrupt_dir, f"{base}.{sequence}")
    os.replace(path, target)
    _fsync_dir(corrupt_dir)
    _fsync_dir(directory)
    obs_count("serve.quarantined")
    return target


def numbered_files(
    directory: str, pattern: re.Pattern
) -> list[tuple[int, str]]:
    """``(number, name)`` of every file matching ``pattern``, oldest
    first; ``pattern``'s first group is the number."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        match = pattern.match(name)
        if match:
            found.append((int(match.group(1)), name))
    return sorted(found)


def prune_numbered(directory: str, pattern: re.Pattern) -> None:
    """Drop numbered files beyond the retention window."""
    for _, name in numbered_files(directory, pattern)[:-RETAIN_SNAPSHOTS]:
        try:
            os.remove(os.path.join(directory, name))
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def newest_verifiable(
    directory: str,
    pattern: re.Pattern,
    program_id: str,
    quarantined: list[str],
    kind: str | None = None,
) -> tuple[int, str, dict] | None:
    """The newest intact ``(number, name, payload)``, or ``None``.

    Walks backward through the retained files.  One that does not
    :func:`~repro.codec.unseal` to a JSON object is damaged: it is
    quarantined (its new path appended to ``quarantined``) and the
    walk falls back to the next-newest.  An intact file of an unknown
    schema/``kind``, or taken for a *different program*, is an error
    and not a fallback candidate -- restoring another program's (or
    format's) state would silently corrupt the session.
    """
    for number, name in reversed(numbered_files(directory, pattern)):
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                payload = unseal(handle.read().decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except OSError:
            obs_count("serve.snapshot_skipped")
            continue
        except ValueError:
            obs_count("serve.snapshot_skipped")
            quarantined.append(quarantine(directory, path))
            continue
        if payload.get("schema") != SCHEMA or payload.get("kind") != kind:
            raise SnapshotError(
                f"{name}: unknown schema {payload.get('schema')!r} "
                f"(kind {payload.get('kind')!r})"
            )
        if payload.get("program_sha") != program_id:
            raise SnapshotError(
                f"{name}: taken for a different program (sha "
                f"{payload.get('program_sha')}, running {program_id})"
            )
        return number, name, payload
    return None


# -- the snapshot directory -------------------------------------------


class Snapshotter:
    """One snapshot directory: the durability policy and its files."""

    def __init__(self, directory: str, program_id: str) -> None:
        self.directory = directory
        self.program_id = program_id
        os.makedirs(directory, exist_ok=True)
        self._log_path = os.path.join(directory, LOG_NAME)
        #: Serialises every append, checkpoint and recovery.
        self._mutex = threading.Lock()
        #: Why durability was lost (one-way); ``None`` while healthy.
        self.degraded_reason: str | None = None
        #: Paths (in ``corrupt/``) damaged files were moved to, in
        #: quarantine order, for reports and operator forensics.
        self.quarantined: list[str] = []

    # -- policy -------------------------------------------------------

    @property
    def durability(self) -> str:
        """``ok``, or ``degraded`` once a write has failed."""
        return "ok" if self.degraded_reason is None else "degraded"

    def _degrade(self, reason: str) -> None:
        with self._mutex:
            if self.degraded_reason is not None:
                return
            self.degraded_reason = reason
        obs_count("serve.degraded")

    def load(self, session, facts) -> Response:
        """``session.add_facts(facts)``, acknowledged only once durable.

        ``session`` is a :class:`Session` or an engine fronting one.
        Refused untouched when degraded; a failed append degrades and
        un-acks the load (module docstring).  Never retry a load: the
        epoch may have committed before a fault fired.
        """
        reason = self.degraded_reason
        if reason is not None:
            obs_count("serve.readonly_refusals")
            return Response.failure(
                SnapshotError.code,
                f"fact load refused: durability lost ({reason}); "
                "serving read-only"
            )
        response = session.add_facts(facts)
        if response.ok and response.loaded:
            try:
                self.append_log(response.epoch, response.loaded)
            except OSError as error:
                self._degrade(f"WAL append failed: {error}")
                return Response.failure(
                    SnapshotError.code,
                    f"fact load not durable (WAL append failed: "
                    f"{error}); now read-only"
                )
        return response

    def checkpoint(self, session: Session) -> int | None:
        """Snapshot ``session``'s loaded facts.

        Returns the epoch checkpointed, or ``None`` when durability is
        degraded -- already, or by this attempt failing.
        """
        if self.degraded_reason is not None:
            return None
        epoch, facts = session.export_state()
        try:
            self.snapshot(epoch, facts)
        except OSError as error:
            self._degrade(f"checkpoint failed: {error}")
            return None
        return epoch

    # -- writing ------------------------------------------------------

    def snapshot(self, epoch: int, facts: Iterable[Fact]) -> str:
        """Write one atomic checkpoint; returns its path.

        The fact log is then compacted down to the epochs this
        snapshot does not cover, and snapshots beyond the retention
        window are dropped.
        """
        text = seal({
            "schema": SCHEMA,
            "program_sha": self.program_id,
            "epoch": epoch,
            "facts": [encode_fact(fact) for fact in facts],
        })
        path = os.path.join(self.directory, f"snapshot-{epoch:08d}.json")
        with self._mutex, obs_span("serve.snapshot", epoch=epoch):
            atomic_write(path, text, "snapshot")
            self._rewrite_log([
                entry
                for entry in self._read_log()
                if entry["epoch"] > epoch
            ])
            prune_numbered(self.directory, SNAPSHOT_PATTERN)
        obs_count("serve.snapshots")
        return path

    def append_log(self, epoch: int, facts: Iterable[Fact]) -> None:
        """Durably record one acknowledged fact-load epoch."""
        line = seal({
            "epoch": epoch,
            "facts": [encode_fact(fact) for fact in facts],
        })
        with self._mutex:
            obs_count("fs.write.wal")
            with open(self._log_path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                obs_count("fs.fsync.wal")
                os.fsync(handle.fileno())
        obs_count("serve.log_appends")

    def _rewrite_log(self, entries: list[dict]) -> None:
        """Atomically replace the log with ``entries`` (mutex held)."""
        atomic_write(
            self._log_path,
            "".join(seal(entry) + "\n" for entry in entries),
            "compact",
        )

    # -- reading ------------------------------------------------------

    def _scan_log(self) -> tuple[list[dict], dict | None]:
        """The valid log prefix plus a damage report.

        Returns ``(entries, damage)``: every record up to (not
        including) the first damaged line, and ``None`` when the log
        is clean, or a dict describing the damage -- 1-based ``line``,
        the decode ``reason``, whether it is a tolerable ``torn_tail``
        (damage on the final line only: the expected residue of a
        crash mid-append, never acknowledged), and how many records
        (``records_dropped``, the damaged line and everything after
        it) the valid-prefix policy discards.  A missing or empty log
        is clean.
        """
        if not os.path.exists(self._log_path):
            return [], None
        # Binary read + replacing decode: every legitimately-written
        # byte is ASCII (repro.codec.dumps), so an undecodable byte is
        # disk damage -- it must land in the per-line damage path
        # below, not escape as a UnicodeDecodeError.
        with open(self._log_path, "rb") as handle:
            raw = handle.read()
        lines = raw.decode("utf-8", errors="replace").splitlines()
        entries: list[dict] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = unseal(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                entries.append(record)
            except ValueError as error:
                dropped = sum(
                    1 for later in lines[index:] if later.strip()
                )
                return entries, {
                    "line": index + 1,
                    "reason": str(error),
                    "torn_tail": index == len(lines) - 1,
                    "records_dropped": dropped,
                }
        return entries, None

    def _read_log(self) -> Iterator[dict]:
        """The fact-log entries, tolerating a torn final line.

        A crash mid-append can leave a truncated last line; everything
        before it was fsynced whole, so a decode failure on the *last*
        line is expected damage while one mid-file is real corruption
        and raises :class:`~repro.errors.CorruptionError` (use
        :meth:`recover` for the quarantine-and-fall-back path).
        """
        entries, damage = self._scan_log()
        yield from entries
        if damage is None:
            return
        if damage["torn_tail"]:
            obs_count("serve.log_torn_tail")
            return
        raise CorruptionError(
            f"corrupt fact log at line {damage['line']}: "
            f"{damage['reason']}"
        )

    def latest(self) -> dict | None:
        """The newest verifiable, compatible snapshot payload (or None);
        damaged ones are quarantined on the way (:func:`newest_verifiable`).
        """
        found = newest_verifiable(
            self.directory,
            SNAPSHOT_PATTERN,
            self.program_id,
            self.quarantined,
        )
        if found is None:
            return None
        epoch, name, payload = found
        if payload.get("epoch") != epoch:
            raise SnapshotError(
                f"{name}: epoch mismatch between file name and "
                f"payload ({payload.get('epoch')})"
            )
        return payload

    def recover(self, session: Session) -> dict:
        """Restore the latest verifiable snapshot + log tail.

        Returns a summary dict: ``snapshot_epoch``, ``facts_restored``
        and ``replayed`` (as before), the session's resulting
        ``epoch``, ``planner_records_discarded`` (the records an older
        snapshot carries, never restored),
        ``log_records_dropped`` by the valid-prefix policy (a torn
        tail counts -- it was never acked), the ``quarantined`` paths
        this recovery produced, and ``corrupt`` -- True (with ``code``
        = ``REPRO_CORRUPT``) when any damage *beyond* a torn tail was
        found.  Safe on an empty or missing directory: recovery of
        nothing is a no-op.  A missing or empty ``facts.log`` next to
        a valid snapshot is normal (a checkpoint right before the
        crash compacts the log to nothing).
        """
        with self._mutex, obs_span("serve.recover"):
            already_quarantined = len(self.quarantined)
            payload = self.latest()
            # Any quarantine latest() performed was a damaged
            # snapshot -- corruption by definition.
            corrupt = len(self.quarantined) > already_quarantined
            snapshot_epoch = 0
            restored = discarded = 0
            if payload is not None:
                facts = [
                    decode_fact(entry) for entry in payload["facts"]
                ]
                snapshot_epoch = payload["epoch"]
                restored = session.restore_state(facts, snapshot_epoch)
                discarded = len(payload.get("planner") or ())
            entries, damage = self._scan_log()
            dropped = 0
            if damage is not None:
                dropped = damage["records_dropped"]
                if damage["torn_tail"]:
                    obs_count("serve.log_torn_tail")
                else:
                    corrupt = True
                    obs_count("serve.log_corrupt")
                    self.quarantined.append(
                        quarantine(self.directory, self._log_path)
                    )
                # Rewrite the valid prefix either way: a torn stump
                # left in place would be concatenated onto by the
                # next append, turning expected tail damage into
                # mid-log corruption one crash later.
                self._rewrite_log(entries)
            replayed = 0
            for entry in entries:
                if entry["epoch"] <= snapshot_epoch:
                    continue
                facts = [
                    decode_fact(item) for item in entry["facts"]
                ]
                response = session.add_facts(facts)
                if not response.ok:
                    raise SnapshotError(
                        f"fact-log replay failed at epoch "
                        f"{entry['epoch']}: {response.error_message}"
                    )
                replayed += 1
            quarantined = self.quarantined[already_quarantined:]
        obs_count("serve.recoveries")
        report = {
            "snapshot_epoch": snapshot_epoch,
            "facts_restored": restored,
            "replayed": replayed,
            "epoch": session.epoch,
            "planner_records_discarded": discarded,
            "log_records_dropped": dropped,
            "quarantined": quarantined,
            "corrupt": corrupt,
        }
        if report["corrupt"]:
            report["code"] = CorruptionError.code
        return report
