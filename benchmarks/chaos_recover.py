"""Chaos-recovery harness: kill a serving process, damage its durable
state, restart it, and verify the recovery contract.

Each cycle runs ``repro serve`` as a real subprocess with a snapshot
directory, feeds it fact loads over stdin, and SIGKILLs it at a
randomized point -- optionally widened into a mid-append window with an
injected ``delay:fs.write.wal`` fault, so the kill lands between the
WAL write and the ack.  The cycle then optionally damages the durable
files the way real disks do (a bit flip at a random offset, a
truncation), restarts against the same directory, and checks:

* **no ghosts** -- every fact the restarted server holds was actually
  fed to the victim (at-most-once-ack allows an unacked in-flight fact
  to survive, never an invented one);
* **no silent acked-fact loss** -- a kill-only cycle must preserve
  every acknowledged fact; a corrupted cycle may lose acked facts only
  through the *reported* paths (``REPRO_CORRUPT`` + quarantine, or a
  torn tail whose drop count bounds the loss);
* **no silent replay of damage** -- whenever recovery reports
  ``REPRO_CORRUPT``, the damaged file must actually sit in the
  ``corrupt/`` sidecar, and corruption is never reported for a cycle
  that injected none;
* **oracle-exact answers** -- the restarted server's answers equal the
  conformance oracle's answers over exactly the surviving EDB.

The harness predicts what recovery *should* do by re-verifying the
damaged files with the codec's own ``unseal`` -- the prediction pins
down whether damage is a tolerable torn tail or reportable corruption,
and the subprocess run proves the end-to-end plumbing (quarantine,
fallback, report, replay) honors it.

With ``--sharded N`` each cycle instead runs ``repro serve --shards
N`` with tight op deadlines and heartbeats, disrupts one *shard
worker* mid-load -- SIGKILL, SIGSTOP, or an injected ``hang:load``
fault, so crashes, silent wedges, and in-op hangs are all exercised
-- and requires a liveness query at the batch tail to come back as
answers (detection, SIGKILL + respawn, WAL re-recovery, and the
supervisor's transient retry all on its path).  The cycle then kills
or drains the whole process and verifies that restart converges
every shard to a consistent cluster epoch with zero acked-fact loss.

Usage::

    python benchmarks/chaos_recover.py --cycles 50 [--seed N]
        [--artifacts DIR] [--sharded N]

Exits non-zero on any violation; failing cycles leave their snapshot
directory (and the quarantined evidence inside it) under the artifacts
directory, named after the cycle and the seed that reproduces it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.codec import unseal  # noqa: E402
from repro.conformance.oracle import oracle_answer_strings  # noqa: E402
from repro.lang.parser import parse_program, parse_query  # noqa: E402
from repro.serve.snapshot import LOG_NAME  # noqa: E402

PROGRAM = """
reach(X, Y) :- edge(X, Y, C).
reach(X, Z) :- reach(X, Y), edge(Y, Z, C).
edge(n0, n1, 0).
"""

#: The edge baked into the program text (always present).
BASE_EDGE = ("n0", "n1", "0")
#: Facts the victim is fed, one load (= one WAL record) each.
LOADABLE = [(f"n{i}", f"n{i + 1}", str(i)) for i in range(1, 10)]

EDGE_QUERY = "?- edge(X, Y, C)."
REACH_QUERY = "?- reach(n0, X)."

#: Damage modes a cycle draws from ("none" twice: half the cycles are
#: pure kill/recover, the acceptance path for zero acked-fact loss).
MODES = ("none", "none", "flip_wal", "truncate_wal", "flip_snapshot")


def fact_line(edge: tuple[str, str, str]) -> str:
    return f"edge({edge[0]}, {edge[1]}, {edge[2]})."


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _serve_argv(program_path: str, *flags: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", program_path, *flags
    ]


# -- answer canonicalization ------------------------------------------


def canonical_answer(binding: str) -> str:
    """A serve answer string in the oracle's canonical spelling.

    ``repro serve`` renders ``"C = 1, X = n1"`` (query variables in
    sorted name order); the oracle renders the same answer as
    ``"#1|n1"``.  Constraint answers (``constrained`` positions) never
    appear in this workload, so any unparseable binding is itself a
    wrong answer.
    """
    parts = []
    for piece in binding.split(", "):
        name, sep, value = piece.partition(" = ")
        if not sep:
            raise ValueError(f"unparseable answer binding {binding!r}")
        try:
            parts.append(f"#{Fraction(value)}")
        except ValueError:
            parts.append(value)
    return "|".join(parts)


def edges_from_answers(bindings: list[str]) -> set[tuple]:
    """Surviving ``edge(X, Y, C)`` tuples from the edge query answers."""
    edges = set()
    for binding in bindings:
        values = {}
        for piece in binding.split(", "):
            name, __, value = piece.partition(" = ")
            values[name] = value
        edges.add((values["X"], values["Y"], values["C"]))
    return edges


def oracle_edge_and_reach(edges: set[tuple]) -> tuple[set, set]:
    """The conformance oracle's answers over exactly ``edges``."""
    text = PROGRAM + "".join(
        fact_line(edge) + "\n"
        for edge in sorted(edges)
        if edge != BASE_EDGE
    )
    program = parse_program(text)
    return (
        set(oracle_answer_strings(program, parse_query(EDGE_QUERY))),
        set(oracle_answer_strings(program, parse_query(REACH_QUERY))),
    )


# -- damage injection and prediction ----------------------------------


def flip_byte(path: Path, rng: random.Random) -> bool:
    """Flip one random byte of ``path`` to a new value."""
    data = bytearray(path.read_bytes())
    if not data:
        return False
    index = rng.randrange(len(data))
    new = rng.randrange(256)
    while new == data[index]:
        new = rng.randrange(256)
    data[index] = new
    path.write_bytes(bytes(data))
    return True


def truncate(path: Path, rng: random.Random) -> bool:
    data = path.read_bytes()
    if len(data) < 2:
        return False
    path.write_bytes(data[: rng.randrange(1, len(data))])
    return True


def predict_wal_damage(path: Path) -> dict:
    """What recovery should find in the (possibly damaged) WAL.

    Re-runs the codec's own ``unseal`` over the file's lines:
    ``{"damaged": bool, "torn_tail": bool, "dropped": N}`` with the
    same valid-prefix semantics recovery applies.
    """
    if not path.exists():
        return {"damaged": False, "torn_tail": False, "dropped": 0}
    lines = [
        line
        for line in path.read_bytes()
        .decode("utf-8", errors="replace")
        .splitlines()
        if line.strip()
    ]
    for index, line in enumerate(lines):
        try:
            unseal(line)
        except ValueError:
            return {
                "damaged": True,
                "torn_tail": index == len(lines) - 1,
                "dropped": len(lines) - index,
            }
    return {"damaged": False, "torn_tail": False, "dropped": 0}


def snapshot_is_damaged(path: Path) -> bool:
    """Whether recovery should quarantine this snapshot file."""
    try:
        unseal(path.read_bytes().decode("utf-8"))
    except ValueError:
        return True
    return False


def newest_snapshot(snapdir: Path) -> Path | None:
    candidates = sorted(
        name
        for name in os.listdir(snapdir)
        if name.startswith("snapshot-") and name.endswith(".json")
    )
    return snapdir / candidates[-1] if candidates else None


# -- one chaos cycle --------------------------------------------------


def run_cycle(
    rng: random.Random,
    workdir: Path,
    mode: str | None = None,
    snapshot_every: int | None = None,
    kill_after: int | None = None,
) -> dict:
    """One kill/damage/recover cycle; returns a report with violations.

    ``mode``/``snapshot_every``/``kill_after`` override the random
    draws (for targeted tests); the default draws everything from
    ``rng`` so a (seed, cycle) pair replays the exact cycle.
    """
    mode = mode or rng.choice(MODES)
    snapshot_every = snapshot_every or rng.choice((1, 2, 3, 8))
    kill_after = (
        kill_after
        if kill_after is not None
        else rng.randint(0, len(LOADABLE))
    )
    delay = rng.choice((None, 0.02, 0.05))

    program_path = workdir / "prog.cql"
    program_path.write_text(PROGRAM)
    snapdir = workdir / "snap"
    report: dict = {
        "mode": mode,
        "snapshot_every": snapshot_every,
        "kill_after": kill_after,
        "wal_delay": delay,
        "violations": [],
    }

    def violation(text: str) -> None:
        report["violations"].append(text)

    # -- phase 1: serve, feed, SIGKILL --------------------------------
    # --queue-depth 1 forces the driver to flush each response before
    # reading the next request line: every ack is on our pipe the
    # moment it happens, so the acked set is exact at kill time.
    flags = [
        "--batch", "-",
        "--snapshot-dir", str(snapdir),
        "--snapshot-every", str(snapshot_every),
        "--workers", "2",
        "--queue-depth", "1",
    ]
    if delay is not None:
        flags += ["--faults", f"delay:fs.write.wal:{delay}"]
    victim = subprocess.Popen(
        _serve_argv(str(program_path), *flags),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_env(),
    )
    out_lines: list[str] = []

    def read_stdout() -> None:
        for line in victim.stdout:
            out_lines.append(line)

    reader = threading.Thread(target=read_stdout, daemon=True)
    reader.start()
    try:
        try:
            for edge in LOADABLE:
                victim.stdin.write(fact_line(edge) + "\n")
                victim.stdin.flush()
        except BrokenPipeError:
            violation("victim died before the batch was fed")
        deadline = time.monotonic() + 45
        while (
            len(out_lines) < kill_after
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        # A short extra beat so the kill can land *inside* the next
        # append (the injected WAL delay holds that window open).
        time.sleep(rng.uniform(0, 0.06))
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    reader.join(timeout=10)
    victim.stderr.read()

    acked: set[tuple] = set()
    for index, line in enumerate(out_lines):
        try:
            payload = json.loads(line)
        except ValueError:
            continue  # a response line torn by the kill: never acked
        if payload.get("type") == "facts":
            acked.add(LOADABLE[index])
    report["acked"] = len(acked)

    # -- phase 2: damage the durable files ----------------------------
    log_path = snapdir / LOG_NAME
    corrupted = False
    loss_bound: int | None = 0  # None = any loss is contract-legal
    expect_report = False
    if mode == "flip_wal" and log_path.exists():
        corrupted = flip_byte(log_path, rng)
    elif mode == "truncate_wal" and log_path.exists():
        corrupted = truncate(log_path, rng)
    elif mode == "flip_snapshot":
        target = newest_snapshot(snapdir) if snapdir.is_dir() else None
        if target is not None:
            corrupted = flip_byte(target, rng)
            if corrupted:
                expect_report = snapshot_is_damaged(target)
                loss_bound = None if expect_report else 0
    if mode in ("flip_wal", "truncate_wal") and corrupted:
        prediction = predict_wal_damage(log_path)
        report["wal_prediction"] = prediction
        if mode == "truncate_wal":
            # Records past the cut are gone from the file itself --
            # no recovery policy can restore them, and a cut on a
            # record boundary is indistinguishable from a log that
            # never grew.  Silent loss past the cut is the documented
            # limit of torn-tail detection.
            loss_bound = None
        elif prediction["torn_tail"]:
            # Indistinguishable from a crash mid-append: dropped
            # records bound the silent loss, nothing is reported.
            loss_bound = prediction["dropped"]
        elif prediction["damaged"]:
            expect_report = True
            loss_bound = None  # valid-prefix fallback: loss is legal
    report["corrupted"] = corrupted
    report["expect_report"] = expect_report

    # -- phase 3: restart, recover, query -----------------------------
    batch_path = workdir / "checks.txt"
    batch_path.write_text(EDGE_QUERY + "\n" + REACH_QUERY + "\n")
    revived = subprocess.run(
        _serve_argv(
            str(program_path),
            "--batch", str(batch_path),
            "--snapshot-dir", str(snapdir),
            "--workers", "2",
        ),
        capture_output=True, text=True, timeout=120, env=_env(),
    )
    report["restart_returncode"] = revived.returncode
    reported_corrupt = "REPRO_CORRUPT" in revived.stderr
    report["reported_corrupt"] = reported_corrupt
    if revived.returncode != 0:
        violation(
            f"restart exited {revived.returncode}: "
            f"{revived.stderr.strip()}"
        )
        return report

    answer_sets = [
        payload["answers"]
        for payload in map(json.loads, revived.stdout.splitlines())
        if payload["type"] == "answers"
    ]
    if len(answer_sets) != 2:
        violation(
            f"expected 2 answer sets, got {len(answer_sets)}"
        )
        return report
    survived = edges_from_answers(answer_sets[0])
    report["survived"] = len(survived)

    # -- phase 4: the recovery contract -------------------------------
    fed = set(LOADABLE) | {BASE_EDGE}
    ghosts = survived - fed
    if ghosts:
        violation(f"ghost facts never fed: {sorted(ghosts)}")
    lost = (acked | {BASE_EDGE}) - survived
    report["acked_lost"] = len(lost)
    if loss_bound is not None and len(lost) > loss_bound:
        violation(
            f"{len(lost)} acked facts lost (allowed "
            f"{loss_bound}, mode {mode}, "
            f"reported_corrupt={reported_corrupt}): {sorted(lost)}"
        )
    if reported_corrupt and not corrupted:
        violation("corruption reported for an undamaged cycle")
    if expect_report and not reported_corrupt:
        violation(
            "damage should have been reported as REPRO_CORRUPT "
            "but recovery stayed silent"
        )
    if reported_corrupt:
        sidecar = snapdir / "corrupt"
        if not (sidecar.is_dir() and os.listdir(sidecar)):
            violation(
                "REPRO_CORRUPT reported but corrupt/ sidecar is "
                "empty: damaged file not quarantined"
            )
    oracle_edges, oracle_reach = oracle_edge_and_reach(survived)
    served_edges = {
        canonical_answer(binding) for binding in answer_sets[0]
    }
    served_reach = {
        canonical_answer(binding) for binding in answer_sets[1]
    }
    if served_edges != oracle_edges:
        violation(
            f"edge answers diverge from the oracle: "
            f"served {sorted(served_edges)} vs "
            f"oracle {sorted(oracle_edges)}"
        )
    if served_reach != oracle_reach:
        violation(
            f"reach answers diverge from the oracle: "
            f"served {sorted(served_reach)} vs "
            f"oracle {sorted(oracle_reach)}"
        )
    return report


# -- one sharded chaos cycle ------------------------------------------


#: How a sharded cycle disrupts its victim worker ("kill" twice: the
#: crash path stays the majority).  ``kill`` SIGKILLs it (the reader
#: thread sees EOF at once), ``stop`` SIGSTOPs it (alive but silent:
#: only the heartbeat/op deadline can tell), ``hangfault`` starts the
#: cluster with ``hang:load`` so a worker wedges *inside* an op while
#: its pump thread keeps answering pings.
DISRUPTIONS = ("kill", "kill", "stop", "hangfault")


def run_sharded_cycle(
    rng: random.Random,
    workdir: Path,
    shards: int = 2,
    kill_after: int | None = None,
    disrupt: str | None = None,
) -> dict:
    """One sharded disrupt/recover cycle against ``--shards N``.

    Disrupts one shard *worker* mid-load -- SIGKILL, SIGSTOP, or an
    injected ``hang:load`` fault (:data:`DISRUPTIONS`) -- so the
    coordinator must detect the failure within its op deadline or
    heartbeat interval, SIGKILL + respawn the worker, and WAL-recover
    its acked facts.  A liveness query rides at the end of the batch:
    it must come back as answers (the supervisor retries the transient
    ``REPRO_SHARD`` it may hit first), proving the cluster converged
    with the disruption still in play.  The cycle then either closes
    the server gracefully (a stuck worker must not stall the shutdown
    ladder) or SIGKILLs the whole process, and restarts against the
    same snapshot directory.  The contract: recovery converges every
    shard to a consistent epoch (no ``inconsistent cluster recovery``
    report), no ghosts appear, no acked fact is lost (every shard's
    WAL append precedes its ack; a load that failed fast on a hung
    shard was never acked), and the restarted answers equal the
    oracle's over exactly the surviving EDB.
    """
    kill_after = (
        kill_after
        if kill_after is not None
        else rng.randint(1, len(LOADABLE) - 2)
    )
    disrupt = disrupt or rng.choice(DISRUPTIONS)
    snapshot_every = rng.choice((1, 2, 3, 8))
    delay = rng.choice((None, 0.02, 0.05))
    crash_exit = rng.random() < 0.5
    mode = f"sharded-{disrupt}"

    program_path = workdir / "prog.cql"
    program_path.write_text(PROGRAM)
    snapdir = workdir / "snap"
    report: dict = {
        "mode": mode,
        "exit": "crash" if crash_exit else "drain",
        "shards": shards,
        "snapshot_every": snapshot_every,
        "kill_after": kill_after,
        "wal_delay": delay,
        "violations": [],
    }

    def violation(text: str) -> None:
        report["violations"].append(text)

    faults = []
    if delay is not None:
        faults.append(f"delay:fs.write.wal:{delay}")
    if disrupt == "hangfault":
        # Each worker's 4th load wedges its main loop forever (the
        # pump thread still answers pings); only the coordinator's op
        # deadline can notice, SIGKILL, and respawn it.
        faults.append("hang:load:4:1")
    flags = [
        "--batch", "-",
        "--shards", str(shards),
        "--snapshot-dir", str(snapdir),
        "--snapshot-every", str(snapshot_every),
        "--workers", "2",
        "--queue-depth", "1",
        "--shard-op-timeout", "2",
        "--heartbeat-interval", "0.5",
    ]
    if faults:
        flags += ["--faults", ";".join(faults)]
    victim = subprocess.Popen(
        _serve_argv(str(program_path), *flags),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_env(),
    )
    out_lines: list[str] = []
    err_lines: list[str] = []

    def read_pipe(pipe, sink) -> None:
        for line in pipe:
            sink.append(line)

    readers = [
        threading.Thread(
            target=read_pipe, args=(victim.stdout, out_lines),
            daemon=True,
        ),
        threading.Thread(
            target=read_pipe, args=(victim.stderr, err_lines),
            daemon=True,
        ),
    ]
    for reader in readers:
        reader.start()

    def shard_pids() -> dict[int, int]:
        pids = {}
        for line in err_lines:
            if line.startswith("repro serve: shard "):
                parts = line.split()
                pids[int(parts[3])] = int(parts[5])
        return pids

    try:
        deadline = time.monotonic() + 45
        while (
            len(shard_pids()) < shards
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        if len(shard_pids()) < shards:
            violation(
                f"only {len(shard_pids())} of {shards} shard pid "
                "lines appeared on stderr"
            )
        try:
            for edge in LOADABLE[:kill_after]:
                victim.stdin.write(fact_line(edge) + "\n")
                victim.stdin.flush()
            while (
                len(out_lines) < kill_after
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            # Mid-load disruption: one shard dies (SIGKILL), wedges
            # silently (SIGSTOP), or is already armed to hang inside
            # a later load (the injected fault needs no signal).
            pids = shard_pids()
            if pids and disrupt in ("kill", "stop"):
                target = rng.choice(sorted(pids))
                report["disrupted_shard"] = target
                sig = (
                    signal.SIGKILL if disrupt == "kill"
                    else signal.SIGSTOP
                )
                try:
                    os.kill(pids[target], sig)
                except ProcessLookupError:
                    pass
            for edge in LOADABLE[kill_after:]:
                victim.stdin.write(fact_line(edge) + "\n")
                victim.stdin.flush()
            # Liveness probe: with the disruption in play, a query at
            # the tail of the batch must still come back as answers
            # (hang detection + respawn + the supervisor's transient
            # retry are all on its path).
            victim.stdin.write(REACH_QUERY + "\n")
            victim.stdin.flush()
            if not crash_exit:
                victim.stdin.close()  # EOF: drain + final checkpoint
                victim.wait(timeout=90)
            else:
                deadline = time.monotonic() + 60
                while (
                    len(out_lines) < len(LOADABLE) + 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
        except BrokenPipeError:
            violation("victim died before the batch was fed")
    finally:
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        # Orphaned shard workers die on stdin EOF when the
        # coordinator's pipes close with it.
    for reader in readers:
        reader.join(timeout=10)

    acked: set[tuple] = set()
    lively = False
    for index, line in enumerate(out_lines):
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if payload.get("type") == "facts":
            acked.add(LOADABLE[index])
        elif payload.get("type") == "answers":
            lively = True
    report["acked"] = len(acked)
    report["lively"] = lively
    report["load_errors"] = sum(
        1
        for line in out_lines
        if '"type": "error"' in line or '"error_code"' in line
    )
    if not lively:
        violation(
            "liveness query was never answered: the disrupted "
            "cluster did not converge within the deadline"
        )

    # -- restart, recover, query --------------------------------------
    batch_path = workdir / "checks.txt"
    batch_path.write_text(EDGE_QUERY + "\n" + REACH_QUERY + "\n")
    revived = subprocess.run(
        _serve_argv(
            str(program_path),
            "--batch", str(batch_path),
            "--shards", str(shards),
            "--snapshot-dir", str(snapdir),
            "--workers", "2",
        ),
        capture_output=True, text=True, timeout=120, env=_env(),
    )
    report["restart_returncode"] = revived.returncode
    if revived.returncode != 0:
        violation(
            f"restart exited {revived.returncode}: "
            f"{revived.stderr.strip()}"
        )
        return report
    if "inconsistent cluster recovery" in revived.stderr:
        violation(
            "restart reported an inconsistent cluster: "
            f"{revived.stderr.strip()}"
        )
    if "REPRO_CORRUPT" in revived.stderr:
        violation(
            "corruption reported for an undamaged sharded cycle: "
            f"{revived.stderr.strip()}"
        )
    if acked and "recovered cluster epoch" not in revived.stderr:
        violation(
            "restart never reported a recovered cluster epoch "
            "despite acked loads"
        )

    answer_sets = [
        payload["answers"]
        for payload in map(json.loads, revived.stdout.splitlines())
        if payload["type"] == "answers"
    ]
    if len(answer_sets) != 2:
        violation(f"expected 2 answer sets, got {len(answer_sets)}")
        return report
    survived = edges_from_answers(answer_sets[0])
    report["survived"] = len(survived)

    fed = set(LOADABLE) | {BASE_EDGE}
    ghosts = survived - fed
    if ghosts:
        violation(f"ghost facts never fed: {sorted(ghosts)}")
    lost = (acked | {BASE_EDGE}) - survived
    report["acked_lost"] = len(lost)
    if lost:
        # Kill-only cycles: every ack follows the owning shard's WAL
        # append, so the per-shard loss bound is zero.
        violation(
            f"{len(lost)} acked facts lost in mode {mode}: "
            f"{sorted(lost)}"
        )
    oracle_edges, oracle_reach = oracle_edge_and_reach(survived)
    served_edges = {
        canonical_answer(binding) for binding in answer_sets[0]
    }
    served_reach = {
        canonical_answer(binding) for binding in answer_sets[1]
    }
    if served_edges != oracle_edges:
        violation(
            f"edge answers diverge from the oracle: "
            f"served {sorted(served_edges)} vs "
            f"oracle {sorted(oracle_edges)}"
        )
    if served_reach != oracle_reach:
        violation(
            f"reach answers diverge from the oracle: "
            f"served {sorted(served_reach)} vs "
            f"oracle {sorted(oracle_reach)}"
        )
    return report


# -- the driver -------------------------------------------------------


def run_cycles(
    cycles: int,
    seed: int,
    artifacts: Path | None = None,
    sharded: int | None = None,
) -> dict:
    """Run ``cycles`` randomized cycles; returns the summary dict."""
    summary: dict = {
        "seed": seed,
        "cycles": cycles,
        "sharded": sharded,
        "failures": [],
        "modes": {},
        "reported_corrupt": 0,
        "acked_total": 0,
    }
    base = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        for index in range(cycles):
            rng = random.Random(f"{seed}:{index}")
            workdir = base / f"cycle-{index:03d}"
            workdir.mkdir()
            if sharded is not None:
                report = run_sharded_cycle(
                    rng, workdir, shards=sharded
                )
            else:
                report = run_cycle(rng, workdir)
            report["cycle"] = index
            mode = report["mode"]
            summary["modes"][mode] = summary["modes"].get(mode, 0) + 1
            summary["reported_corrupt"] += report.get(
                "reported_corrupt", 0
            )
            summary["acked_total"] += report["acked"]
            if report["violations"]:
                summary["failures"].append(report)
                print(
                    f"cycle {index}: FAIL "
                    f"(replay: --seed {seed}, cycle {index}) "
                    + "; ".join(report["violations"]),
                    file=sys.stderr,
                )
                if artifacts is not None:
                    keep = artifacts / f"cycle-{index:03d}-seed-{seed}"
                    shutil.copytree(
                        workdir, keep, dirs_exist_ok=True
                    )
            else:
                print(
                    f"cycle {index}: ok mode={mode} "
                    f"acked={report['acked']} "
                    f"survived={report.get('survived')} "
                    f"corrupt_reported="
                    f"{report.get('reported_corrupt', 0)}"
                )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "--cycles", type=int, default=50, metavar="N",
        help="kill/damage/recover cycles to run (default 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="RNG seed (default: drawn from os.urandom, printed)",
    )
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="keep failing cycles' snapshot dirs under DIR",
    )
    parser.add_argument(
        "--sharded", type=int, default=None, metavar="N",
        help="run sharded cycles against --shards N (SIGKILL one "
        "shard worker mid-load) instead of single-session cycles",
    )
    arguments = parser.parse_args(argv)
    seed = (
        arguments.seed
        if arguments.seed is not None
        else int.from_bytes(os.urandom(4), "big")
    )
    artifacts = (
        Path(arguments.artifacts) if arguments.artifacts else None
    )
    if artifacts is not None:
        artifacts.mkdir(parents=True, exist_ok=True)
    flavor = (
        f" (sharded x{arguments.sharded})"
        if arguments.sharded is not None
        else ""
    )
    print(
        f"chaos_recover: {arguments.cycles} cycles, seed {seed}"
        f"{flavor}"
    )
    summary = run_cycles(
        arguments.cycles, seed, artifacts, sharded=arguments.sharded
    )
    print(json.dumps(summary, default=str))
    if summary["failures"]:
        print(
            f"chaos_recover: {len(summary['failures'])} of "
            f"{arguments.cycles} cycles violated the recovery "
            f"contract (seed {seed})",
            file=sys.stderr,
        )
        return 1
    print(
        f"chaos_recover: all {arguments.cycles} cycles honored the "
        f"recovery contract ({summary['acked_total']} acked loads, "
        f"{summary['reported_corrupt']} corruptions reported and "
        f"quarantined)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
