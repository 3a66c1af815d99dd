"""Cluster manifests: the consistent cross-shard checkpoint record.

Each shard worker is individually crash-safe -- it owns a full
:class:`~repro.serve.snapshot.Snapshotter` (WAL + checksummed
snapshots + quarantine) over its ``shard-NN/`` subdirectory.  What a
*cluster* additionally needs is a consistency cut: proof that the
per-shard states it restores belong to the same moment.  The
coordinator provides the cut operationally (a checkpoint runs under
the exclusive load lock, so no load is half-applied across shards)
and this module records it durably: after every checkpoint barrier a
``manifest-<generation>.json`` is written in the cluster's snapshot
root whose ``shards`` section maps each shard to the epoch it
checkpointed at.

Recovery restores every shard independently (snapshot + WAL replay,
reusing the serve quarantine paths for damage), then compares the
recovered epochs against the newest verifiable manifest: the cut is
*consistent* when every shard recovered to at least its manifest
epoch -- a shard's WAL may legitimately carry it past the barrier
(loads acked after the last checkpoint), but falling short means that
shard lost acknowledged, manifest-covered loads.  Manifests follow
the snapshot file discipline exactly, because they use the very same
helpers: one sealed line (:func:`repro.codec.seal`), atomic write +
directory fsync (fault site ``manifest``), three retained generations,
corrupt files quarantined to ``corrupt/`` rather than trusted or
deleted (:mod:`repro.serve.snapshot`).
"""

from __future__ import annotations

import os
import re
from typing import Mapping

from repro.codec import SCHEMA, seal
from repro.obs.recorder import count as obs_count
from repro.serve.snapshot import (
    atomic_write,
    newest_verifiable,
    prune_numbered,
)

#: Cluster manifests share the snapshot schema with their own kind tag.
MANIFEST_KIND = "shard-manifest"

_MANIFEST_RE = re.compile(r"^manifest-(\d{8})\.json$")


def shard_directory(root: str, shard: int) -> str:
    """Where one shard's Snapshotter lives under the cluster root."""
    return os.path.join(root, f"shard-{shard:02d}")


def build_manifest(
    program_id: str,
    generation: int,
    shard_count: int,
    epochs: Mapping[int, int],
) -> dict:
    """The manifest payload (sealed whole by :func:`write_manifest`)."""
    return {
        "schema": SCHEMA,
        "kind": MANIFEST_KIND,
        "program_sha": program_id,
        "generation": generation,
        "shard_count": shard_count,
        "shards": {
            str(shard): int(epoch)
            for shard, epoch in sorted(epochs.items())
        },
        "global_epoch": sum(int(e) for e in epochs.values()),
    }


def write_manifest(
    directory: str,
    program_id: str,
    generation: int,
    shard_count: int,
    epochs: Mapping[int, int],
) -> str:
    """Durably record one checkpoint barrier; prunes old generations."""
    os.makedirs(directory, exist_ok=True)
    payload = build_manifest(
        program_id, generation, shard_count, epochs
    )
    path = os.path.join(directory, f"manifest-{generation:08d}.json")
    atomic_write(path, seal(payload), "manifest")
    prune_numbered(directory, _MANIFEST_RE)
    obs_count("shard.manifests_written")
    return path


def latest_manifest(
    directory: str, program_id: str
) -> tuple[dict | None, list[str]]:
    """The newest verifiable manifest, plus names quarantined en route.

    The walk, the quarantine of damaged generations (reported by their
    name under ``corrupt/``) and the hard
    :class:`~repro.errors.SnapshotError` on another program's manifest
    are :func:`repro.serve.snapshot.newest_verifiable`'s -- restoring
    another program's cut would silently corrupt every shard at once.
    """
    quarantined: list[str] = []
    found = newest_verifiable(
        directory,
        _MANIFEST_RE,
        program_id,
        quarantined,
        kind=MANIFEST_KIND,
    )
    names = [os.path.basename(path) for path in quarantined]
    return (None if found is None else found[2]), names


def reconcile(
    manifest: dict | None, epochs: Mapping[int, int]
) -> dict:
    """Compare recovered per-shard epochs against the manifest cut."""
    if manifest is None:
        return {
            "generation": None,
            "consistent": True,
            "behind": [],
        }
    behind = []
    floor = manifest.get("shards", {})
    for shard_text, manifest_epoch in sorted(floor.items()):
        shard = int(shard_text)
        if epochs.get(shard, 0) < int(manifest_epoch):
            behind.append({
                "shard": shard,
                "recovered_epoch": epochs.get(shard, 0),
                "manifest_epoch": int(manifest_epoch),
            })
    return {
        "generation": manifest.get("generation"),
        "consistent": not behind,
        "behind": behind,
    }
