"""One encoding, one seal: the decisions of ``repro.codec`` stay there.

A fact crosses the WAL, a snapshot, a manifest, a pipe frame and the
exchange dedup in one spelling only while nobody else serialises or
checksums.  This guard fails when a second spelling appears.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The codec, the observability exporters, and the two printers of
#: response lines (a response is not a fact and crosses no seal).
JSON_ALLOWED = ("codec.py", "obs/", "serve/cli.py", "service/batch.py")
#: ``shard/partition.py`` hashes routing keys; it checksums nothing.
ZLIB_ALLOWED = ("codec.py", "shard/partition.py")
#: What the shard stack may take from the durability module: the
#: policy object, the program identity and the file discipline.
SHARD_MAY_IMPORT = {
    "Snapshotter",
    "program_sha",
    "atomic_write",
    "quarantine",
    "numbered_files",
    "prune_numbered",
    "newest_verifiable",
}


def _modules_using(pattern: str) -> set[str]:
    uses = re.compile(pattern, re.MULTILINE)
    return {
        source.relative_to(SRC).as_posix()
        for source in SRC.rglob("*.py")
        if uses.search(source.read_text())
    }


def _outside(modules: set[str], allowed: tuple[str, ...]) -> list[str]:
    return sorted(
        module for module in modules if not module.startswith(allowed)
    )


def test_json_is_spelled_in_the_codec_only():
    users = _modules_using(r"^\s*(?:import|from)\s+json\b|\bjson\.\w+\(")
    assert "codec.py" in users
    assert not _outside(users, JSON_ALLOWED)


def test_checksums_are_computed_in_the_codec_only():
    users = _modules_using(r"\bzlib\b")
    assert "codec.py" in users
    assert not _outside(users, ZLIB_ALLOWED)


def test_shards_take_no_format_from_the_durability_module():
    taken = set()
    for source in (SRC / "shard").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom):
                if node.module == "repro.serve.snapshot":
                    taken.update(alias.name for alias in node.names)
                elif node.module == "repro.serve":
                    taken.update(
                        alias.name for alias in node.names
                        if alias.name == "snapshot"
                    )
            elif isinstance(node, ast.Import):
                taken.update(
                    alias.name for alias in node.names
                    if alias.name == "repro.serve.snapshot"
                )
    assert taken and taken <= SHARD_MAY_IMPORT, sorted(
        taken - SHARD_MAY_IMPORT
    )
