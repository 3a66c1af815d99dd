"""A cold start loads only the standard library and ``repro`` itself.

Every CLI one-shot, each ``serve`` restart and each shard worker spawn
imports the engine in a fresh interpreter, so a third-party import
anywhere on that path is paid on every start.  The library needs none:
the dependency graph's SCCs and reachability are plain Python in
``repro.lang.ast``.  This asserts which modules load, not how long
they take.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

_PROBE = """
import json, sys
before = set(sys.modules)
import repro.driver
import repro.shard.worker
import repro.serve
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_GRAPH_LIBRARY_IMPORT = re.compile(
    r"^\s*(?:import|from)\s+networkx\b", re.MULTILINE
)


def test_entry_points_load_only_stdlib_and_repro():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout)
    assert "repro.driver" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "repro"
    ]
    assert foreign == []


def test_no_source_imports_the_graph_library():
    offenders = [
        str(path.relative_to(ROOT))
        for top in ("src", "tests", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        if _GRAPH_LIBRARY_IMPORT.search(path.read_text())
    ]
    assert offenders == []
