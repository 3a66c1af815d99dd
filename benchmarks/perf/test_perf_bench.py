"""Self-tests of the benchmark (not part of tier-1; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import trace as perf_trace  # noqa: E402
from reference import FlightReference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    DECLARED = json.load(handle)

GENERATORS = {
    "oneshot": lambda seed: inputs.oneshot_ops(seed, 3, 3, 3),
    "session-warm": lambda seed: inputs.session_warm_ops(seed, 3, 3, 3),
    "session-seeds": lambda seed: inputs.session_seeds_ops(
        seed, 10, 9, 3, 3
    ),
    "serve-durable": lambda seed: inputs.serve_durable_ops(
        seed, 3, 8, 3, 3
    ),
    "sharded": lambda seed: inputs.sharded_ops(seed, 3, 3, 3, 2),
    "compile-forms": lambda seed: inputs.compile_corpus(seed, 12),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_stream_other_seed_other_stream(name):
    generate = GENERATORS[name]
    assert inputs.stream_digest(generate(7)) == inputs.stream_digest(
        generate(7)
    )
    assert inputs.stream_digest(generate(7)) != inputs.stream_digest(
        generate(8)
    )


@pytest.mark.parametrize(
    "strategy", ["none", "rewrite", "optimal", "auto"]
)
def test_reference_agrees_with_every_strategy(strategy):
    from repro.driver import answer_query, split_edb
    from repro.lang.parser import parse_program_and_queries

    text, ops = inputs.oneshot_ops(3, 9, 3, 3)
    assert any(op.expected for op in ops)
    for op in ops:
        program, queries = parse_program_and_queries(text + op.text)
        rules, edb = split_edb(program)
        outcome = answer_query(rules, queries[0], edb, strategy=strategy)
        assert frozenset(outcome.answer_strings) == op.expected


def test_reference_follows_loads_and_free_positions():
    reference = FlightReference([("a", "b", 50, 100)])
    assert reference.cheaporshort("a", "c") == frozenset()
    reference.add([("b", "c", 150, 40), ("b", "c", 300, 300)])
    assert reference.cheaporshort("a", "c") == {"C = 140, T = 230"}
    assert reference.cheaporshort("a", None) == {
        "C = 100, D = b, T = 50",
        "C = 140, D = c, T = 230",
    }
    assert "C = 40, S = b, T = 150" in reference.cheaporshort(None, "c")
    assert reference.singleleg("b") == {
        "C = 40, D = c, T = 150",
        "C = 300, D = c, T = 300",
    }


def smoke(workload: str, traced: int, seed: int = 5) -> dict:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(traced), "--smoke",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (name, traced): smoke(name, traced)
        for name in WORKLOADS
        for traced in (0, 1)
    }


def test_declared_and_emitted_names_agree(smoke_runs):
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for (name, traced), result in smoke_runs.items():
        section = "per_layer" if traced else "end_to_end"
        declared = {
            entry["name"]: entry["unit"] for entry in DECLARED[section]
        }
        emitted = {
            metric: value["unit"]
            for metric, value in result["metrics"].items()
        }
        assert emitted == declared, (name, traced)
        assert set(result) == {
            "correct", "attempted", "failed", "metrics",
        }
    for entry in DECLARED["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
        assert entry["better"] in ("lower", "higher")


def test_smoke_answers_are_all_correct(smoke_runs):
    for (name, traced), result in smoke_runs.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        if not traced:
            for metric, value in result["metrics"].items():
                assert value["value"] > 0, (name, metric)


COUNTS = {
    "cold-rewrite": ["engine.derivations", "engine.probes"],
    "session-seeds": ["engine.derivations", "engine.probes"],
    "serve-durable": ["serve.disk_bytes_per_fact", "serve.wal_appends"],
    "sharded": ["shard.rounds", "shard.disk_bytes_per_fact"],
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_repeat_exactly(name, smoke_runs):
    again = smoke(name, 1)
    for metric in COUNTS[name]:
        first = smoke_runs[(name, 1)]["metrics"][metric]["value"]
        assert first > 0
        assert again["metrics"][metric]["value"] == first, metric


def probed_names() -> dict:
    import importlib

    held = {}
    for probe in perf_trace.PROBES:
        module_name, __, path = probe.target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        held[probe.target] = vars(owner)[attribute]
    return held


def test_probes_are_fully_removed():
    import repro.service.session as session_module

    before = probed_names()
    evaluate_in_session = session_module.evaluate
    tracer = perf_trace.Tracer()
    patches = perf_trace.install(tracer)
    try:
        during = probed_names()
        assert all(
            during[target] is not before[target] for target in before
        )
        # A name imported into another module is rebound there too.
        assert session_module.evaluate is not evaluate_in_session
    finally:
        perf_trace.uninstall(patches)
    assert probed_names() == before
    assert session_module.evaluate is evaluate_in_session
    leftovers = [
        (name, attribute)
        for name, module in sys.modules.items()
        if name.startswith("repro") and module is not None
        for attribute, value in vars(module).items()
        if getattr(value, "__wrapped__", None) in before.values()
    ]
    assert leftovers == []


def test_compare_flags_a_regression(tmp_path):
    def document(scale: float) -> dict:
        return {
            "runs": [
                {
                    "workload": "cold-none",
                    "trace": 0,
                    "metrics": {
                        "query_p50_ms": {
                            "value": (100 + index) * scale,
                            "unit": "ms",
                        }
                    },
                }
                for index in range(5)
            ]
        }

    paths = {}
    for label, scale in (("a", 1.0), ("same", 1.01), ("slow", 1.5)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(document(scale)))

    def compare(left: str, right: str):
        return subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"), "compare",
                str(paths[left]), str(paths[right]),
            ],
            capture_output=True, text=True,
        )

    same = compare("a", "same")
    assert same.returncode == 0 and "unchanged" in same.stdout
    slow = compare("a", "slow")
    assert slow.returncode == 1 and "regressed" in slow.stdout
    fast = compare("slow", "a")
    assert fast.returncode == 0 and "improved" in fast.stdout
