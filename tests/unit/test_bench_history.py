"""The perf-trajectory tool: one result file -> one history line."""

import json

import pytest

from benchmarks.bench_history import check, condense, main

COMMIT = "1d35e4acea0ccacd2df71dc637b261d09135008c"


def _run(workload, repeat, p50, trace=0, failed=0):
    return {
        "workload": workload,
        "repeat": repeat,
        "trace": trace,
        "loadavg_1m": 0.5 + repeat,
        "summary": f"{workload}: seed 7, 2 epochs, 4 ops attempted, "
        f"{failed} failed; host slowdown per epoch 0.9{repeat} 1.1",
        "failed": failed,
        "metrics": {
            "query_p50_ms": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": 80.0, "unit": "MiB"},
        },
    }


def _result():
    return {
        "schema": "repro-perf/v1", "commit": COMMIT, "seed": 7,
        "seconds": 10, "smoke": False, "python": "3.11.7", "nproc": 2,
        "host_spin_ms": 0.83731,
        "runs": [
            _run("cold-rewrite", 0, 70.0),
            _run("cold-rewrite", 1, 90.0, failed=1),
            _run("cold-rewrite", 2, 72.0),
            _run("cold-rewrite", 0, 999.0, trace=1),
            _run("cold-none", 0, 30.0),
        ],
    }


def test_condense_takes_medians_of_untraced_passes():
    line = condense(_result(), change="PR 18")
    assert line["commit"] == COMMIT and line["change"] == "PR 18"
    assert line["passes"] == 3 and "smoke" not in line
    rewrite = line["workloads"]["cold-rewrite"]
    assert rewrite["query_p50_ms"] == 72.0  # the traced 999 is left out
    assert rewrite["failed"] == 1
    assert rewrite["host_slowdown"] == 1.01  # of .90 .91 .92 1.1 1.1 1.1
    assert rewrite["loadavg_1m"] == 1.5
    assert line["workloads"]["cold-none"]["query_p50_ms"] == 30.0


def test_append_then_check(tmp_path, capsys):
    source = tmp_path / "result.json"
    source.write_text(json.dumps(_result()))
    history = tmp_path / "history.jsonl"
    for __ in range(2):
        assert main([str(source), "--history", str(history)]) == 0
    assert len(history.read_text().splitlines()) == 2
    assert check(history) == COMMIT
    assert main(["--check", "--history", str(history)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    ["", "not json\n", '{"commit": "abc", "workloads": {}}\n',
     '{"commit": "%s"}\n' % COMMIT],
)
def test_check_rejects_a_bad_history(tmp_path, text):
    history = tmp_path / "history.jsonl"
    history.write_text(text)
    with pytest.raises(ValueError):
        check(history)
    assert main(["--check", "--history", str(history)]) == 1
