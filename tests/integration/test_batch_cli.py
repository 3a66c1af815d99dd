"""The CLI ``--batch`` mode: line protocol, exit codes, resilience."""

import json

import pytest

from repro.__main__ import main

PROGRAM = """
cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                Cost > 0, Time > 0.
flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                      T = T1 + T2 + 30, C = C1 + C2.
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 150, 40).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "flights.cql"
    path.write_text(PROGRAM)
    return path


def run_batch_lines(program_file, tmp_path, capsys, lines, *extra):
    batch = tmp_path / "requests.txt"
    batch.write_text("\n".join(lines) + "\n")
    status = main(
        [str(program_file), "--batch", str(batch), *extra]
    )
    output = [
        json.loads(line)
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    return status, output


def test_stream_of_queries_and_facts(program_file, tmp_path, capsys):
    status, results = run_batch_lines(
        program_file,
        tmp_path,
        capsys,
        [
            "% a comment, then a blank line",
            "",
            "?- cheaporshort(madison, seattle, T, C).",
            "singleleg(chicago, dallas, 90, 80).",
            "?- cheaporshort(madison, dallas, T, C).",
            "?- cheaporshort(madison, seattle, T, C).",
        ],
    )
    assert status == 0
    kinds = [doc["type"] for doc in results]
    assert kinds == ["answers", "facts", "answers", "answers"]
    assert results[0]["answers"] == ["C = 140, T = 230"]
    assert results[0]["cached"] is False
    assert results[1]["added"] == 1
    assert results[2]["cached"] is True and results[2]["resumed"]
    assert results[3]["warm"] is True
    assert all(
        doc.get("completeness", "complete") == "complete"
        for doc in results
    )


def test_errors_do_not_stop_the_stream(program_file, tmp_path, capsys):
    status, results = run_batch_lines(
        program_file,
        tmp_path,
        capsys,
        [
            "?- broken(((",
            "flight(a, b, 1, 1).",
            "?- cheaporshort(madison, seattle, T, C).",
        ],
    )
    assert status == 1
    assert results[0]["type"] == "error"
    assert results[0]["code"] == "REPRO_PARSE"
    assert results[1]["type"] == "error"       # derived-pred fact
    assert results[1]["code"] == "REPRO_USAGE"
    assert results[2]["type"] == "answers"     # session survived
    assert results[2]["answers"]


def test_per_request_budget_degrades(program_file, tmp_path, capsys):
    status, results = run_batch_lines(
        program_file,
        tmp_path,
        capsys,
        [
            "?- cheaporshort(madison, seattle, T, C).",
            "?- cheaporshort(madison, seattle, T, C).",
        ],
        "--max-facts",
        "2",
        "--on-limit",
        "truncate",
    )
    assert status == 1
    assert all(doc["type"] == "answers" for doc in results)
    assert all(
        doc["completeness"].startswith("truncated:") for doc in results
    )


def test_batch_mode_writes_trace(program_file, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    status, results = run_batch_lines(
        program_file,
        tmp_path,
        capsys,
        ["?- cheaporshort(madison, seattle, T, C)."],
        "--trace",
        str(trace),
    )
    assert status == 0 and results
    data = json.loads(trace.read_text())
    names = {
        event["name"]
        for event in data["traceEvents"]
        if event["ph"] == "X"
    }
    assert "service.request" in names
    assert "service.compile" in names


def test_missing_batch_file_is_a_usage_error(program_file, capsys):
    assert main([str(program_file), "--batch", "/no/such/file"]) == 2


@pytest.mark.parametrize(
    "flag", ["--derivations", "--stats", "--explain", "--show-program"]
)
def test_one_shot_flags_are_refused_with_batch(
    program_file, tmp_path, capsys, flag
):
    batch = tmp_path / "requests.txt"
    batch.write_text("?- cheaporshort(madison, seattle, T, C).\n")
    assert main([str(program_file), flag, "--batch", str(batch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert flag in line and "--batch" in line
