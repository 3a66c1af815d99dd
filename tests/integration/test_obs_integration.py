"""Integration tests: obs counters vs. EvalStats, CLI flags.

The observability layer double-counts nothing: its ``engine.*`` counters
must agree exactly with the engine's own :class:`EvalStats` on real
programs (flights / Example 4.1), and the span tree must cover the
pipeline phases the docs promise (parse -> optimize -> rewrite steps ->
evaluate -> fixpoint -> per-iteration).
"""

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.driver import run_text
from repro.engine import Database, evaluate
from repro.lang.parser import parse_program


FLIGHTS_TEXT = """
cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.
cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.
flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost),
                                Cost > 0, Time > 0.
flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                      T = T1 + T2 + 30, C = C1 + C2.
singleleg(madison, chicago, 50, 100).
singleleg(chicago, seattle, 150, 40).
singleleg(madison, denver, 300, 400).
singleleg(denver, seattle, 120, 60).
?- cheaporshort(madison, seattle, T, C).
"""

NONTERMINATING_TEXT = """
p(0).
p(X1) :- p(X), X1 = X + 1.
?- p(X).
"""


def traced_run(text, **kwargs):
    tracer = obs.Tracer()
    with obs.recording(tracer):
        outcomes = run_text(text, **kwargs)
    tracer.finish()
    return tracer, outcomes


class TestCounterAccuracy:
    def test_flights_counters_match_eval_stats(self):
        tracer, outcomes = traced_run(FLIGHTS_TEXT)
        counters = tracer.metrics.counters
        stats = [outcome.result.stats for outcome in outcomes]
        assert counters["engine.derivations"] == sum(
            s.derivations for s in stats
        )
        assert counters["engine.facts.new"] == sum(
            s.new_facts for s in stats
        )
        assert counters["engine.facts.duplicate"] == sum(
            s.duplicates for s in stats
        )
        assert counters.get("engine.facts.subsumed", 0) == sum(
            s.subsumed for s in stats
        )
        assert counters["engine.join_probes"] == sum(
            s.probes for s in stats
        )
        assert counters["engine.iterations"] == sum(
            s.iterations for s in stats
        )

    def test_example_41_counters_match_eval_stats(self):
        program = parse_program(
            """
            q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
            p1(X, Y) :- b1(X, Y).
            p2(X) :- b2(X).
            """
        )
        edb = Database.from_ground(
            {
                "b1": [(2, 3), (9, 9), (3, 1)],
                "b2": [(3,), (9,), (1,)],
            }
        )
        tracer = obs.Tracer()
        with obs.recording(tracer):
            result = evaluate(program, edb)
        tracer.finish()
        counters = tracer.metrics.counters
        assert (
            counters["engine.derivations"] == result.stats.derivations
        )
        assert counters["engine.facts.new"] == result.stats.new_facts
        # One per-span iteration node per engine iteration.
        iterations = tracer.root.find_all("iteration")
        assert len(iterations) == result.stats.iterations
        # Per-iteration delta attrs reproduce the iteration logs.
        assert [s.attrs["delta"] for s in iterations] == [
            len(log.new_facts()) for log in result.iterations
        ]

    def test_rewrite_fixpoint_iteration_counters(self):
        tracer, __ = traced_run(FLIGHTS_TEXT, strategy="rewrite")
        counters = tracer.metrics.counters
        assert counters["rewrite.pred.iterations"] >= 1
        assert counters["rewrite.qrp.iterations"] >= 1
        assert counters["constraint.sat_checks"] > 0
        assert counters["constraint.projections"] > 0

    def test_span_tree_covers_pipeline_phases(self):
        tracer, __ = traced_run(FLIGHTS_TEXT)
        root = tracer.root
        for name in (
            "parse",
            "split_edb",
            "query",
            "optimize",
            "rewrite.pred",
            "rewrite.qrp",
            "evaluate",
            "normalize",
            "fixpoint",
            "iteration",
            "rule",
            "answers",
        ):
            assert root.find(name) is not None, name
        # rewrite spans nest under optimize, iterations under fixpoint
        optimize = root.find("optimize")
        assert optimize.find("rewrite.qrp") is not None
        fixpoint = root.find("fixpoint")
        assert fixpoint.find("iteration") is not None
        assert fixpoint.find("rule") is not None

    def test_magic_strategy_spans(self):
        tracer, __ = traced_run(FLIGHTS_TEXT, strategy="optimal")
        assert tracer.root.find("adorn") is not None
        assert tracer.root.find("magic") is not None


class TestCli:
    def run_cli(self, text, *flags):
        return subprocess.run(
            [sys.executable, "-m", "repro", "-", *flags],
            input=text,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_version(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        assert "repro" in completed.stdout

    def test_trace_flag_writes_chrome_trace(self, tmp_path):
        path = tmp_path / "out.json"
        completed = self.run_cli(FLIGHTS_TEXT, "--trace", str(path))
        assert completed.returncode == 0, completed.stderr
        data = json.loads(path.read_text())
        names = {
            event["name"]
            for event in data["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"run", "parse", "fixpoint"} <= names
        assert any(name.startswith("rewrite.") for name in names)
        rebuilt = obs.read_chrome_trace(data)
        assert rebuilt.find("fixpoint") is not None

    def test_report_and_metrics_flags(self, tmp_path):
        path = tmp_path / "run.jsonl"
        completed = self.run_cli(
            FLIGHTS_TEXT, "--report", str(path), "--metrics"
        )
        assert completed.returncode == 0, completed.stderr
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines[0]["type"] == "meta"
        assert any(line["type"] == "counter" for line in lines)
        assert "engine.derivations" in completed.stdout

    def test_derivations_flag_prints_iteration_log(self):
        completed = self.run_cli(FLIGHTS_TEXT, "--derivations")
        assert completed.returncode == 0
        assert "iteration 0:" in completed.stdout

    def test_exit_1_when_no_fixpoint(self):
        completed = self.run_cli(
            NONTERMINATING_TEXT,
            "--strategy",
            "none",
            "--eval-iterations",
            "5",
        )
        assert completed.returncode == 1
        assert "iteration cap" in completed.stderr

    def test_exit_2_on_parse_error(self):
        completed = self.run_cli("q(X :- broken(\n?- q(X).\n")
        assert completed.returncode == 2

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (("--max-iterations", "-1"), "--max-iterations"),
            (("--eval-iterations", "0"), "--eval-iterations"),
            (("--cache-size", "0"), "--cache-size"),
        ],
    )
    def test_cli_rejects_bad_flags(self, flags, fragment):
        # The twin of ``repro serve``'s check: both parsers share the
        # flag group, so a non-positive cap is a usage error here too.
        completed = self.run_cli(FLIGHTS_TEXT, *flags)
        assert completed.returncode == 2
        assert fragment in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_untraced_run_default_recorder_untouched(self):
        completed = self.run_cli(FLIGHTS_TEXT)
        assert completed.returncode == 0
        assert "trace written" not in completed.stderr

