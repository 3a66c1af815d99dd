"""End-to-end coverage of ``--strategy auto`` across entry points.

The automatic strategy must be reachable (and sound) from every
surface that accepts a strategy name: the batch CLI (including the
``--explain`` pick and reason), the service engine, and the
conformance differ's config list.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src"

PROGRAM_TEXT = """
q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
p1(X, Y) :- b1(X, Y).
p2(X) :- b2(X).
""" + "\n".join(
    f"b1({x}, {y})." for x in range(8) for y in range(8)
) + "\n" + "\n".join(
    f"b2({y})." for y in range(8)
) + "\n?- q(X).\n"


def run_cli(tmp_path, *flags: str) -> subprocess.CompletedProcess:
    program = tmp_path / "program.cql"
    program.write_text(PROGRAM_TEXT)
    return subprocess.run(
        [sys.executable, "-m", "repro", *flags, str(program)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=120,
    )


class TestCliAuto:
    def test_auto_matches_fixed_strategy_answers(self, tmp_path):
        auto = run_cli(tmp_path, "--strategy", "auto")
        fixed = run_cli(tmp_path, "--strategy", "rewrite")
        assert auto.returncode == 0, auto.stderr
        assert fixed.returncode == 0, fixed.stderr
        def answers(output: str) -> list[str]:
            # Answer lines are the indented "  X = v" bindings; the
            # auto run additionally prints a "note: ..." line.
            return sorted(
                line
                for line in output.splitlines()
                if line.startswith("  ")
            )

        assert answers(auto.stdout) == answers(fixed.stdout)
        assert answers(auto.stdout)  # non-empty
        assert "planner chose" in auto.stderr

    def test_explain_prints_plan_and_ranking(self, tmp_path):
        result = run_cli(
            tmp_path, "--strategy", "auto", "--explain"
        )
        assert result.returncode == 0, result.stderr
        # The pick and its reason.
        assert "plan: strategy=none" in result.stdout
        assert "reason: the query binds no argument" in result.stdout
        # The chosen strategy is surfaced as a note too.
        assert "planner chose" in result.stderr

    def test_explain_without_auto_warns(self, tmp_path):
        result = run_cli(
            tmp_path, "--strategy", "rewrite", "--explain"
        )
        assert result.returncode == 0, result.stderr
        assert "plan: strategy=" not in result.stdout
        assert "--strategy auto" in result.stderr

    def test_unknown_strategy_still_rejected(self, tmp_path):
        result = run_cli(tmp_path, "--strategy", "bogus")
        assert result.returncode != 0


class TestEngineAuto:
    def test_engine_from_text_accepts_auto(self):
        from repro.service import Engine

        engine = Engine.from_text(PROGRAM_TEXT, strategy="auto")
        fixed = Engine.from_text(PROGRAM_TEXT, strategy="rewrite")
        for __ in range(3):
            response = engine.query("?- q(X).")
            assert response.ok, response.error_message
        baseline = fixed.query("?- q(X).")
        assert sorted(response.answer_strings) == sorted(
            baseline.answer_strings
        )

    def test_session_rejects_auto_only_where_invalid(self):
        from repro.driver import validate_strategy
        from repro.errors import UsageError

        validate_strategy("auto", allow_auto=True)
        with pytest.raises(UsageError):
            validate_strategy("auto")
        with pytest.raises(UsageError):
            validate_strategy("bogus", allow_auto=True)


class TestDifferAuto:
    def test_default_configs_include_auto(self):
        from repro.conformance.differ import DEFAULT_CONFIGS

        assert "auto" in DEFAULT_CONFIGS

    def test_auto_config_agrees_with_oracle(self):
        from repro.conformance.differ import check_case
        from repro.conformance.generator import generate_case

        conclusive = 0
        for seed in range(6):
            case = generate_case(seed)
            result = check_case(case)
            assert result.ok, result.summary()
            run = result.runs["auto"]
            assert run.detail.startswith("plan=")
            if run.complete:
                conclusive += 1
        assert conclusive > 0

    def test_auto_session_runs_serve_the_pick(self):
        from repro.conformance.differ import check_case
        from repro.conformance.generator import generate_case

        picks = set()
        for seed in range(6):
            result = check_case(
                generate_case(seed), configs=("oracle", "auto")
            )
            assert result.ok, result.summary()
            pick = result.runs["auto"].detail.split(",")[0]
            picks.add(pick)
            for name in ("auto-service", "auto-warm"):
                run = result.runs[name]
                if run.complete:
                    assert run.detail == pick
        assert len(picks) > 1  # the seeds reach more than one pick
