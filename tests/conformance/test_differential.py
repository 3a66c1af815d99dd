"""The conformance harness's own pytest face.

Three layers, fastest first:

* **Corpus replay** -- every committed ``.cql`` reproducer under
  ``tests/conformance/corpus/`` re-runs through the full differ; a
  reappearing bug fails the exact case that once caught it.
* **Fresh random batch** -- a small seeded batch (deterministic seeds,
  so CI failures reproduce locally by seed) must agree everywhere.
* **Harness self-tests** -- the generator's structural guarantees, the
  oracle against hand-computed answers, and the end-to-end proof that
  an injected rewrite bug is caught *and* shrunk to a tiny reproducer
  (the acceptance bar: at most 5 rules).
"""

from pathlib import Path

import pytest

from repro.conformance import (
    case_from_text,
    check_case,
    generate_case,
    shrink,
)
from repro.conformance.differ import (
    CheckSettings,
    INJECTIONS,
    _held_out_schedule,
    generalized_query,
    sibling_queries,
)
from repro.conformance.generator import GeneratorConfig
from repro.conformance.oracle import numeric_domain, oracle_answers
from repro.conformance.shrinker import (
    reproducer_name,
    still_fails_like,
    write_reproducer,
)
from repro.lang.ast import Query

CORPUS = Path(__file__).parent / "corpus"
CORPUS_CASES = sorted(CORPUS.glob("*.cql"))

#: Strategy configs only -- no service -- for the fast self-tests.
FAST_CONFIGS = ("oracle", "none", "rewrite")

#: The accumulating magic session against the oracle alone.
WARM_CONFIGS = ("oracle", "warm-magic")


def _assert_agrees(result):
    lines = [result.summary()]
    lines += [
        f"  {run.name}: {run.completeness} {run.detail}"
        for run in result.runs.values()
    ]
    assert result.ok, "\n".join(lines)


class TestCorpusReplay:
    @pytest.mark.parametrize(
        "path", CORPUS_CASES, ids=lambda path: path.stem
    )
    def test_corpus_case_agrees(self, path):
        case = case_from_text(path.read_text(), label=path.name)
        _assert_agrees(check_case(case))

    def test_corpus_is_not_empty(self):
        # The corpus carries the shrunken reproducers of every bug the
        # harness has caught; losing it silently would gut the replay.
        assert CORPUS_CASES


class TestShardedConfig:
    """The opt-in ``sharded`` config over the corpus: the held-out
    schedule through one 2-shard cluster per strategy, each step held
    to the oracle over the EDB as of that request."""

    @pytest.mark.parametrize(
        "path", CORPUS_CASES, ids=lambda path: path.stem
    )
    def test_corpus_case_agrees_sharded(self, path):
        case = case_from_text(path.read_text(), label=path.name)
        result = check_case(case, configs=("oracle", "sharded"))
        _assert_agrees(result)
        assert {
            run.name.split("[")[0]
            for run in result.runs.values()
            if run.complete and run.expected is not None
        } == {"sharded-rewrite", "sharded-optimal"}


class TestFreshBatch:
    @pytest.mark.parametrize("seed", range(0, 40))
    def test_generated_case_agrees(self, seed):
        _assert_agrees(check_case(generate_case(seed)))


class TestGeneratorGuarantees:
    @pytest.mark.parametrize("seed", range(0, 60))
    def test_cases_are_range_restricted_and_parseable(self, seed):
        case = generate_case(seed)
        for rule in case.program:
            body_vars = set()
            for literal in rule.body:
                body_vars |= literal.variables()
            assert rule.head.variables() <= body_vars
            assert rule.constraint.variables() <= body_vars
        # The on-disk reproducer text round-trips through the parser.
        again = case_from_text(case.text)
        assert again.text == case.text

    def test_seeds_are_deterministic(self):
        assert generate_case(7).text == generate_case(7).text

    def test_scaled_down_config_shrinks_cases(self):
        small = GeneratorConfig().scaled_down()
        case = generate_case(3, small)
        assert all(
            literal.arity <= small.max_arity
            for rule in case.program
            for literal in (rule.head, *rule.body)
        )


class TestOracle:
    def test_oracle_on_known_program(self):
        case = case_from_text(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            edge(1, 2).
            edge(2, 3).
            ?- path(1, Q).
            """
        )
        answers = oracle_answers(case.program, case.query)
        assert {tuple(a) for a in answers} == {(2,), (3,)}

    def test_oracle_constraint_pruning(self):
        case = case_from_text(
            """
            small(X) :- num(X), X <= 2.
            num(1).
            num(2).
            num(3).
            ?- small(Q).
            """
        )
        answers = oracle_answers(case.program, case.query)
        assert {tuple(a) for a in answers} == {(1,), (2,)}

    def test_domain_collects_constants(self):
        case = case_from_text(
            "p(X) :- e(X), X <= 7.\ne(3).\n?- p(Q)."
        )
        domain = numeric_domain(case.program, case.query)
        assert 3 in domain and 7 in domain


class TestWarmMagicConfig:
    """``warm-magic`` drives what it says: sibling seeds of one form
    and fact loads through one session, every step held to the oracle
    as of that step."""

    def test_siblings_share_the_form_and_differ_in_constants(self):
        from repro.service.forms import canonicalize

        seen = 0
        for seed in range(20):
            case = generate_case(seed)
            form, params = canonicalize(case.query)
            siblings = sibling_queries(case)
            assert len(siblings) <= 5
            for sibling in siblings:
                sibling_form, sibling_params = canonicalize(sibling)
                assert sibling_form == form
                assert sibling_params != params
            seen += len(siblings)
        assert seen

    def test_steps_resume_and_hit_one_database_per_session(self):
        from repro import obs

        tracer = obs.Tracer()
        compiles = 0
        with obs.recording(tracer):
            for seed in range(12):
                case = generate_case(seed)
                result = check_case(case, configs=WARM_CONFIGS)
                _assert_agrees(result)
                steps = [
                    run for run in result.runs.values()
                    if run.expected is not None
                ]
                assert len(steps) >= 6  # three sessions, asked twice
                # The freed query is a second form: magic and optimal
                # compile it apart, rewrite shares the case query's.
                compiles += 3 + 2 * (generalized_query(case) is not None)
                # Each fact lookup's EDB predicate is one more key in
                # every session.
                lookups = {
                    step.literal.pred
                    for step in _held_out_schedule(case)[1]
                    if isinstance(step, Query)
                    and step.literal.pred != case.query.literal.pred
                }
                compiles += 3 * len(lookups)
        counters = tracer.metrics.counters
        # One compile per key; seeds and loads entered as deltas.
        assert compiles > 36
        assert counters["service.form_compiles"] == compiles
        assert counters["service.resumes"] > 36
        assert counters["service.warm_hits"] > 36


class TestInjectedBugIsCaught:
    """The harness's reason to exist: a deliberately corrupted rewrite
    must produce a mismatch, and the shrinker must reduce the witness
    to a tiny (<= 5 proper rules) reproducer."""

    # Seed windows known to contain catching cases per injection; the
    # tighten bug needs a case whose answers straddle the moved bound,
    # which is rarer than losing a whole rule.
    WINDOWS = pytest.mark.parametrize(
        "name, seeds",
        [("drop-rule", range(0, 30)), ("tighten", range(170, 190))],
        ids=["drop-rule", "tighten"],
    )

    @staticmethod
    def assert_caught(name, seeds, config, configs):
        inject = (config, INJECTIONS[name])
        settings = CheckSettings()
        assert any(
            not check_case(
                generate_case(seed),
                configs=configs,
                settings=settings,
                inject=inject,
            ).ok
            for seed in seeds
        ), f"no seed in {seeds} caught injected bug {name!r}"

    @WINDOWS
    def test_some_seed_catches_injection(self, name, seeds):
        self.assert_caught(name, seeds, "rewrite", FAST_CONFIGS)

    @WINDOWS
    def test_warm_magic_catches_injection(self, name, seeds):
        # The same corruption, applied to the templates the
        # accumulating sessions compile.
        self.assert_caught(name, seeds, "warm-magic", WARM_CONFIGS)

    def test_caught_bug_shrinks_small(self, tmp_path):
        inject = ("rewrite", INJECTIONS["drop-rule"])
        settings = CheckSettings()

        def run(case):
            return check_case(
                case,
                configs=FAST_CONFIGS,
                settings=settings,
                inject=inject,
            )

        failing = None
        for seed in range(30):
            result = run(generate_case(seed))
            if not result.ok:
                failing = result
                break
        assert failing is not None
        small, steps = shrink(
            failing.case, still_fails_like(failing, run)
        )
        assert small.rule_count <= 5
        assert not run(small).ok
        # And the reproducer round-trips through its on-disk format.
        path = write_reproducer(
            small, tmp_path, header=["injected: drop-rule"]
        )
        assert path.name == reproducer_name(small)
        replayed = case_from_text(path.read_text())
        assert not run(replayed).ok


class TestUnfoldSymRegression:
    """Seeds 192/332 used to crash QRP's unfold with a TransformError
    when a symbolic constant was substituted for an arithmetically
    constrained variable; the resolvent is now dropped as
    unsatisfiable.  The shrunken corpus cases replay above; this pins
    the original seeds too."""

    @pytest.mark.parametrize("seed", [192, 332])
    def test_original_seed_passes(self, seed):
        _assert_agrees(
            check_case(
                generate_case(seed),
                configs=("oracle", "rewrite", "optimal"),
            )
        )
