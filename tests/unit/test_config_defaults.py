"""Regression: iteration-cap defaults have one source of truth.

The CLI, driver, pipeline, and engine each used to hard-code their own
``max_iterations`` defaults, and they drifted.  Every public entry
point must now take its default from :mod:`repro.config`; this test
inspects the signatures so a reintroduced literal fails loudly.
"""

from __future__ import annotations

import inspect

from repro.config import (
    DEFAULT_EVAL_ITERATIONS,
    DEFAULT_REWRITE_ITERATIONS,
    DEFAULT_WIDENING_ITERATIONS,
)


def default_of(func, name):
    return inspect.signature(func).parameters[name].default


def test_rewrite_iteration_defaults_are_consistent():
    from repro.core.baselines import gen_qrp_constraints_syntactic
    from repro.core.pipeline import apply_sequence
    from repro.core.predconstraints import (
        gen_predicate_constraints,
        gen_prop_predicate_constraints,
    )
    from repro.core.qrp import (
        gen_prop_qrp_constraints,
        gen_qrp_constraints,
    )
    from repro.core.rewrite import constraint_rewrite
    from repro.driver import answer_query, optimize, run_text

    for func in (
        gen_predicate_constraints,
        gen_prop_predicate_constraints,
        gen_qrp_constraints,
        gen_prop_qrp_constraints,
        gen_qrp_constraints_syntactic,
        constraint_rewrite,
        apply_sequence,
        optimize,
        answer_query,
        run_text,
    ):
        assert (
            default_of(func, "max_iterations")
            == DEFAULT_REWRITE_ITERATIONS
        ), func.__qualname__


def test_eval_iteration_defaults_are_consistent():
    from repro.core.pipeline import compare_sequences, evaluate_pipeline
    from repro.driver import answer_query, run_text
    from repro.engine.fixpoint import (
        evaluate,
        naive_evaluate,
        seminaive_evaluate,
    )

    for func, name in (
        (evaluate, "max_iterations"),
        (seminaive_evaluate, "max_iterations"),
        (naive_evaluate, "max_iterations"),
        (evaluate_pipeline, "max_iterations"),
        (compare_sequences, "max_iterations"),
        (answer_query, "eval_iterations"),
        (run_text, "eval_iterations"),
    ):
        assert (
            default_of(func, name) == DEFAULT_EVAL_ITERATIONS
        ), func.__qualname__


def test_widening_iteration_defaults_are_consistent():
    from repro.core.widening import (
        gen_predicate_constraints_widened,
        gen_prop_predicate_constraints_widened,
    )

    for func in (
        gen_predicate_constraints_widened,
        gen_prop_predicate_constraints_widened,
    ):
        assert (
            default_of(func, "max_iterations")
            == DEFAULT_WIDENING_ITERATIONS
        ), func.__qualname__


def test_cli_defers_to_config_defaults():
    # Both parsers take their defaults (and the help text, through
    # ``%(default)s``) straight from repro.config: no literal to drift.
    from repro.__main__ import build_parser
    from repro.config import DEFAULT_CACHE_SIZE
    from repro.serve.cli import build_parser as build_serve_parser
    from repro.service.cache import FormCache
    from repro.service.session import Session

    for parser in (build_parser(), build_serve_parser()):
        assert (
            parser.get_default("max_iterations")
            == DEFAULT_REWRITE_ITERATIONS
        )
        assert (
            parser.get_default("eval_iterations")
            == DEFAULT_EVAL_ITERATIONS
        )
        assert parser.get_default("cache_size") == DEFAULT_CACHE_SIZE
        assert "default 50)" not in parser.format_help()
    assert default_of(Session.__init__, "cache_size") == DEFAULT_CACHE_SIZE
    assert default_of(FormCache.__init__, "capacity") == DEFAULT_CACHE_SIZE


def test_shard_path_defers_to_config_defaults():
    # The coordinator's constructor and the worker's ``hello`` fallbacks
    # used to spell 20 / 200 / 64 themselves, so a sharded session
    # compiled under a different rewrite cap from ``Engine``'s.
    from repro.config import DEFAULT_CACHE_SIZE
    from repro.driver import split_edb
    from repro.lang.parser import parse_program
    from repro.shard.coordinator import ShardCoordinator
    from repro.shard.partition import build_plan
    from repro.shard.worker import ShardWorker

    init = ShardCoordinator.__init__
    assert default_of(init, "max_iterations") == DEFAULT_REWRITE_ITERATIONS
    assert default_of(init, "eval_iterations") == DEFAULT_EVAL_ITERATIONS
    assert default_of(init, "cache_size") == DEFAULT_CACHE_SIZE
    text = "reach(X, Y) :- edge(X, Y).\nedge(a, b).\n"
    plan, __ = build_plan(*split_edb(parse_program(text)), 1)
    worker = ShardWorker(
        {"shard": 0, "plan": plan.describe(), "program": text}
    )
    assert worker.session._max_iterations == DEFAULT_REWRITE_ITERATIONS
    assert worker.session._eval_iterations == DEFAULT_EVAL_ITERATIONS
    assert worker.session._cache.capacity == DEFAULT_CACHE_SIZE
