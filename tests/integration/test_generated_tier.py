"""The conformance differ and the engine's count pins, every join generated.

A rule variant runs generated code only after it has enumerated
``ruleeval._HOT`` candidates, which the small programs of the tier-1
suite rarely reach.  This module sets the threshold to 0, so every
variant of every rule is generated on its first call, and then holds
the generated tier to what the interpreter is held to: the differ's
default configurations over the corpus and a fresh batch, and
``test_count_invariance``'s ``PINNED``/``WORK`` entries -- the same
values, not regenerated ones.
"""

import pytest

from repro import obs
from repro.conformance import case_from_text, check_case, generate_case
from repro.conformance.differ import DEFAULT_CONFIGS
from repro.engine import ruleeval
from tests.conformance.test_differential import CORPUS_CASES, _assert_agrees
from tests.integration import test_count_invariance as pins


@pytest.fixture(autouse=True)
def every_join_generated(monkeypatch):
    # A fresh plan memo: each test generates the joins it runs.
    ruleeval._compile.cache_clear()
    monkeypatch.setattr(ruleeval, "_HOT", 0)


@pytest.mark.parametrize("path", CORPUS_CASES, ids=lambda path: path.stem)
def test_corpus_case_agrees_generated(path):
    case = case_from_text(path.read_text(), label=path.name)
    _assert_agrees(check_case(case, configs=DEFAULT_CONFIGS))


@pytest.mark.parametrize("seed", range(0, 40))
def test_generated_case_agrees_generated(seed):
    _assert_agrees(check_case(generate_case(seed), configs=DEFAULT_CONFIGS))


@pytest.mark.parametrize("case,strategy", sorted(pins.PINNED))
def test_count_pins_hold_generated(case, strategy):
    tracer = obs.Tracer()
    with obs.recording(tracer):
        derived, work = pins._observe(case, strategy)
    assert tracer.metrics.counters["engine.joins_generated"] > 0
    assert derived == pins.PINNED[(case, strategy)]
    assert work == pins.WORK[(case, strategy)][:2]
