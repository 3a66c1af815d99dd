"""Unit tests of the bounded solver memo (repro.constraints.cache).

Covers the cache mechanics in isolation -- LRU eviction at the size
bound, exact hit/miss accounting against scripted access patterns, the
obs counter seam, the ``REPRO_CONSTRAINT_CACHE`` environment contract
-- and the *poisoned-cache self-check*: with deliberate memo
corruption armed, the conformance differ (whose oracle shares no code
with the engine) must flag the divergence.  That last test is the
evidence that a real cache-invalidation bug could not ship silently
past CI.
"""

import pytest

from repro import obs
from repro.conformance import case_from_text, check_case
from repro.constraints import cache as solver_cache
from repro.constraints.atom import Atom
from repro.constraints.cache import SolverCache, _env_config
from repro.constraints.conjunction import Conjunction
from repro.constraints.linexpr import LinearExpr


@pytest.fixture(autouse=True)
def _pristine_global_cache():
    """Each test starts and ends with a clean, enabled global cache."""
    solver_cache.inject_fault(None)
    solver_cache.configure(enabled=True,
                           max_size=solver_cache.DEFAULT_MAX_SIZE)
    solver_cache.clear()
    solver_cache.CACHE.reset_stats()
    yield
    solver_cache.inject_fault(None)
    solver_cache.configure(enabled=True,
                           max_size=solver_cache.DEFAULT_MAX_SIZE)
    solver_cache.clear()
    solver_cache.CACHE.reset_stats()


class TestLruEviction:
    def test_never_exceeds_bound_and_counts_evictions(self):
        cache = SolverCache(max_size=8)
        for n in range(50):
            cache.lookup(("k", n), lambda n=n: n * n)
            assert len(cache) <= 8
        stats = cache.stats()
        assert stats["size"] == 8
        assert stats["evictions"] == 42
        assert stats["misses"] == 50
        assert stats["hits"] == 0

    def test_lru_order_recency_protects_entries(self):
        cache = SolverCache(max_size=2)
        cache.lookup("a", lambda: 1)
        cache.lookup("b", lambda: 2)
        cache.lookup("a", lambda: -1)   # refresh "a"
        cache.lookup("c", lambda: 3)    # evicts "b", not "a"
        assert cache.lookup("a", lambda: -1) == 1       # still cached
        assert cache.lookup("b", lambda: 20) == 20      # recomputed
        assert cache.stats()["evictions"] == 2

    def test_shrinking_via_configure_evicts_immediately(self):
        for n in range(10):
            solver_cache.lookup(("shrink", n), lambda n=n: n)
        assert len(solver_cache.CACHE) == 10
        solver_cache.configure(max_size=3)
        assert len(solver_cache.CACHE) == 3

    def test_evicted_entry_is_recomputed_not_wrong(self):
        cache = SolverCache(max_size=1)
        assert cache.lookup("x", lambda: "first") == "first"
        assert cache.lookup("y", lambda: "other") == "other"
        # "x" was evicted; a fresh compute must run (and be correct).
        assert cache.lookup("x", lambda: "first-again") == "first-again"


class TestHitMissAccounting:
    def test_scripted_pattern_matches_counters(self):
        cache = SolverCache(max_size=64)
        pattern = ["a", "b", "a", "a", "c", "b", "d", "a"]
        # misses: a, b, c, d = 4;  hits: a, a, b, a = 4
        for key in pattern:
            cache.lookup(key, lambda key=key: key.upper())
        stats = cache.stats()
        assert stats["misses"] == 4
        assert stats["hits"] == 4

    def test_obs_counters_mirror_hits_and_misses(self):
        tracer = obs.Tracer()
        with obs.recording(tracer):
            with obs.span("test"):
                for key in ["p", "q", "p", "p", "q", "r"]:
                    solver_cache.lookup(key, lambda key=key: key)
        counters = tracer.metrics.counters
        assert counters["constraint.cache_misses"] == 3
        assert counters["constraint.cache_hits"] == 3

    def test_disabled_cache_always_computes(self):
        solver_cache.configure(enabled=False)
        calls = []
        for __ in range(3):
            solver_cache.lookup("same", lambda: calls.append(1))
        assert len(calls) == 3
        assert solver_cache.stats()["size"] == 0

    def test_solver_results_hit_on_reuse(self):
        """End to end: a repeated projection is one miss then hits,
        and a hit runs no elimination (warm pass: 0 projections)."""
        x = LinearExpr({"X": 1, "Y": 1}, -3)
        conj = Conjunction(
            [Atom.make(x, "<=", LinearExpr.const(0)),
             Atom.make(LinearExpr({"Y": 1}, 0), ">=",
                       LinearExpr.const(1))]
        )
        solver_cache.CACHE.reset_stats()
        cold, warm = obs.Tracer(), obs.Tracer()
        with obs.recording(cold):
            first = conj.project({"X"})
        before = solver_cache.stats()
        with obs.recording(warm):
            second = conj.project({"X"})
        after = solver_cache.stats()
        assert second is first
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert cold.metrics.counters["constraint.projections"] > 0
        assert "constraint.projections" not in warm.metrics.counters
        assert warm.metrics.counters["constraint.cache_hits"] == 1


class TestEnvironmentContract:
    @pytest.mark.parametrize(
        "raw, enabled, size",
        [
            ("", True, solver_cache.DEFAULT_MAX_SIZE),
            ("1", True, solver_cache.DEFAULT_MAX_SIZE),
            ("on", True, solver_cache.DEFAULT_MAX_SIZE),
            ("0", False, solver_cache.DEFAULT_MAX_SIZE),
            ("off", False, solver_cache.DEFAULT_MAX_SIZE),
            ("4096", True, 4096),
            ("-3", False, solver_cache.DEFAULT_MAX_SIZE),
            ("garbage", True, solver_cache.DEFAULT_MAX_SIZE),
        ],
    )
    def test_env_parsing(self, monkeypatch, raw, enabled, size):
        monkeypatch.setenv("REPRO_CONSTRAINT_CACHE", raw)
        assert _env_config() == (enabled, size)

    def test_unknown_fault_mode_rejected(self):
        with pytest.raises(ValueError):
            solver_cache.inject_fault("made-up-mode")


# Constraint facts make the memoized projections *consequential*: the
# derived facts' constraints come straight out of ``project`` results,
# so a corrupted memo hit changes the answer set (a ground-only
# program would route everything through constant propagation and
# never expose the memo to the differ).
POISON_PROGRAM = """
limit(T) :- T >= 2, T <= 6.
good(T) :- limit(T), T <= 4.
pick(T, U) :- good(T), limit(U), U >= T.
?- pick(Q0, Q1).
"""


def _caught(result) -> bool:
    return bool(result.mismatches) or any(
        run.errored for run in result.runs.values()
    )


class TestPoisonedCacheSelfCheck:
    """A corrupted memo must not survive the conformance differ.

    The differ's oracle shares no code with the engine or the cache,
    so corrupted memo answers make some engine configuration disagree
    with it -- divergent answers or an internal error, both of which
    fail the case.  The case is checked twice without clearing the
    memo between: the first pass computes honestly on cache misses and
    warms the cache, the second pass answers from (poisoned) hits --
    exactly the warm-process profile of the serve path.  A corruption
    must be flagged on at least one of the two passes.
    """

    @pytest.mark.parametrize("mode", ["sat-flip", "drop-atom"])
    def test_differ_catches_poisoned_cache(self, mode):
        case = case_from_text(POISON_PROGRAM, label=f"poison-{mode}")
        try:
            solver_cache.inject_fault(mode)
            cold = check_case(case, configs=("oracle", "none", "rewrite"))
            warm = check_case(case, configs=("oracle", "none", "rewrite"))
        finally:
            solver_cache.inject_fault(None)
            solver_cache.clear()
        assert _caught(cold) or _caught(warm), (
            f"poisoned cache ({mode}) slipped through the differ: "
            f"cold={cold.summary()} warm={warm.summary()}"
        )

    def test_clean_cache_passes_same_case(self):
        """Control: the identical case agrees when the memo is honest,
        cold and warm."""
        case = case_from_text(POISON_PROGRAM, label="poison-control")
        cold = check_case(case, configs=("oracle", "none", "rewrite"))
        warm = check_case(case, configs=("oracle", "none", "rewrite"))
        assert cold.ok, cold.summary()
        assert warm.ok, warm.summary()
