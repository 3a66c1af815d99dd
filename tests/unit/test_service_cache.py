"""The form cache: LRU behavior, counters, warm-state retention."""

import pytest

from repro.lang.parser import parse_query
from repro.service.cache import (
    CacheEntry,
    FormCache,
    MAX_WARM_DERIVED_FACTS,
)
from repro.service.forms import canonicalize
from repro.service.session import WarmState


def form(text: str):
    return canonicalize(parse_query(text))[0]


def entry():
    return object()  # the cache never inspects the compiled artifact


class TestLRU:
    def test_miss_then_hit(self):
        cache = FormCache(capacity=2)
        f = form("?- p(a, X).")
        assert cache.get(f) is None
        stored = cache.put(f, entry())
        assert cache.get(f) is stored
        assert (cache.hits, cache.misses) == (1, 1)

    def test_capacity_evicts_least_recently_used(self):
        cache = FormCache(capacity=2)
        f1, f2, f3 = (
            form("?- p(a, X)."),
            form("?- q(a, X)."),
            form("?- r(a, X)."),
        )
        cache.put(f1, entry())
        cache.put(f2, entry())
        cache.get(f1)          # refresh f1; f2 becomes LRU
        cache.put(f3, entry())
        assert f1 in cache and f3 in cache and f2 not in cache
        assert cache.evictions == 1

    def test_same_form_different_constants_single_entry(self):
        cache = FormCache(capacity=4)
        cache.put(form("?- p(a, X)."), entry())
        assert cache.get(form("?- p(b, X).")) is not None
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FormCache(capacity=0)


class _Facts:
    """A stand-in warm database holding ``count()`` facts."""

    def __init__(self, stored: int) -> None:
        self.stored = stored

    def count(self) -> int:
        return self.stored


class TestWarmStates:
    def make_state(self, epoch=0, seeds=0, stored=10):
        return WarmState(
            database=_Facts(stored), last_stamp=3, epoch=epoch,
            seeds=seeds,
        )

    def test_one_state_per_entry(self):
        cache = FormCache(capacity=4)
        cached = cache.put(form("?- p(a, X)."), entry())
        assert cached.warm is None
        assert cache.stats()["warm_states"] == 0
        first, second = self.make_state(), self.make_state(epoch=1)
        cached.warm = first
        assert cache.stats()["warm_states"] == 1
        cached.warm = second                     # replaces, never adds
        assert cached.warm is second
        assert cache.stats()["warm_states"] == 1

    def test_drop_warm(self):
        cached = CacheEntry(compiled=None)
        cached.trim(base_facts=0)                # nothing to drop
        base = 7                                 # the EDB's share
        big = base + MAX_WARM_DERIVED_FACTS + 1
        # Under the ceiling, or holding at most one seed: kept.
        for state in (
            self.make_state(seeds=5, stored=big - 1),
            self.make_state(seeds=0, stored=big),
            self.make_state(seeds=1, stored=big),
        ):
            cached.warm = state
            cached.trim(base)
            assert cached.warm is state
        cached.warm = self.make_state(seeds=2, stored=big)
        cached.trim(base)
        assert cached.warm is None
        cached.trim(base)                        # idempotent

    def test_min_warm_epoch(self):
        cache = FormCache(capacity=4)
        e1 = cache.put(form("?- p(a, X)."), entry())
        e2 = cache.put(form("?- q(a, X)."), entry())
        cache.put(form("?- r(a, X)."), entry())  # no state: no floor
        e1.warm = self.make_state(epoch=2)
        e2.warm = self.make_state(epoch=5)
        assert cache.min_warm_epoch(default=9) == 2
        e1.warm = None
        assert cache.min_warm_epoch(default=9) == 5
        assert FormCache(2).min_warm_epoch(default=9) == 9

    def test_stats_shape(self):
        cache = FormCache(capacity=4)
        cache.put(form("?- p(a, X)."), entry()).warm = self.make_state()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["warm_states"] == 1
        assert stats["capacity"] == 4
