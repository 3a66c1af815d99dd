"""A bounded LRU cache of compiled query forms.

One entry per compile key (:func:`~repro.service.forms.compile_key`)
holds the compiled (seed-less) program template plus its warm evaluated
database, when one exists; every query form with that key shares both.
Eviction drops both -- the warm database is only reachable through its
entry, so LRU order doubles as the warm-state retention policy.

Counters: ``service.cache_hits`` / ``service.cache_misses`` on lookup,
``service.cache_evictions`` when capacity forces an entry out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterator

from repro.config import DEFAULT_CACHE_SIZE
from repro.obs.recorder import count as obs_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.session import CompiledForm, WarmState

#: Derived facts a form's warm database may hold once it has absorbed
#: more than one magic seed (:meth:`CacheEntry.trim`).  A stored fact
#: measures 0.8-1.0 KiB (flights under ``optimal``, tracemalloc over 24
#: and 36 accumulated seeds), so a form stays under ~20 MiB; the
#: ruler's ``session-seeds`` form holds 320 for its 24 seed pairs.
MAX_WARM_DERIVED_FACTS = 20_000


@dataclass
class CacheEntry:
    """A cached compiled form plus its one warm state (or ``None``).

    ``lock`` serializes *evaluation* against this entry: concurrent
    requests for its compile key take it around their warm-state
    lookup, (re-)evaluation, and answer extraction, so two threads can
    never resume the same warm database at once (requests for different
    keys proceed in parallel).
    """

    compiled: "CompiledForm"
    warm: "WarmState | None" = None
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: The adaptive planner's measurements of the last form served
    #: (:class:`repro.planner.adaptive.PlanRecord`), when the session
    #: runs with the ``auto`` strategy.
    plan_record: object = field(
        default=None, repr=False, compare=False
    )

    def trim(self, base_facts: int) -> None:
        """Drop a state past the ceiling; the next request rebuilds cold.

        ``base_facts`` is the EDB's share of the stored facts.
        Generational: without provenance no fact can be attributed to
        the seed that needed it, so nothing partial can go.  At most
        one seed (every seed-less strategy) is exempt: a rebuild would
        reproduce the same database.
        """
        state = self.warm
        if state is not None and state.seeds > 1 and (
            state.database.count() - base_facts > MAX_WARM_DERIVED_FACTS
        ):
            self.warm = None


class FormCache:
    """Least-recently-used mapping from compile keys to cache entries."""

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def entries(self) -> Iterator[CacheEntry]:
        """The live entries, least recently used first."""
        return iter(self._entries.values())

    def peek(self, key: Hashable) -> CacheEntry | None:
        """Look a key up without touching recency or hit/miss counts.

        The double-checked re-lookup of the session's compile
        single-flight: a request that lost the compile race must find
        the winner's entry without double-counting the miss.
        """
        return self._entries.get(key)

    def get(self, key: Hashable) -> CacheEntry | None:
        """Look a key up, refreshing its recency; counts hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs_count("service.cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs_count("service.cache_hits")
        return entry

    def put(self, key: Hashable, compiled: "CompiledForm") -> CacheEntry:
        """Insert a fresh compile under its key, evicting the LRU if full."""
        entry = CacheEntry(compiled)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs_count("service.cache_evictions")
        return entry

    def min_warm_epoch(self, default: int) -> int:
        """The oldest fact epoch any warm state still needs."""
        epochs = [
            entry.warm.epoch
            for entry in self._entries.values()
            if entry.warm is not None
        ]
        return min(epochs, default=default)

    def stats(self) -> dict:
        """Counters and occupancy for :meth:`Engine.stats`."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "warm_states": sum(
                entry.warm is not None
                for entry in self._entries.values()
            ),
        }
