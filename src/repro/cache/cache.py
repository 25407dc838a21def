"""Set-associative cache model.

This is the controller around :class:`repro.cache.cache_set.CacheSet`:
address decomposition, hit/miss determination, replacement-state updates,
fills, flushes, and performance counting.  Subclasses (PL cache, random
fill) override the small hook methods rather than the control flow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.cache.way_predictor import WayPredictor
from repro.common.compat import DATACLASS_SLOTS
from repro.common.rng import RngLike, make_rng, spawn_seed
from repro.common.types import AccessType, MemoryAccess
from repro.perf.counters import CounterBank
from repro.replacement import make_policy


@dataclass(**DATACLASS_SLOTS)
class LookupResult:
    """Outcome of probing a cache level for one access.

    Attributes:
        hit: Physical-tag hit at this level.
        way: The way that hit (None on miss).
        way_predictor_miss: The physical tag hit, but the AMD utag
            mismatched — observed latency is a miss latency.
    """

    hit: bool
    way: Optional[int] = None
    way_predictor_miss: bool = False


@dataclass(**DATACLASS_SLOTS)
class FillResult:
    """Outcome of filling a line after a miss.

    Attributes:
        evicted_address: Line displaced by the fill, if any.
        uncached: PL cache refused the replacement (victim locked) and
            served the access without caching it.
    """

    evicted_address: Optional[int] = None
    uncached: bool = False


class LazySets(dict):
    """A level's sets by index, each built the first time it is indexed.

    Most levels see a small fraction of their sets touched (a channel
    works one target set; an L2 of 2048 sets replays a few thousand
    accesses), so building every set up front dominated short runs.
    Indexing a built set is a plain dict lookup; a missing index calls
    :meth:`__missing__`, which builds the set, runs the ``on_build``
    hooks and stores it.  ``len`` is the level's set count and iteration
    visits every index in order, building the sets it reaches, so the
    container reads like the list it replaces.

    Args:
        count: Number of sets in the level.
        build: Called with an index; returns that index's new set.
    """

    __slots__ = ("_count", "_build", "on_build")

    def __init__(self, count: int, build: Callable[[int], CacheSet]):
        super().__init__()
        self._count = count
        self._build = build
        #: Callables run as ``hook(index, cache_set)`` on each new set,
        #: before any access reaches it (the sanitizer wraps sets here).
        self.on_build: List[Callable[[int, CacheSet], None]] = []

    def __missing__(self, index) -> CacheSet:
        position = operator.index(index)
        if position < 0:
            position += self._count
        if not 0 <= position < self._count:
            raise IndexError(f"set index {index} out of range")
        if position != index:
            return self[position]
        cache_set = self[position] = self._build(position)
        for hook in self.on_build:
            hook(position, cache_set)
        return cache_set

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[CacheSet]:
        for index in range(self._count):
            yield self[index]

    def built(self) -> List[Tuple[int, CacheSet]]:
        """``(index, set)`` for every set built so far, in index order."""
        return sorted(self.items())


class SetAssociativeCache:
    """A single cache level with per-set replacement policies.

    Args:
        config: Geometry, policy name, and behaviour flags.
        rng: Seed/RNG for stochastic policies (random replacement).
        way_predictor: Optional AMD utag model applied at this level.
        index_function: Optional keyed address->set mapping
            (:mod:`repro.cache.index`).  When set, tags widen to the
            full line address: with a keyed index the usual
            "tag = address minus index bits" split no longer guarantees
            that distinct lines landing in one set have distinct tags.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: RngLike = None,
        way_predictor: Optional[WayPredictor] = None,
        index_function=None,
    ):
        self.config = config
        self.way_predictor = way_predictor
        self._index_fn = index_function
        self.counters = CounterBank(level_name=config.name)
        # Per-set random-replacement streams are drawn now, in index
        # order, so a set's stream does not depend on when (or whether)
        # it is built, nor on what else draws from ``rng`` later.
        base_rng = make_rng(rng)
        self._set_seeds = (
            [spawn_seed(base_rng, f"set{i}") for i in range(config.num_sets)]
            if config.policy == "random"
            else None
        )
        self.sets = LazySets(config.num_sets, self._build_set)

    def _build_set(self, index: int) -> CacheSet:
        return self._make_set(self.config.ways, self._make_policy(index))

    def _make_policy(self, index: int):
        config = self.config
        if self._set_seeds is not None:
            return make_policy(
                config.policy,
                config.ways,
                rng=make_rng(self._set_seeds[index]),
            )
        return make_policy(config.policy, config.ways)

    @staticmethod
    def _make_set(ways: int, policy) -> CacheSet:
        """Set-construction hook; the fast engine substitutes its own."""
        return CacheSet(ways, policy)

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------

    def lookup(self, access: MemoryAccess, count: bool = True) -> LookupResult:
        """Probe for a hit and perform all hit-path state updates.

        On a hit this updates the replacement state (unless configured or
        locked out — see :meth:`_update_hit_state`), lock bits, and the
        way-predictor utag.  On a miss it performs no update; the caller
        is expected to follow with :meth:`fill` once the data arrives.
        """
        cache_set, tag = self._locate(access.address)
        way = cache_set.lookup(tag)
        if way is None:
            if count:
                self.counters.record(access.thread_id, miss=True)
            return LookupResult(hit=False)

        predictor_miss = self._check_way_predictor(cache_set, way, access)
        self._apply_lock_request(cache_set, way, access)
        self._update_hit_state(cache_set, way, access)
        if count:
            # A way-predictor miss is *observed* as a miss but the data
            # was resident; hardware L1D miss counters do not count it
            # as a demand miss, and neither do we.
            self.counters.record(access.thread_id, miss=False)
        return LookupResult(hit=True, way=way, way_predictor_miss=predictor_miss)

    def probe(self, address: int) -> bool:
        """Side-effect-free presence check (test/assertion helper)."""
        cache_set, tag = self._locate(address)
        return cache_set.lookup(tag) is not None

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------

    def fill(self, access: MemoryAccess) -> FillResult:
        """Bring the accessed line into this level after a miss."""
        cache_set, tag = self._locate(access.address)
        victim = self._choose_victim(cache_set, access)
        if victim is None:
            # PL cache with a locked victim: serve uncached.
            return FillResult(uncached=True)
        evicted = cache_set.install(
            victim,
            tag,
            self.config.line_address(access.address),
            dirty=access.access_type == AccessType.STORE,
        )
        self._apply_lock_request(cache_set, victim, access)
        self._set_utag(cache_set, victim, access)
        self._update_fill_state(cache_set, victim, access)
        return FillResult(evicted_address=evicted)

    def flush(self, address: int) -> bool:
        """Invalidate the line holding ``address``; True if it was here."""
        cache_set, tag = self._locate(address)
        return cache_set.invalidate_tag(tag) is not None

    # ------------------------------------------------------------------
    # Hooks for secure-cache subclasses
    # ------------------------------------------------------------------

    def _choose_victim(
        self, cache_set: CacheSet, access: MemoryAccess
    ) -> Optional[int]:
        """Pick the way to replace; None means serve uncached."""
        del access
        return cache_set.choose_victim()

    def _update_hit_state(
        self, cache_set: CacheSet, way: int, access: MemoryAccess
    ) -> None:
        """Replacement-state update on a hit — the leaking transition."""
        del access
        if self.config.update_lru_on_hit:
            cache_set.touch(way, is_fill=False)

    def _update_fill_state(
        self, cache_set: CacheSet, way: int, access: MemoryAccess
    ) -> None:
        del access
        cache_set.touch(way, is_fill=True)

    def _apply_lock_request(
        self, cache_set: CacheSet, way: int, access: MemoryAccess
    ) -> None:
        """Lock/unlock bits are PL-cache features; base caches ignore them."""
        del cache_set, way, access

    # ------------------------------------------------------------------
    # Way predictor (AMD utag)
    # ------------------------------------------------------------------

    def _check_way_predictor(
        self, cache_set: CacheSet, way: int, access: MemoryAccess
    ) -> bool:
        """Return True when the utag mispredicts; also retrains the utag.

        After the mispredicted load completes via the physical-tag path,
        hardware installs the new linear address's utag, so a *second*
        access from the same space hits at full speed — modeled by
        overwriting the stored utag here.
        """
        if self.way_predictor is None:
            return False
        line = cache_set.lines[way]
        expected = self.way_predictor.utag(access.address_space, access.address)
        if line.utag is None:
            line.utag = expected
            line.owner_space = access.address_space
            return False
        if line.utag == expected:
            return False
        line.utag = expected
        line.owner_space = access.address_space
        return True

    def _set_utag(
        self, cache_set: CacheSet, way: int, access: MemoryAccess
    ) -> None:
        if self.way_predictor is None:
            return
        line = cache_set.lines[way]
        line.utag = self.way_predictor.utag(access.address_space, access.address)
        line.owner_space = access.address_space

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _locate(self, address: int):
        fn = self._index_fn
        if fn is not None:
            return self.sets[fn.index(address)], address >> self.config.offset_bits
        index = self.config.set_index(address)
        return self.sets[index], self.config.tag(address)

    def index_of(self, address: int, way: int = 0) -> int:
        """Set index of ``address`` under this cache's index function."""
        if self._index_fn is not None:
            return self._index_fn.index(address, way)
        return self.config.set_index(address)

    def set_for(self, address: int) -> CacheSet:
        """The set an address maps to (white-box test helper)."""
        return self.sets[self.index_of(address)]

    def contents(self) -> Dict[int, List[int]]:
        """Mapping set index -> resident line addresses."""
        contents = {}
        for index, cache_set in self.sets.built():
            resident = cache_set.resident_addresses()
            if resident:
                contents[index] = resident
        return contents

    def reset_counters(self) -> None:
        self.counters.reset()

    def __repr__(self) -> str:
        c = self.config
        return (
            f"{type(self).__name__}({c.name}: {c.size}B, {c.ways}-way, "
            f"{c.num_sets} sets, {c.policy})"
        )
