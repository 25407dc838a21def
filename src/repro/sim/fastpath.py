"""Fast-path simulation engine: table-driven sets, cached geometry.

The reference engine (``repro.cache``) executes each replacement policy
as a Python state machine and rediscovers the cache geometry (log2 of
line size and set count) on every access.  This module keeps the exact
control flow but removes the interpretive overhead:

* replacement policies become :class:`~repro.replacement.tables.TabledPolicy`
  instances — one interned int of state per set, transitions by table
  lookup (see ``repro.replacement.tables``);
* ``CacheSet.lookup``'s linear tag scan becomes a dict probe
  (:class:`FastCacheSet` maintains a tag -> way map across installs and
  invalidations);
* address decomposition uses shift/mask constants computed once at
  construction instead of per-access ``log2`` properties.

Policies that cannot be table-compiled (``random`` draws from an RNG
stream, ``partitioned-plru`` is domain-aware) silently fall back to
their reference implementations — still inside a :class:`FastCacheSet`,
so the tag-map speedup applies regardless.

Every plain cache level that :class:`~repro.cache.hierarchy.CacheHierarchy`,
:class:`~repro.sim.machine.Machine` and
:class:`~repro.cache.multicore.MultiCoreSystem` build is a
:class:`FastSetAssociativeCache`.  The reference classes in
``repro.cache`` stay the oracle: ``tests/test_perf`` drives both over
identical traces and requires bit-identical behaviour.  Multi-trial
entry points (:meth:`~repro.experiments.runner.ExperimentRunner.run_trials`,
the CLI's ``run --trials N``, the service's multi-trial ``run`` op)
additionally vectorize the per-trial axis over numpy arrays through
:mod:`repro.sim.batch`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.cache import FillResult, LookupResult, SetAssociativeCache
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.common.rng import RngLike
from repro.common.types import AccessType, MemoryAccess
from repro.replacement.tables import (
    TABLEABLE_POLICIES,
    TabledPolicy,
    compile_tables,
)


class FastCacheSet(CacheSet):
    """Cache set with an O(1) tag -> way map instead of a linear scan.

    The map is maintained by the install/invalidate mutations, which are
    the only operations that change tag residency.  Behaviour is
    bit-identical to :class:`~repro.cache.cache_set.CacheSet`: resident
    tags are unique (enforced by the cache control flow and checked by
    the sanitizer), so the map and the scan agree on every lookup.
    """

    __slots__ = ("_tag_map",)

    def __init__(self, ways: int, policy):
        super().__init__(ways, policy)
        self._tag_map: Dict[int, int] = {}

    def lookup(self, tag: int) -> Optional[int]:
        return self._tag_map.get(tag)

    def _install_line(
        self, way: int, tag: int, address: int, dirty: bool = False
    ) -> Optional[int]:
        # Body of CacheSet._install_line inlined (fills are the second
        # hottest operation), plus the map maintenance.
        tag_map = self._tag_map
        line = self.lines[way]
        if line.valid:
            evicted = line.address
            if tag_map.get(line.tag) == way:
                del tag_map[line.tag]
        else:
            evicted = None
        line.tag = tag
        line.valid = True
        line.dirty = dirty
        line.locked = False
        line.utag = None
        line.address = address
        tag_map[tag] = way
        return evicted

    def invalidate_tag(self, tag: int) -> Optional[int]:
        way = self._tag_map.pop(tag, None)
        if way is None:
            return None
        self.lines[way].invalidate()
        self.policy.invalidate(way)
        return way


class FastSetAssociativeCache(SetAssociativeCache):
    """Set-associative cache using tabled policies and cached geometry.

    Drop-in subclass of :class:`~repro.cache.cache.SetAssociativeCache`;
    only construction hooks and the address/lookup hot path differ.
    When the way predictor is active or a subclass overrides a hit-path
    hook, ``lookup`` defers to the reference control flow so the hooks
    keep their exact semantics.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: RngLike = None,
        way_predictor=None,
        index_function=None,
    ):
        # Every set shares one compiled table object, looked up once per
        # cache: the memo lookup binds the policy constructor's
        # signature, which per set dominated building large L2/LLC levels.
        self._tables = (
            compile_tables(config.policy, config.ways)
            if config.policy in TABLEABLE_POLICIES
            else None
        )
        super().__init__(
            config,
            rng=rng,
            way_predictor=way_predictor,
            index_function=index_function,
        )
        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._tag_shift = config.offset_bits + config.index_bits
        self._line_mask = ~(config.line_size - 1)
        self._update_on_hit = config.update_lru_on_hit
        # Preallocated results: lookups are pure reads of these, so one
        # immutable instance per outcome avoids 10^6s of allocations.
        self._miss_result = LookupResult(hit=False)
        self._hit_results = [
            LookupResult(hit=True, way=way) for way in range(config.ways)
        ]
        # CounterBank.record inlined on the hot path; the dicts are
        # stable (reset() clears them in place), so binding them once is
        # safe and saves a call per access.
        self._references = self.counters.references
        self._misses = self.counters.misses
        cls = type(self)
        no_lock_hook = (
            cls._apply_lock_request is SetAssociativeCache._apply_lock_request
        )
        self._plain_hit_path = (
            no_lock_hook
            and cls._update_hit_state is SetAssociativeCache._update_hit_state
            and cls._check_way_predictor
            is SetAssociativeCache._check_way_predictor
        )
        self._plain_fill_path = (
            no_lock_hook
            and cls._choose_victim is SetAssociativeCache._choose_victim
            and cls._update_fill_state
            is SetAssociativeCache._update_fill_state
        )
        if self._index_fn is not None:
            # The inlined hot paths hard-code modulo indexing; a keyed
            # index function must flow through the reference control
            # flow (whose _locate consults it) or it would be silently
            # ignored.
            self._plain_hit_path = False
            self._plain_fill_path = False

    def _make_policy(self, index: int):
        if self._tables is not None:
            # Per-set state is just the interned index inside the
            # TabledPolicy.
            return TabledPolicy(self.config.ways, tables=self._tables)
        return super()._make_policy(index)

    @staticmethod
    def _make_set(ways: int, policy) -> CacheSet:
        return FastCacheSet(ways, policy)

    def _locate(self, address: int):
        fn = self._index_fn
        if fn is not None:
            return self.sets[fn.index(address)], address >> self._offset_bits
        return (
            self.sets[(address >> self._offset_bits) & self._index_mask],
            address >> self._tag_shift,
        )

    def lookup(self, access: MemoryAccess, count: bool = True) -> LookupResult:
        if self.way_predictor is not None or not self._plain_hit_path:
            return super().lookup(access, count=count)
        address = access.address
        cache_set = self.sets[(address >> self._offset_bits) & self._index_mask]
        way = cache_set._tag_map.get(address >> self._tag_shift)
        if way is None:
            if count:
                self._references[access.thread_id] += 1
                self._misses[access.thread_id] += 1
            return self._miss_result
        if self._update_on_hit:
            # Same transition as CacheSet.touch(way, is_fill=False),
            # without re-resolving the optional on_fill attribute.
            cache_set.policy.touch(way)
        if count:
            self._references[access.thread_id] += 1
        return self._hit_results[way]

    def fill(self, access: MemoryAccess) -> FillResult:
        if self.way_predictor is not None or not self._plain_fill_path:
            return super().fill(access)
        address = access.address
        cache_set = self.sets[(address >> self._offset_bits) & self._index_mask]
        if len(cache_set._tag_map) == cache_set.ways:
            # Set is full: ask the policy (valid-mask construction and
            # the invalid-way scan would both be wasted work).
            victim = cache_set.policy.victim(None)
        else:
            # Hardware fills the lowest-index invalid way first.
            victim = next(
                way
                for way, line in enumerate(cache_set.lines)
                if not line.valid
            )
        evicted = cache_set.install(
            victim,
            address >> self._tag_shift,
            address & self._line_mask,
            dirty=access.access_type == AccessType.STORE,
        )
        # CacheSet.touch(victim, is_fill=True) with one less call frame.
        policy = cache_set.policy
        on_fill = getattr(policy, "on_fill", None)
        if on_fill is not None:
            on_fill(victim)
        else:
            policy.touch(victim)
        return FillResult(evicted_address=evicted)

    def probe(self, address: int) -> bool:
        if self._index_fn is not None:
            cache_set, tag = self._locate(address)
            return cache_set.lookup(tag) is not None
        cache_set = self.sets[(address >> self._offset_bits) & self._index_mask]
        return cache_set.lookup(address >> self._tag_shift) is not None
