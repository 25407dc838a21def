"""Randomized set-index caches (paper Section IX-B; PAPERS.md addendum).

CEASER (Qureshi, the paper's reference [48]) encrypts line addresses
with a keyed function before indexing, so software cannot tell which
lines co-reside in a set.  The paper lists this family of defenses
("randomize the mapping between the addresses and the cache sets") as
effective against its channels for a structural reason: both LRU
algorithms begin with the sender and the receiver *agreeing on a target
set*, which requires predicting set indices from addresses.

Two designs live here, both built on the pluggable index functions of
:mod:`repro.cache.index`:

* :class:`RandomizedIndexCache` — CEASER: one keyed mapping for all
  ways, with deterministic epoch-based remapping (``remap()`` manually,
  or ``remap_period=N`` to re-key and flush every N lookups).
* :class:`SkewedAssociativeCache` — ScatterCache/skewed-associative:
  a different keyed mapping *per way* plus random-way replacement, so
  no stable eviction set of associativity size exists.

Within one epoch the CEASER mapping is still a fixed function, so an
attacker who can time candidate addresses can profile a congruent set
(:func:`congruent_addresses`) and rebuild the channel until the next
remap — the weakness the PAPERS.md addendum re-confirms, and the reason
the evaluation matrix in ``docs/DEFENSES.md`` distinguishes "naive"
from "profiled" attackers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache import FillResult, LookupResult, SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.index import KeyedIndex, SkewedIndex, epoch_key
from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.common.types import AccessType, MemoryAccess


def _master_key(rng: RngLike, key: Optional[int]) -> int:
    """Resolve the epoch-0 master key from an explicit key or a seed."""
    if key is not None:
        return key | 1
    return make_rng(rng).getrandbits(64) | 1


def congruent_addresses(
    cache: SetAssociativeCache,
    target_set: int,
    count: int,
    way: int = 0,
    tag_base: int = 0,
    scan_limit: int = 1 << 20,
) -> List[int]:
    """Addresses that map to ``target_set`` under the cache's current key.

    Models the within-epoch profiling step of a CEASER attacker: time a
    pool of candidate addresses against a primed victim set, keep the
    ones that conflict.  Here we shortcut the timing and read the index
    function directly — the *result* (a congruent set valid until the
    next remap) is the same, and deterministic for a given key.

    Args:
        cache: Any cache exposing ``index_of`` (keyed or not).
        target_set: Set index to collect addresses for.
        count: How many congruent addresses to return.
        way: Way whose mapping to profile (skewed designs only).
        tag_base: First line address (in lines) to scan from; lets
            callers carve disjoint address pools.
        scan_limit: Safety bound on lines scanned.
    """
    line_size = cache.config.line_size
    found: List[int] = []
    for line in range(tag_base, tag_base + scan_limit):
        address = line * line_size
        if cache.index_of(address, way) == target_set:
            found.append(address)
            if len(found) == count:
                return found
    raise ConfigurationError(
        f"found only {len(found)}/{count} congruent addresses for set "
        f"{target_set} within {scan_limit} lines"
    )


class RandomizedIndexCache(SetAssociativeCache):
    """CEASER: set-associative cache with a keyed address->set mapping.

    Args:
        config: Geometry; the ``policy`` may still be an LRU variant —
            the defense works by hiding the set mapping, not by
            changing the replacement policy.
        rng: Seeds the master index key (when ``key`` is not given) and
            stochastic policies.
        key: Explicit epoch-0 master key; overrides the seeded draw so
            mappings can be pinned independently of policy RNG state.
        remap_period: When > 0, re-key and flush every this many
            lookups (CEASER's periodic re-encryption).  Epoch keys are
            *derived* from the master key (:func:`repro.cache.index
            .epoch_key`), never drawn from a stream, so remap
            boundaries are bit-identical under checkpoint resume.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: RngLike = None,
        key: Optional[int] = None,
        remap_period: int = 0,
    ):
        if remap_period < 0:
            raise ConfigurationError(
                f"remap_period must be >= 0, got {remap_period}"
            )
        master = _master_key(rng, key)
        super().__init__(
            config,
            rng=rng,
            index_function=KeyedIndex(config, epoch_key(master, 0)),
        )
        self._master = master
        self._remap_period = remap_period
        self._lookups_this_epoch = 0
        self.epoch = 0

    @property
    def _key(self) -> int:
        """Current epoch key (kept for white-box tests/back-compat)."""
        return self._index_fn.key

    def _scrambled_index(self, address: int) -> int:
        """Keyed index of ``address`` under the current epoch key."""
        return self._index_fn.index(address)

    def lookup(self, access: MemoryAccess, count: bool = True) -> LookupResult:
        if self._remap_period:
            self._lookups_this_epoch += 1
            if self._lookups_this_epoch > self._remap_period:
                self.remap()
                self._lookups_this_epoch = 1
        return super().lookup(access, count=count)

    def remap(self) -> None:
        """Start a new epoch: re-key deterministically and flush."""
        self.epoch += 1
        self._lookups_this_epoch = 0
        self._index_fn.rekey(epoch_key(self._master, self.epoch))
        for _, cache_set in self.sets.built():
            for line in cache_set.lines:
                line.invalidate()


class SkewedAssociativeCache(SetAssociativeCache):
    """Skewed-associative / ScatterCache: per-way keyed mappings.

    Each way ``w`` indexes through its own keyed function, so a line's
    candidate location is ``(set f_w(addr), way w)`` — one slot per way,
    scattered across sets.  Replacement picks a uniformly random way
    (ScatterCache's policy): with no shared set there is no per-set
    recency state for the LRU channel to modulate, and no stable
    eviction set for a Prime+Probe-style receiver to build.

    The per-set replacement policies constructed by the base class are
    left untouched; ``contents`` and the counters keep working.

    Args:
        config: Geometry (``policy`` is irrelevant — replacement is
            random-way by design).
        rng: Seeds the master key (when ``key`` is not given) and the
            victim-way stream.
        key: Explicit master key for the per-way index functions.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: RngLike = None,
        key: Optional[int] = None,
    ):
        base_rng = make_rng(rng)
        master = key | 1 if key is not None else base_rng.getrandbits(64) | 1
        super().__init__(
            config,
            rng=rng,
            index_function=SkewedIndex(config, epoch_key(master, 0), config.ways),
        )
        self._master = master
        self._victim_rng = spawn_rng(base_rng, "skew-victim")
        self.epoch = 0

    # The one-set-per-way layout breaks the CacheSet tag->way contract,
    # so the whole access path is reimplemented over raw lines.

    def _find(self, address: int):
        """(set_index, way) holding ``address``'s line, or None."""
        fn = self._index_fn
        tag = address >> self.config.offset_bits
        for way in range(self.config.ways):
            index = fn.index(address, way)
            line = self.sets[index].lines[way]
            if line.valid and line.tag == tag:
                return index, way
        return None

    def lookup(self, access: MemoryAccess, count: bool = True) -> LookupResult:
        found = self._find(access.address)
        if found is None:
            if count:
                self.counters.record(access.thread_id, miss=True)
            return LookupResult(hit=False)
        if count:
            self.counters.record(access.thread_id, miss=False)
        # No replacement-state touch: random-way replacement keeps no
        # recency state, which is precisely why the LRU channel dies.
        return LookupResult(hit=True, way=found[1])

    def fill(self, access: MemoryAccess) -> FillResult:
        address = access.address
        way = self._victim_rng.randrange(self.config.ways)
        index = self._index_fn.index(address, way)
        evicted = self.sets[index].install(
            way,
            address >> self.config.offset_bits,
            self.config.line_address(address),
            dirty=access.access_type == AccessType.STORE,
        )
        return FillResult(evicted_address=evicted)

    def probe(self, address: int) -> bool:
        return self._find(address) is not None

    def flush(self, address: int) -> bool:
        found = self._find(address)
        if found is None:
            return False
        self.sets[found[0]].lines[found[1]].invalidate()
        return True

    def set_for(self, address: int):
        """Way-0 set (skewed caches have no single set per address)."""
        return self.sets[self._index_fn.index(address, 0)]

    def remap(self) -> None:
        """Re-key every way's mapping and flush (epoch rotation)."""
        self.epoch += 1
        self._index_fn.rekey(epoch_key(self._master, self.epoch))
        for _, cache_set in self.sets.built():
            for line in cache_set.lines:
                line.invalidate()
