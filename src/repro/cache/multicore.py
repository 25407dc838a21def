"""Two-core system with private L1/L2 and a shared LLC.

The paper's L1 channels need SMT or time-sliced co-residency on one
core (Section III).  Its footnote 1 observes that replacement-state
channels exist at other levels too — and at the LLC the sharing
requirement relaxes to *same socket*, since the LLC is shared across
cores.  This module provides the substrate for that cross-core variant:
each core owns an L1D and L2; all cores share one LLC (whose
replacement state is the channel medium) and memory.

A sender on core 0 can only reach the LLC's replacement state through
its own L1/L2 *misses* — exactly the paper's point about why the L1
channel is stealthier than any lower-level channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.common.types import AccessOutcome, AccessType, CacheLevel, MemoryAccess


@dataclass(frozen=True)
class MultiCoreConfig:
    """Geometry of the shared-LLC system.

    Defaults model one socket of the paper's E5-2690: per-core 32 KiB
    L1D and 256 KiB L2, a 2 MiB LLC slice with SRRIP, ~40-cycle LLC and
    ~200-cycle memory latency.
    """

    cores: int = 2
    l1: CacheConfig = CacheConfig(
        name="L1D", size=32 * 1024, ways=8, line_size=64,
        policy="tree-plru", hit_latency=4.0,
    )
    l2: CacheConfig = CacheConfig(
        name="L2", size=256 * 1024, ways=8, line_size=64,
        policy="tree-plru", hit_latency=12.0,
    )
    llc: CacheConfig = CacheConfig(
        name="LLC", size=2 * 1024 * 1024, ways=16, line_size=64,
        policy="srrip", hit_latency=40.0,
    )
    memory_latency: float = 200.0
    flush_latency: float = 250.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if not (
            self.l1.hit_latency
            < self.l2.hit_latency
            < self.llc.hit_latency
            < self.memory_latency
        ):
            raise ConfigurationError("latencies must increase down the levels")


class _CoreCaches:
    """One core's private cache levels."""

    def __init__(self, core_id: int, config: MultiCoreConfig, rng):
        # Imported lazily: repro.sim.fastpath subclasses the cache layer,
        # so a top-level import here would be circular.
        from repro.sim.fastpath import FastSetAssociativeCache

        self.core_id = core_id
        self.l1 = FastSetAssociativeCache(
            config.l1, rng=spawn_rng(rng, f"l1{core_id}")
        )
        self.l2 = FastSetAssociativeCache(
            config.l2, rng=spawn_rng(rng, f"l2{core_id}")
        )


class MultiCoreSystem:
    """N cores with private L1/L2 sharing one LLC.

    Args:
        config: System geometry.
        rng: Seed for stochastic policies at any level.

    Every level is a table-driven
    :class:`~repro.sim.fastpath.FastSetAssociativeCache`, the same class
    :class:`~repro.cache.hierarchy.CacheHierarchy` builds.
    """

    def __init__(self, config: MultiCoreConfig = MultiCoreConfig(), rng: RngLike = None):
        from repro.sim.fastpath import FastSetAssociativeCache

        self.config = config
        base_rng = make_rng(rng)
        self.cores: List[_CoreCaches] = [
            _CoreCaches(i, config, base_rng) for i in range(config.cores)
        ]
        self.llc = FastSetAssociativeCache(
            config.llc, rng=spawn_rng(base_rng, "llc")
        )

    def _core(self, core_id: int) -> _CoreCaches:
        if not 0 <= core_id < len(self.cores):
            raise ConfigurationError(f"core {core_id} out of range")
        return self.cores[core_id]

    def access(
        self, core_id: int, access: MemoryAccess, count: bool = True
    ) -> AccessOutcome:
        """Send one access through a core's private levels, then the LLC."""
        if access.access_type == AccessType.FLUSH:
            return self._flush(access)
        core = self._core(core_id)
        if core.l1.lookup(access, count=count).hit:
            return AccessOutcome(
                access=access, hit_level=CacheLevel.L1,
                latency=self.config.l1.hit_latency,
            )
        if core.l2.lookup(access, count=count).hit:
            core.l1.fill(access)
            return AccessOutcome(
                access=access, hit_level=CacheLevel.L2,
                latency=self.config.l2.hit_latency,
            )
        if self.llc.lookup(access, count=count).hit:
            core.l2.fill(access)
            fill = core.l1.fill(access)
            return AccessOutcome(
                access=access, hit_level=CacheLevel.LLC,
                latency=self.config.llc.hit_latency,
                evicted_address=fill.evicted_address,
            )
        llc_fill = self.llc.fill(access)
        if llc_fill.evicted_address is not None:
            # Inclusive LLC: back-invalidate the victim everywhere.
            self._back_invalidate(llc_fill.evicted_address)
        core.l2.fill(access)
        fill = core.l1.fill(access)
        return AccessOutcome(
            access=access, hit_level=CacheLevel.MEMORY,
            latency=self.config.memory_latency,
            evicted_address=fill.evicted_address,
        )

    def _back_invalidate(self, address: int) -> None:
        for core in self.cores:
            core.l1.flush(address)
            core.l2.flush(address)

    def _flush(self, access: MemoryAccess) -> AccessOutcome:
        self._back_invalidate(access.address)
        self.llc.flush(access.address)
        return AccessOutcome(
            access=access, hit_level=CacheLevel.MEMORY,
            latency=self.config.flush_latency,
        )

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def load(
        self,
        core_id: int,
        address: int,
        thread_id: Optional[int] = None,
        address_space: Optional[int] = None,
        count: bool = True,
    ) -> AccessOutcome:
        """Shorthand load; thread/space default to the core id."""
        return self.access(
            core_id,
            MemoryAccess(
                address=address,
                thread_id=core_id if thread_id is None else thread_id,
                address_space=core_id if address_space is None else address_space,
            ),
            count=count,
        )

    def evict_private(self, core_id: int, address: int) -> None:
        """Drop a line from a core's private levels, keeping the LLC copy.

        Models the sender's self-eviction (or natural L1/L2 turnover)
        that the LLC channel *requires* before every encode — the
        stealth cost relative to the L1 channel.
        """
        core = self._core(core_id)
        core.l1.flush(address)
        core.l2.flush(address)

    def counters(self) -> List:
        banks = []
        for core in self.cores:
            banks.extend([core.l1.counters, core.l2.counters])
        banks.append(self.llc.counters)
        return banks
