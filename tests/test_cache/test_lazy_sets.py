"""Sets built on first touch behave exactly like sets built up front.

``SetAssociativeCache.sets`` builds each set the first time it is
indexed.  These tests drive two copies of every level class over one
random trace, one left lazy and one with every set built right after
construction (iterating the container builds each set), and require
identical outcomes, contents, policy state and set counts.  For
``random``-policy levels they also pin each set's stream to the
``spawn_rng(base, "set<i>")`` derivation, drawn in index order at
construction.
"""

import random

import pytest

from repro.analysis.proxies import SanitizingPolicy
from repro.analysis.sanitize import sanitize_hierarchy
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.pl_cache import PLCache
from repro.cache.random_fill import RandomFillCache
from repro.cache.randomized_index import (
    RandomizedIndexCache,
    SkewedAssociativeCache,
)
from repro.common.errors import InvariantViolation
from repro.common.rng import spawn_rng
from repro.common.types import AccessType, MemoryAccess
from repro.sim.fastpath import FastSetAssociativeCache

SETS = 64
WAYS = 4

LEVELS = {
    "fast": lambda config, rng: FastSetAssociativeCache(config, rng=rng),
    "pl": lambda config, rng: PLCache(config, rng=rng),
    "pl-lock-lru": lambda config, rng: PLCache(config, lock_lru=True, rng=rng),
    "random-fill": lambda config, rng: RandomFillCache(config, window=4, rng=rng),
    "ceaser": lambda config, rng: RandomizedIndexCache(
        config, rng=rng, remap_period=300
    ),
    "skewed": lambda config, rng: SkewedAssociativeCache(config, rng=rng),
}


def _config(policy):
    return CacheConfig(
        name="L1D", size=SETS * WAYS * 64, ways=WAYS, line_size=64, policy=policy
    )


def _pair(level, policy, seed=7):
    """(lazy, built up front) copies, each seeded from its own shared RNG."""
    config = _config(policy)
    lazy = LEVELS[level](config, random.Random(seed))
    eager = LEVELS[level](config, random.Random(seed))
    list(eager.sets)
    return lazy, eager


def _trace(seed, length=1500):
    """Loads, stores, locks, unlocks and flushes over 16 of the 64 sets'
    worth of modulo-indexed lines, with enough reuse to evict."""
    rng = random.Random(seed)
    lines = [s + SETS * k for s in range(16) for k in range(WAYS + 2)]
    trace = []
    for _ in range(length):
        roll = rng.random()
        trace.append(
            MemoryAccess(
                address=rng.choice(lines) * 64,
                access_type=AccessType.FLUSH
                if roll < 0.03
                else AccessType.STORE
                if roll < 0.25
                else AccessType.LOAD,
                thread_id=rng.randrange(2),
                locked=0.25 <= roll < 0.30,
                unlock=0.30 <= roll < 0.33,
            )
        )
    return trace


def _drive(cache, trace):
    outcomes = []
    for access in trace:
        if access.access_type == AccessType.FLUSH:
            outcomes.append(("flush", cache.flush(access.address)))
            continue
        result = cache.lookup(access)
        if result.hit:
            outcomes.append(("hit", result.way, result.way_predictor_miss))
        else:
            fill = cache.fill(access)
            outcomes.append(("miss", fill.evicted_address, fill.uncached))
    return outcomes


@pytest.mark.parametrize("policy", ["tree-plru", "lru", "random"])
@pytest.mark.parametrize("level", sorted(LEVELS))
def test_built_on_touch_matches_built_up_front(level, policy):
    lazy, eager = _pair(level, policy)
    trace = _trace(seed=len(level) * 31 + len(policy))
    assert _drive(lazy, trace) == _drive(eager, trace)
    assert lazy.contents() == eager.contents()
    assert lazy.counters.references == eager.counters.references
    assert lazy.counters.misses == eager.counters.misses
    assert len(lazy.sets) == len(eager.sets) == SETS
    assert [s.snapshot() for s in lazy.sets] == [s.snapshot() for s in eager.sets]
    if policy == "random":
        assert [s.policy._rng.getstate() for s in lazy.sets] == [
            s.policy._rng.getstate() for s in eager.sets
        ]


def test_random_policy_streams_follow_index_order():
    config = _config("random")
    base = random.Random(7)
    expected = [spawn_rng(base, f"set{i}").getstate() for i in range(SETS)]
    shared = random.Random(7)
    cache = FastSetAssociativeCache(config, rng=shared)
    # The shared stream advanced by exactly one draw per set at
    # construction, whatever is built later.
    assert shared.getstate() == base.getstate()
    built = {i: cache.sets[i].policy._rng.getstate() for i in reversed(range(SETS))}
    assert [built[i] for i in range(SETS)] == expected


def test_untouched_sets_are_never_built():
    cache = FastSetAssociativeCache(_config("tree-plru"), rng=1)
    assert cache.sets.built() == []
    assert cache.contents() == {}
    for address in (0, 64, 64 * SETS, 64 * 5):
        if not cache.lookup(MemoryAccess(address=address)).hit:
            cache.fill(MemoryAccess(address=address))
    assert [index for index, _ in cache.sets.built()] == [0, 1, 5]
    assert cache.contents() == {0: [0, 64 * SETS], 1: [64], 5: [320]}
    assert len(cache.sets) == SETS


def test_indexing_behaves_like_a_list():
    cache = FastSetAssociativeCache(_config("tree-plru"), rng=1)
    assert cache.sets[-1] is cache.sets[SETS - 1]
    with pytest.raises(IndexError):
        cache.sets[SETS]
    with pytest.raises(IndexError):
        cache.sets[-SETS - 1]
    with pytest.raises(TypeError):
        cache.sets["0"]
    assert [index for index, _ in cache.sets.built()] == [SETS - 1]
    assert list(cache.sets) == [cache.sets[i] for i in range(SETS)]


class TestSanitizerOnLazySets:
    """Sets built after the sanitizer ran are still wrapped."""

    def test_never_used_set_reports_duplicate_tag(self):
        hierarchy = CacheHierarchy(rng=3)
        sanitize_hierarchy(hierarchy)
        assert hierarchy.l1.sets.built() == []
        cache_set = hierarchy.l1.sets[5]
        assert isinstance(cache_set.policy, SanitizingPolicy)
        cache_set.install(0, 0x10, 0x1000)
        with pytest.raises(InvariantViolation) as excinfo:
            cache_set.install(1, 0x10, 0x1000)
        assert excinfo.value.invariant == "duplicate-tag"
        assert excinfo.value.set_index == 5

    def test_never_used_set_reports_eviction_accounting(self):
        hierarchy = CacheHierarchy(rng=3)
        l1 = hierarchy.l1

        def lose_evictions(index, cache_set):
            install = cache_set.install

            def buggy(way, tag, address, dirty=False):
                install(way, tag, address, dirty=dirty)
                return None

            cache_set.install = buggy

        # Runs before the sanitizer's own hook, so the sanitizer wraps
        # the faulty install.
        l1.sets.on_build.append(lose_evictions)
        sanitize_hierarchy(hierarchy)
        stride = l1.config.num_sets * l1.config.line_size
        target = 9 * l1.config.line_size
        with pytest.raises(InvariantViolation) as excinfo:
            for k in range(l1.config.ways + 1):
                hierarchy.access(MemoryAccess(address=target + k * stride))
        assert excinfo.value.invariant == "eviction-accounting"
        assert excinfo.value.set_index == 9
        assert [index for index, _ in l1.sets.built()] == [9]
