"""Differential tests: the fast engine against the reference oracle.

The fast engine (``repro.sim.fastpath`` + ``repro.replacement.tables``)
claims bit-identical behaviour to the reference engine.  These tests
hold it to that claim at three levels:

* policy level — a :class:`TabledPolicy` driven by a random operation
  stream must track the reference policy snapshot-for-snapshot;
* cache level — reference and fast caches fed identical access traces
  must agree on every hit/miss, every evicted address, every counter,
  and every final set snapshot;
* machine level — a full covert-channel protocol run must decode the
  same bits with the same latencies when the machine's hierarchy is
  rebuilt on the reference cache class, including with the runtime
  sanitizer armed on the fast engine.
"""

import random

import pytest

from repro.analysis.proxies import sanitize_cache
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.types import AccessType, MemoryAccess
from repro.replacement.tables import (
    TABLEABLE_POLICIES,
    PolicyTables,
    TabledPolicy,
    clear_table_cache,
    compile_tables,
    estimated_state_count,
)
from repro.sim import fastpath
from repro.sim.fastpath import FastSetAssociativeCache

POLICIES = sorted(TABLEABLE_POLICIES)
WAYS = [4, 8, 16]


def reference_policy(name, ways):
    return TABLEABLE_POLICIES[name](ways)


@pytest.mark.parametrize("ways", WAYS)
@pytest.mark.parametrize("name", POLICIES)
class TestPolicyEquivalence:
    """TabledPolicy vs reference policy on identical operation streams."""

    def test_random_op_stream_matches_reference(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        rng = random.Random(0xC0FFEE + ways)
        for step in range(600):
            op = rng.randrange(4)
            if op == 0:
                way = rng.randrange(ways)
                ref.touch(way)
                fast.touch(way)
            elif op == 1:
                way = rng.randrange(ways)
                ref_fill = getattr(ref, "on_fill", ref.touch)
                ref_fill(way)
                fast.on_fill(way)
            elif op == 2:
                assert ref.victim(None) == fast.victim(None), (
                    f"victim diverged at step {step}"
                )
            else:
                way = rng.randrange(ways)
                ref.invalidate(way)
                fast.invalidate(way)
            assert ref.state_snapshot() == fast.state_snapshot(), (
                f"state diverged at step {step} (op {op})"
            )

    def test_victim_sequence_from_power_on(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        for way in range(ways):
            ref_fill = getattr(ref, "on_fill", ref.touch)
            ref_fill(way)
            fast.on_fill(way)
        victims_ref = [ref.victim(None) for _ in range(2 * ways)]
        victims_fast = [fast.victim(None) for _ in range(2 * ways)]
        assert victims_ref == victims_fast

    def test_valid_mask_prefers_invalid_way(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        valid = [True] * ways
        valid[2] = False
        assert ref.victim(valid) == fast.victim(valid) == 2
        assert ref.state_snapshot() == fast.state_snapshot()

    def test_snapshot_round_trips_through_either_engine(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        for way in (1, 0, min(3, ways - 1)):
            ref.touch(way)
        snapshot = ref.state_snapshot()
        fast.state_restore(snapshot)
        assert fast.state_snapshot() == snapshot
        assert fast.victim(None) == ref.victim(None)

    def test_reset_restores_power_on_state(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        for way in range(ways):
            fast.touch(way)
        fast.reset()
        assert fast.state_snapshot() == ref.state_snapshot()

    def test_metadata_mirrors_reference(self, name, ways):
        ref = reference_policy(name, ways)
        fast = TabledPolicy(ways, base=name)
        assert fast.name == ref.name
        assert fast.state_bits == ref.state_bits
        assert fast.table_base_type is type(ref)


def make_pair(policy, ways, sets=8, line_size=64):
    config = CacheConfig(
        name="L1D",
        size=sets * ways * line_size,
        ways=ways,
        line_size=line_size,
        policy=policy,
    )
    return (
        SetAssociativeCache(config, rng=7),
        FastSetAssociativeCache(config, rng=7),
    )


def random_trace(config_sets, ways, seed, length=4000):
    """Address stream with enough reuse to exercise hits and evictions."""
    rng = random.Random(seed)
    lines = config_sets * (ways + 3)
    trace = []
    for _ in range(length):
        address = rng.randrange(lines) * 64
        access_type = (
            AccessType.STORE if rng.random() < 0.25 else AccessType.LOAD
        )
        trace.append(
            MemoryAccess(
                address=address,
                access_type=access_type,
                thread_id=rng.randrange(2),
            )
        )
    return trace


def drive(cache, trace):
    """Reference control flow: lookup, fill on miss; collect observables."""
    events = []
    for access in trace:
        result = cache.lookup(access)
        if result.hit:
            events.append(("hit", result.way))
        else:
            fill = cache.fill(access)
            events.append(("miss", fill.evicted_address))
    return events


@pytest.mark.parametrize("ways", WAYS)
@pytest.mark.parametrize("policy", POLICIES)
class TestCacheEquivalence:
    """Whole-cache differential runs over identical access traces."""

    def test_trace_observables_match(self, policy, ways):
        ref, fast = make_pair(policy, ways)
        trace = random_trace(ref.config.num_sets, ways, seed=ways * 31)
        assert drive(ref, trace) == drive(fast, trace)

    def test_final_state_matches(self, policy, ways):
        ref, fast = make_pair(policy, ways)
        trace = random_trace(ref.config.num_sets, ways, seed=ways * 87)
        drive(ref, trace)
        drive(fast, trace)
        for ref_set, fast_set in zip(ref.sets, fast.sets):
            assert ref_set.snapshot() == fast_set.snapshot()
        assert ref.counters.references == fast.counters.references
        assert ref.counters.misses == fast.counters.misses

    def test_flush_keeps_engines_aligned(self, policy, ways):
        ref, fast = make_pair(policy, ways)
        trace = random_trace(ref.config.num_sets, ways, seed=5, length=600)
        rng = random.Random(99)
        for access in trace:
            for cache in (ref, fast):
                if not cache.lookup(access).hit:
                    cache.fill(access)
            if rng.random() < 0.1:
                target = rng.randrange(64) * 64
                assert ref.flush(target) == fast.flush(target)
        for ref_set, fast_set in zip(ref.sets, fast.sets):
            assert ref_set.snapshot() == fast_set.snapshot()

    def test_probe_is_side_effect_free_and_equivalent(self, policy, ways):
        ref, fast = make_pair(policy, ways)
        trace = random_trace(ref.config.num_sets, ways, seed=3, length=300)
        drive(ref, trace)
        drive(fast, trace)
        for address in range(0, 64 * 64, 64):
            assert ref.probe(address) == fast.probe(address)
        for ref_set, fast_set in zip(ref.sets, fast.sets):
            assert ref_set.snapshot() == fast_set.snapshot()


class TestSanitizedFastEngine:
    """The PR 2 runtime sanitizer must hold on the fast engine too."""

    def test_sanitized_fast_cache_runs_clean_and_identical(self):
        for policy in POLICIES:
            ref, fast = make_pair(policy, ways=8)
            sanitize_cache(fast)
            trace = random_trace(ref.config.num_sets, 8, seed=11, length=1500)
            assert drive(ref, trace) == drive(fast, trace)
            for ref_set, fast_set in zip(ref.sets, fast.sets):
                assert ref_set.snapshot() == fast_set.snapshot()


class TestMachineEquivalence:
    """Full protocol runs decode identically on both cache classes."""

    @staticmethod
    def _run_protocol(sanitize=False):
        from repro.channels import (
            CovertChannelProtocol,
            ProtocolConfig,
            SharedMemoryLRUChannel,
            sample_bits,
        )
        from repro.sim import INTEL_E5_2690, Machine

        machine = Machine(INTEL_E5_2690, rng=2024)
        if sanitize:
            from repro.analysis.sanitize import sanitize_machine

            sanitize_machine(machine)
        channel = SharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, target_set=1, d=8
        )
        protocol = CovertChannelProtocol(
            machine, channel, ProtocolConfig(ts=3000, tr=600)
        )
        run = protocol.run_hyper_threaded([1, 0, 1, 1])
        latencies = [
            (o.latency, o.timestamp) for o in run.observations
        ]
        return sample_bits(run), latencies

    @classmethod
    def _run_reference_protocol(cls, monkeypatch):
        """The same run with every hierarchy level a reference cache."""
        from repro.sim import Machine

        with monkeypatch.context() as patch:
            patch.setattr(
                fastpath, "FastSetAssociativeCache", SetAssociativeCache
            )
            assert type(Machine(rng=0).hierarchy.l1) is SetAssociativeCache
            return cls._run_protocol()

    def test_protocol_bit_identical(self, monkeypatch):
        reference = self._run_reference_protocol(monkeypatch)
        assert self._run_protocol() == reference

    def test_protocol_bit_identical_under_sanitizer(self, monkeypatch):
        reference = self._run_reference_protocol(monkeypatch)
        assert self._run_protocol(sanitize=True) == reference


class TestTableCompilation:
    """Eager/lazy compilation strategy and the shared-table memo."""

    def test_small_spaces_compile_eagerly(self):
        tables = PolicyTables("tree-plru", 8)
        assert tables.eager
        assert tables.state_count == estimated_state_count("tree-plru", 8)
        # Eager closure materialises every transition up front.
        assert tables.transition_count() == 2 * 8 * tables.state_count

    def test_large_spaces_compile_lazily(self):
        tables = PolicyTables("lru", 16)
        assert not tables.eager
        assert tables.state_count == 1  # just the power-on state
        policy = TabledPolicy(16, base="lru", tables=tables)
        for way in range(16):
            policy.touch(way)
        # Visited states only — nowhere near 16!.
        assert 1 < tables.state_count <= 17

    def test_estimates(self):
        assert estimated_state_count("lru", 4) == 24
        assert estimated_state_count("fifo", 8) == 8
        assert estimated_state_count("bit-plru", 8) == 256
        assert estimated_state_count("srrip", 4, rrpv_bits=2) == 256
        assert estimated_state_count("random", 4) is None

    def test_compile_tables_memoises_per_shape(self):
        clear_table_cache()
        try:
            a = compile_tables("fifo", 4)
            b = compile_tables("fifo", 4)
            c = compile_tables("fifo", 8)
            assert a is b
            assert a is not c
        finally:
            clear_table_cache()

    def test_untableable_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyTables("random", 4)

    def test_mismatched_shared_tables_rejected(self):
        tables = compile_tables("fifo", 4)
        with pytest.raises(ConfigurationError):
            TabledPolicy(8, base="fifo", tables=tables)

    def test_untableable_cache_policy_falls_back_to_reference(self):
        config = CacheConfig(
            name="L1D", size=2048, ways=4, line_size=64, policy="random"
        )
        cache = FastSetAssociativeCache(config, rng=1)
        assert not isinstance(cache.sets[0].policy, TabledPolicy)
        ref = SetAssociativeCache(config, rng=1)
        trace = random_trace(ref.config.num_sets, 4, seed=21, length=800)
        assert drive(ref, trace) == drive(cache, trace)


def _plain_levels(builder, sanitize):
    """Every plain cache level of one freshly built system."""
    from repro.analysis.sanitize import sanitize_hierarchy
    from repro.cache.config import HierarchyConfig
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.multicore import MultiCoreSystem
    from repro.sim import INTEL_E5_2690_3LEVEL, Machine

    if builder == "machine":
        hierarchy = Machine(
            INTEL_E5_2690_3LEVEL, rng=1, sanitize=sanitize
        ).hierarchy
        return [hierarchy.l1, hierarchy.l2, hierarchy.llc]
    if builder == "hierarchy":
        hierarchy = CacheHierarchy(HierarchyConfig(), rng=1)
        if sanitize:
            sanitize_hierarchy(hierarchy)
        return [hierarchy.l1, hierarchy.l2]
    system = MultiCoreSystem(rng=1)
    levels = [system.llc]
    for core in system.cores:
        levels += [core.l1, core.l2]
    if sanitize:
        for cache in levels:
            sanitize_cache(cache)
    return levels


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("builder", ["machine", "hierarchy", "multicore"])
def test_plain_levels_are_fast_caches(builder, sanitize):
    from repro.analysis.proxies import SanitizingPolicy

    levels = _plain_levels(builder, sanitize)
    for cache in levels:
        assert isinstance(cache, FastSetAssociativeCache)
        policy = cache.sets[0].policy
        assert isinstance(policy, SanitizingPolicy) == sanitize


# ----------------------------------------------------------------------
# The batch engine: dense table arrays and lockstep transfers
# ----------------------------------------------------------------------


class TestTableArrays:
    """The dense ``as_arrays`` export: memoization and fidelity."""

    def test_as_arrays_is_memoised(self):
        clear_table_cache()
        try:
            tables = compile_tables("fifo", 4)
            arrays = tables.as_arrays()
            assert tables.as_arrays() is arrays
        finally:
            clear_table_cache()

    def test_clear_table_cache_drops_arrays(self):
        clear_table_cache()
        tables = compile_tables("tree-plru", 4)
        arrays = tables.as_arrays()
        clear_table_cache()
        assert tables._arrays is None
        fresh = compile_tables("tree-plru", 4)
        assert fresh is not tables
        assert fresh.as_arrays() is not arrays

    def test_open_tables_refuse_dense_export(self):
        # True LRU at 16 ways has 16! states: never eagerly closed.
        tables = compile_tables("lru", 16)
        with pytest.raises(ConfigurationError):
            tables.as_arrays()

    def test_arrays_are_read_only(self):
        arrays = compile_tables("fifo", 4).as_arrays()
        with pytest.raises(ValueError):
            arrays.touch[0] = 1

    def test_arrays_mirror_scalar_tables(self):
        tables = compile_tables("tree-plru", 4)
        arrays = tables.as_arrays()
        assert arrays.initial == tables.initial
        for state in range(arrays.state_count):
            for way in range(4):
                index = state * 4 + way
                assert arrays.touch[index] == tables.touch_to(state, way)
                assert arrays.fill[index] == tables.fill_to(state, way)
            victim, after = tables.victim_of(state)
            assert arrays.victim_way[state] == victim
            assert arrays.victim_next[state] == after
            # evict_to is the full-miss composition, one entry per state:
            # victim search then fill into the victim way.
            assert arrays.evict_to[state] == tables.fill_to(after, victim)


def batch_hierarchy(policy, ways, sets=8):
    """A small two-level hierarchy whose L1 runs the given policy."""
    from repro.cache.config import HierarchyConfig

    l1 = CacheConfig(
        name="L1D",
        size=sets * ways * 64,
        ways=ways,
        line_size=64,
        policy=policy,
    )
    return HierarchyConfig(l1=l1)


def scalar_trial(
    algorithm, hierarchy, trial_index, message_length, sanitized=False
):
    """Fast-engine scalar oracle for one absolute trial index.

    Drives a :class:`FastSetAssociativeCache` through the exact per-bit
    schedule the batch engine executes — init, bit-conditional sender,
    decode, timed probe — drawing message bits and timer noise from the
    same counter-based streams, so its hits and observed latencies must
    equal the batch engine's row for this trial bit-for-bit.
    """
    import numpy as np

    from repro.common.rng import spawn_streams, stream_bits, trial_streams
    from repro.sim.batch import BATCH_CHANNELS, CHAIN_LENGTH, default_d
    from repro.timing.measurement import batch_observed_latency
    from repro.timing.tsc import INTEL_TSC

    l1 = hierarchy.l1
    keys = trial_streams(2020, 1, offset=trial_index)
    noise_keys = spawn_streams(keys, "tsc")
    sent = stream_bits(spawn_streams(keys, "message"), message_length)[0]
    channel = BATCH_CHANNELS[algorithm].build(
        l1, target_set=1, d=default_d(algorithm, l1.ways)
    )
    cache = FastSetAssociativeCache(l1, rng=1)
    if sanitized:
        sanitize_cache(cache)

    def access(address):
        probe = MemoryAccess(address=address)
        result = cache.lookup(probe, count=False)
        if not result.hit:
            cache.fill(probe)
        return result.hit

    hits, latencies = [], []
    for position in range(message_length):
        for address in channel.init_addresses():
            access(address)
        for address in channel.sender_addresses(int(sent[position])):
            access(address)
        for address in channel.decode_addresses():
            access(address)
        hit = access(channel.probe_address)
        hits.append(bool(hit))
        latencies.append(
            float(
                batch_observed_latency(
                    np.array([hit]),
                    l1.hit_latency,
                    hierarchy.l2.hit_latency,
                    INTEL_TSC,
                    noise_keys,
                    position,
                    CHAIN_LENGTH,
                )[0]
            )
        )
    return [int(b) for b in sent], hits, latencies


@pytest.mark.parametrize("ways", WAYS)
@pytest.mark.parametrize("policy", POLICIES)
class TestBatchEngineEquivalence:
    """Batch engine vs the fast scalar oracle, per trial and per bit.

    Covers every tableable policy at 4/8/16 ways — including true LRU
    at 16 ways, whose open (lazily grown) tables exercise the scalar
    per-trial fallback path — and batch widths 1/7/256.
    """

    BITS = 12

    def test_batch_rows_match_scalar_oracle(self, policy, ways):
        from repro.sim.batch import BatchEngine

        hierarchy = batch_hierarchy(policy, ways)
        for algorithm in ("alg1", "alg2"):
            engine = BatchEngine(algorithm, hierarchy=hierarchy)
            result = engine.run_transfer(7, message_length=self.BITS)
            for trial in (0, 3, 6):
                sent, hits, latencies = scalar_trial(
                    algorithm, hierarchy, trial, self.BITS
                )
                assert list(result.sent[trial]) == sent
                assert list(result.probe_hits[trial]) == hits
                assert [float(x) for x in result.latencies[trial]] == latencies

    def test_trial_rows_independent_of_batch_width(self, policy, ways):
        import numpy as np

        from repro.sim.batch import BatchEngine

        hierarchy = batch_hierarchy(policy, ways)
        engine = BatchEngine("alg1", hierarchy=hierarchy)
        wide = engine.run_transfer(256, message_length=4)
        narrow = engine.run_transfer(7, message_length=4)
        solo = engine.run_transfer(1, message_length=4, trial_offset=200)
        np.testing.assert_array_equal(narrow.sent, wide.sent[:7])
        np.testing.assert_array_equal(narrow.decoded, wide.decoded[:7])
        np.testing.assert_array_equal(narrow.latencies, wide.latencies[:7])
        np.testing.assert_array_equal(solo.sent[0], wide.sent[200])
        np.testing.assert_array_equal(solo.decoded[0], wide.decoded[200])
        np.testing.assert_array_equal(solo.latencies[0], wide.latencies[200])


class TestBatchEngineDetails:
    """Fallback accounting, sanitizer spot-check, validation errors."""

    def test_open_table_fallback_is_counted_and_identical(self):
        from repro.sim.batch import BatchCache, BatchEngine

        hierarchy = batch_hierarchy("lru", 16)
        cache = BatchCache(hierarchy.l1, trials=2)
        assert cache.arrays is None  # 16! states: no dense export
        engine = BatchEngine("alg2", hierarchy=hierarchy)
        result = engine.run_transfer(3, message_length=6)
        assert result.fallback_steps > 0
        sent, hits, latencies = scalar_trial("alg2", hierarchy, 1, 6)
        assert list(result.sent[1]) == sent
        assert list(result.probe_hits[1]) == hits

    def test_dense_path_never_falls_back(self):
        from repro.sim.batch import BatchEngine

        engine = BatchEngine("alg1", hierarchy=batch_hierarchy("tree-plru", 8))
        result = engine.run_transfer(16, message_length=8)
        assert result.fallback_steps == 0
        # steps aggregates over the trial axis: lockstep steps * trials.
        assert result.steps > 0
        assert result.steps % 16 == 0

    def test_sanitized_scalar_oracle_matches_batch_trial_zero(self):
        from repro.sim.batch import BatchEngine

        hierarchy = batch_hierarchy("tree-plru", 8)
        engine = BatchEngine("alg1", hierarchy=hierarchy)
        result = engine.run_transfer(4, message_length=10)
        sent, hits, latencies = scalar_trial(
            "alg1", hierarchy, 0, 10, sanitized=True
        )
        assert list(result.sent[0]) == sent
        assert list(result.probe_hits[0]) == hits
        assert [float(x) for x in result.latencies[0]] == latencies

    def test_decoded_bits_follow_threshold(self):
        import numpy as np

        from repro.sim.batch import BatchEngine

        engine = BatchEngine("alg1", hierarchy=batch_hierarchy("lru", 8))
        result = engine.run_transfer(32, message_length=16)
        # Channel decodes well at these shapes: overwhelming agreement.
        assert result.mean_error_rate() < 0.1
        rates = result.error_rates()
        assert rates.shape == (32,)
        assert np.all((rates >= 0.0) & (rates <= 1.0))

    def test_batch_cache_validation(self):
        from repro.sim.batch import BatchCache, BatchEngine

        with pytest.raises(ConfigurationError):
            BatchCache(batch_hierarchy("lru", 4).l1, trials=0)
        with pytest.raises(ConfigurationError):
            BatchCache(
                CacheConfig(
                    name="L1D", size=2048, ways=4, line_size=64,
                    policy="random",
                ),
                trials=2,
            )
        with pytest.raises(ConfigurationError):
            BatchEngine("alg9")
