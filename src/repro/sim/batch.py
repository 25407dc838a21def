"""Vectorized batch engine: thousands of channel trials in lockstep.

The paper's evaluation numbers (Figs. 4-9) are averages over many
independent transfer trials per (policy, ways, noise) cell, and the
scalar engine pays the full Python interpreter cost per access *per
trial*.  This module removes the per-trial axis from the interpreter:
N trials advance together through each access of the channel schedule,
with per-set replacement state held as an ``int32`` state vector that
is pushed through the dense transition arrays of
:meth:`repro.replacement.tables.PolicyTables.as_arrays` — the same
"simulate the automaton, not the cache" move the static leakage
analyzer builds on, applied to simulation.

Layout (per :class:`BatchCache`):

* ``state``  — ``(trials, sets) int32``; interned table states.
* ``tags``   — ``(trials, sets, ways) int64``; resident line tags,
  ``-1`` for an invalid way.  Tag-to-way resolution is one vectorized
  equality over the target set's tag matrix.
* transitions — gathers into ``TableArrays.touch`` / ``fill`` /
  ``victim_way`` / ``victim_next``, masked per trial.

Policies whose state space exceeds the eager closure budget (true LRU
at 16 ways has ``16!`` states) have no dense export; those sets fall
back to memoised scalar table lookups per trial — bit-identical, just
not vectorized — and the fallback volume is observable as the
``batch.fallback.open_table`` counter.

Trial independence and bit-identity: trial ``k`` of a batch draws its
message bits and timer noise from counter-based streams keyed by
``(seed, trial_offset + k)`` (:func:`repro.common.rng.trial_streams`),
so its results are byte-identical whether it runs solo, in a block of
7, or in a block of 4096 — the property the checkpointed
:meth:`~repro.experiments.runner.ExperimentRunner.run_trials` blocks
and the batch-vs-fast differential suite both rest on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.algorithm2 import NoSharedMemoryLRUChannel
from repro.channels.base import LRUChannel
from repro.channels.batch_decode import (
    batch_error_rates,
    batch_threshold,
    decode_latency_matrix,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import spawn_streams, stream_bits, trial_streams
from repro.obs.session import active as obs_active
from repro.replacement.tables import (
    TABLEABLE_POLICIES,
    TableArrays,
    compile_tables,
)
from repro.timing.measurement import batch_observed_latency
from repro.timing.tsc import INTEL_TSC, TSCSpec

#: Channel algorithms the lockstep transfer knows how to vectorize.
BATCH_CHANNELS: Dict[str, Type[LRUChannel]] = {
    "alg1": SharedMemoryLRUChannel,
    "alg2": NoSharedMemoryLRUChannel,
}

#: Pointer-chase chain length assumed by the latency model; 7 is the
#: paper's choice and fully exposes the probe latency (Section IV-D).
CHAIN_LENGTH = 7


def default_d(algorithm: str, ways: int) -> int:
    """The paper's worked-example ``d`` for each algorithm, generalized.

    Algorithm 1 initializes all N ways (d = N); Algorithm 2 splits its
    N receiver lines d / N-d, with d = N/2 as the worked example.
    """
    if algorithm == "alg1":
        return ways
    return max(1, ways // 2)


class BatchCache:
    """N lockstep images of one set-associative cache level.

    Every access is applied to all (masked-in) trials at once: one
    equality over the target set's ``(trials, ways)`` tag matrix
    resolves hits, and the per-trial replacement states advance through
    the dense transition arrays with masked gathers.  Behaviour matches
    the fast engine's demand path exactly — touch on hit (when the
    config updates LRU on hits), lowest-index invalid way on a
    non-full miss, table victim on a full miss — which is what the
    differential suite in ``tests/test_perf`` asserts per trial.

    Flushes and locked/speculative accesses are not part of the channel
    schedules and are unsupported here; the scalar engine remains the
    path for those.

    Args:
        config: Geometry of the level (policy must be tableable).
        trials: Number of lockstep trial images.
    """

    def __init__(self, config: CacheConfig, trials: int):
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        if config.policy not in TABLEABLE_POLICIES:
            raise ConfigurationError(
                f"policy {config.policy!r} cannot be batch-simulated; "
                f"choose from {sorted(TABLEABLE_POLICIES)}"
            )
        self.config = config
        self.trials = trials
        self.ways = config.ways
        self.tables = compile_tables(config.policy, config.ways)
        try:
            self.arrays: Optional[TableArrays] = self.tables.as_arrays()
        except ConfigurationError:
            self.arrays = None  # open tables: per-trial scalar fallback
        self.state = np.full(
            (trials, config.num_sets), self.tables.initial, dtype=np.int32
        )
        self.tags = np.full(
            (trials, config.num_sets, config.ways), -1, dtype=np.int64
        )
        self._update_on_hit = config.update_lru_on_hit
        self._all = np.ones(trials, dtype=bool)
        self._tag_shift = config.offset_bits + config.index_bits
        #: Lockstep steps executed (one per access call) and trial-steps
        #: served by the open-table fallback; the transfer harness
        #: publishes both through the obs counters.
        self.steps = 0
        self.fallback_steps = 0

    def access(
        self, address: int, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One demand access, applied to every masked-in trial.

        Returns ``(hit, evicted)``: a boolean hit vector (False for
        masked-out trials) and an ``int64`` vector of evicted line
        addresses (``-1`` where nothing was evicted).
        """
        self.steps += 1
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        active = self._all if mask is None else mask
        if self.arrays is None:
            return self._access_fallback(set_index, tag, active)
        return self._access_dense(set_index, tag, active)

    def _access_dense(
        self, set_index: int, tag: int, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        arrays = self.arrays
        ways = self.ways
        tags = self.tags[:, set_index, :]
        state = self.state[:, set_index]
        match = tags == tag
        hit = match.any(axis=1) & active
        evicted = np.full(self.trials, -1, dtype=np.int64)

        if self._update_on_hit and hit.any():
            hit_way = match.argmax(axis=1)[hit]
            gather = state[hit].astype(np.int64) * ways + hit_way
            state[hit] = arrays.touch[gather]

        miss = active & ~hit
        if miss.any():
            invalid = tags == -1
            has_invalid = invalid.any(axis=1)
            full_miss = miss & ~has_invalid
            if full_miss.any():
                current = state[full_miss].astype(np.int64)
                victim_way = arrays.victim_way[current].astype(np.int64)
                old_tags = tags[full_miss, victim_way]
                evicted[full_miss] = (old_tags << self._tag_shift) | (
                    set_index << self.config.offset_bits
                )
                after_search = arrays.victim_next[current].astype(np.int64)
                state[full_miss] = arrays.fill[after_search * ways + victim_way]
                tags[full_miss, victim_way] = tag
            easy_miss = miss & has_invalid
            if easy_miss.any():
                fill_way = invalid.argmax(axis=1)[easy_miss].astype(np.int64)
                current = state[easy_miss].astype(np.int64)
                state[easy_miss] = arrays.fill[current * ways + fill_way]
                tags[easy_miss, fill_way] = tag
        return hit, evicted

    def _access_fallback(
        self, set_index: int, tag: int, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Open-table path: memoised scalar lookups, one trial at a time.

        Bit-identical to the dense path (both sides of every transition
        come from the same interned tables); only the vectorization is
        lost, which is why the volume is counted.
        """
        tables = self.tables
        ways = self.ways
        tags = self.tags[:, set_index, :]
        state = self.state[:, set_index]
        hit = np.zeros(self.trials, dtype=bool)
        evicted = np.full(self.trials, -1, dtype=np.int64)
        set_base = set_index << self.config.offset_bits
        trial_indices = np.nonzero(active)[0]
        self.fallback_steps += len(trial_indices)
        for trial in trial_indices:  # repro: allow(no-scalar-loop-in-batch)
            row = tags[trial]
            way = -1
            for candidate in range(ways):
                if row[candidate] == tag:
                    way = candidate
                    break
            if way >= 0:
                hit[trial] = True
                if self._update_on_hit:
                    state[trial] = tables.touch_to(int(state[trial]), way)
                continue
            victim = -1
            for candidate in range(ways):
                if row[candidate] == -1:
                    victim = candidate
                    break
            current = int(state[trial])
            if victim < 0:
                victim, current = tables.victim_of(current)
                evicted[trial] = (int(row[victim]) << self._tag_shift) | set_base
            state[trial] = tables.fill_to(current, victim)
            row[victim] = tag
        return hit, evicted


class BatchTransferResult:
    """Per-trial outcome of one lockstep channel transfer."""

    __slots__ = (
        "algorithm",
        "trials",
        "trial_offset",
        "sent",
        "decoded",
        "latencies",
        "probe_hits",
        "threshold",
        "steps",
        "fallback_steps",
    )

    def __init__(
        self,
        algorithm: str,
        trial_offset: int,
        sent: np.ndarray,
        decoded: np.ndarray,
        latencies: np.ndarray,
        probe_hits: np.ndarray,
        threshold: float,
        steps: int,
        fallback_steps: int,
    ):
        self.algorithm = algorithm
        self.trials = sent.shape[0]
        self.trial_offset = trial_offset
        self.sent = sent
        self.decoded = decoded
        self.latencies = latencies
        self.probe_hits = probe_hits
        self.threshold = threshold
        self.steps = steps
        self.fallback_steps = fallback_steps

    @property
    def message_length(self) -> int:
        return self.sent.shape[1]

    def error_rates(self) -> np.ndarray:
        """Per-trial bit-error rate (exact, lockstep-aligned)."""
        return batch_error_rates(self.sent, self.decoded)

    def mean_error_rate(self) -> float:
        return float(self.error_rates().mean())

    def __repr__(self) -> str:
        return (
            f"BatchTransferResult({self.algorithm!r}, trials={self.trials}, "
            f"bits={self.message_length}, "
            f"ber={self.mean_error_rate():.4f})"
        )


class BatchEngine:
    """Lockstep transfer harness over :class:`BatchCache`.

    One engine instance binds a channel algorithm to a hierarchy shape
    and runs N-trial transfers: per bit, the receiver's init accesses,
    the sender's bit-conditional access (masked to the trials sending a
    1), the receiver's decode accesses, and the timed probe — the exact
    per-bit schedule the scalar benches drive, minus the scalar loop
    over trials.  Probe readings go through the shared vectorized
    timer model and the vectorized Algorithm 1/2 receiver
    (:mod:`repro.channels.batch_decode`).

    Args:
        algorithm: ``"alg1"`` (shared memory) or ``"alg2"``.
        hierarchy: Cache shape and latencies; defaults to the Intel
            E5-2690 model like the scalar benches.
        target_set: Set index carrying the channel.
        d: Init-phase line count; defaults to the paper's worked
            example for the algorithm.
        tsc: Timer noise model.
        seed: Master seed; per-trial streams derive from it and the
            absolute trial index.
    """

    def __init__(
        self,
        algorithm: str = "alg1",
        hierarchy: Optional[HierarchyConfig] = None,
        target_set: int = 1,
        d: Optional[int] = None,
        tsc: TSCSpec = INTEL_TSC,
        seed: int = 2020,
    ):
        if algorithm not in BATCH_CHANNELS:
            raise ConfigurationError(
                f"unknown batch algorithm {algorithm!r}; "
                f"choose from {sorted(BATCH_CHANNELS)}"
            )
        if hierarchy is None:
            from repro.sim.specs import INTEL_E5_2690

            hierarchy = INTEL_E5_2690.hierarchy
        self.algorithm = algorithm
        self.hierarchy = hierarchy
        self.tsc = tsc
        self.seed = seed
        l1 = hierarchy.l1
        if d is None:
            d = default_d(algorithm, l1.ways)
        self.channel = BATCH_CHANNELS[algorithm].build(
            l1, target_set=target_set, d=d
        )
        self.threshold = batch_threshold(
            l1.hit_latency, hierarchy.l2.hit_latency, tsc, CHAIN_LENGTH
        )

    def run_transfer(
        self,
        trials: int,
        message_length: int = 64,
        trial_offset: int = 0,
        message_bits: Optional[np.ndarray] = None,
    ) -> BatchTransferResult:
        """Run ``trials`` independent transfers in lockstep.

        Args:
            trials: Lockstep batch width.
            message_length: Bits per trial.
            trial_offset: Absolute index of the first trial; blocks of a
                larger run pass their offset so per-trial streams (and
                therefore results) are independent of the blocking.
            message_bits: Optional ``(trials, message_length)`` 0/1
                override; by default each trial sends a random message
                from its own stream.
        """
        channel = self.channel
        l1 = self.hierarchy.l1
        keys = trial_streams(self.seed, trials, offset=trial_offset)
        noise_keys = spawn_streams(keys, "tsc")
        if message_bits is None:
            sent = stream_bits(spawn_streams(keys, "message"), message_length)
        else:
            sent = np.asarray(message_bits, dtype=np.int8)
            if sent.shape != (trials, message_length):
                raise ConfigurationError(
                    f"message_bits shape {sent.shape} != "
                    f"({trials}, {message_length})"
                )
        cache = BatchCache(l1, trials)
        latencies = np.empty((trials, message_length), dtype=np.float64)
        probe_hits = np.empty((trials, message_length), dtype=bool)
        init_addresses = channel.init_addresses()
        one_addresses = channel.sender_addresses(1)
        zero_addresses = channel.sender_addresses(0)
        decode_addresses = channel.decode_addresses()
        probe_address = channel.probe_address
        for position in range(message_length):
            bits = sent[:, position]
            for address in init_addresses:
                cache.access(address)
            if one_addresses:
                ones = bits == 1
                for address in one_addresses:
                    cache.access(address, mask=ones)
            if zero_addresses:
                zeros = bits == 0
                for address in zero_addresses:
                    cache.access(address, mask=zeros)
            for address in decode_addresses:
                cache.access(address)
            hit, _ = cache.access(probe_address)
            probe_hits[:, position] = hit
            latencies[:, position] = batch_observed_latency(
                hit,
                l1.hit_latency,
                self.hierarchy.l2.hit_latency,
                self.tsc,
                noise_keys,
                position,
                CHAIN_LENGTH,
            )
        decoded = decode_latency_matrix(
            latencies, self.threshold, channel.hit_means_one
        )
        result = BatchTransferResult(
            algorithm=self.algorithm,
            trial_offset=trial_offset,
            sent=sent,
            decoded=decoded,
            latencies=latencies,
            probe_hits=probe_hits,
            threshold=self.threshold,
            steps=cache.steps * trials,
            fallback_steps=cache.fallback_steps,
        )
        self._publish(result)
        return result

    @staticmethod
    def _publish(result: BatchTransferResult) -> None:
        """Publish batch-level counters into the active obs session."""
        session = obs_active()
        if session is None:
            return
        counter = session.metrics.counter
        counter("batch.trials").inc(result.trials)
        counter("batch.steps").inc(result.steps)
        if result.fallback_steps:
            counter("batch.fallback.open_table").inc(result.fallback_steps)


def run_batch_transfer(
    algorithm: str = "alg1",
    trials: int = 256,
    message_length: int = 64,
    hierarchy: Optional[HierarchyConfig] = None,
    target_set: int = 1,
    d: Optional[int] = None,
    tsc: TSCSpec = INTEL_TSC,
    seed: int = 2020,
    trial_offset: int = 0,
) -> BatchTransferResult:
    """One-call convenience wrapper around :class:`BatchEngine`."""
    engine = BatchEngine(
        algorithm=algorithm,
        hierarchy=hierarchy,
        target_set=target_set,
        d=d,
        tsc=tsc,
        seed=seed,
    )
    return engine.run_transfer(
        trials, message_length=message_length, trial_offset=trial_offset
    )
