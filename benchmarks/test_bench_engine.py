"""Engine benchmarks: reference vs fast over the paper's access loops.

Run with::

    pytest benchmarks/test_bench_engine.py --benchmark-only \
        --benchmark-json=benchmarks/BENCH_engine.json

Each benchmark drives one simulation engine over the exact access loop
of the paper's covert channels (Algorithm 1: shared memory; Algorithm 2:
no shared memory) — init, sender-encode and timed-decode phases against
the L1D of the Intel E5-2690 model.  The reference and fast variants of
a loop are separate benchmarks over *identical* prebuilt access streams,
so ``fast vs reference`` mean-time ratios in the emitted JSON are the
engine speedup.  ``scripts_check_bench_regression.py`` computes those
ratios and fails when the fast engine regresses.

The full-batch benchmarks (``run all`` serially and with ``--jobs 4``)
take minutes, so they only run when ``REPRO_BENCH_RUN_ALL=1`` is set;
the committed ``benchmarks/BENCH_engine.json`` baseline includes them.
"""

import os

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.channels import NoSharedMemoryLRUChannel, SharedMemoryLRUChannel
from repro.common.types import MemoryAccess
from repro.sim import INTEL_E5_2690
from repro.sim.fastpath import FastSetAssociativeCache

#: Protocol iterations per timed round — enough for stable timing while
#: keeping a full benchmark run in seconds.
ITERATIONS = 400

#: Message driven through the channel each iteration.
MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0]

RUN_ALL = os.environ.get("REPRO_BENCH_RUN_ALL") == "1"


def build_cache(engine):
    config = INTEL_E5_2690.hierarchy.l1
    cache_cls = (
        FastSetAssociativeCache if engine == "fast" else SetAssociativeCache
    )
    return cache_cls(config, rng=7)


def channel_accesses(channel):
    """One protocol pass as prebuilt accesses (init, encode, decode)."""
    addresses = []
    for bit in MESSAGE:
        addresses.extend(channel.init_addresses())
        addresses.extend(channel.sender_addresses(bit))
        addresses.extend(channel.decode_addresses())
        addresses.append(channel.probe_address)
    return [MemoryAccess(address=address) for address in addresses]


def access_loop(cache, accesses):
    """The simulator's inner loop: lookup, fill on miss."""
    lookup = cache.lookup
    fill = cache.fill
    for _ in range(ITERATIONS):
        for access in accesses:
            if not lookup(access).hit:
                fill(access)


def drive_once(cache, accesses):
    """Observable trace of one pass (bit-identity guard for the bench)."""
    return [cache.lookup(access).hit or cache.fill(access) for access in accesses]


def bench_engine(benchmark, engine, channel_cls, algorithm):
    channel = channel_cls.build(INTEL_E5_2690.hierarchy.l1, target_set=1)
    accesses = channel_accesses(channel)
    cache = build_cache(engine)
    benchmark.pedantic(
        access_loop, args=(cache, accesses), rounds=5, iterations=1
    )
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["accesses_per_round"] = ITERATIONS * len(accesses)
    # The two engines must stay bit-identical on the benchmarked loop.
    assert drive_once(build_cache("reference"), accesses) == drive_once(
        build_cache("fast"), accesses
    )


def test_bench_alg1_reference(benchmark):
    """Algorithm 1 (shared memory) loop, reference engine."""
    bench_engine(benchmark, "reference", SharedMemoryLRUChannel, "alg1")


def test_bench_alg1_fast(benchmark):
    """Algorithm 1 (shared memory) loop, fast engine."""
    bench_engine(benchmark, "fast", SharedMemoryLRUChannel, "alg1")


def test_bench_alg2_reference(benchmark):
    """Algorithm 2 (no shared memory) loop, reference engine."""
    bench_engine(benchmark, "reference", NoSharedMemoryLRUChannel, "alg2")


def test_bench_alg2_fast(benchmark):
    """Algorithm 2 (no shared memory) loop, fast engine."""
    bench_engine(benchmark, "fast", NoSharedMemoryLRUChannel, "alg2")


def run_all(jobs):
    from repro.experiments import EXPERIMENT_REGISTRY
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(retries=0)
    report = runner.run_many(sorted(EXPERIMENT_REGISTRY), jobs=jobs)
    assert report.ok, report.summary()
    return report


def bench_run_all(benchmark, jobs):
    report = benchmark.pedantic(run_all, args=(jobs,), rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["experiments"] = len(report.results)
    # Process parallelism cannot beat the host's core count; record it
    # so the jobs ratio in the JSON is read against the right bound.
    benchmark.extra_info["cpu_count"] = os.cpu_count()


@pytest.mark.skipif(
    not RUN_ALL, reason="set REPRO_BENCH_RUN_ALL=1 to run the batch benches"
)
def test_bench_run_all_serial(benchmark):
    """Whole experiment battery, one process (the batch baseline)."""
    bench_run_all(benchmark, jobs=1)


@pytest.mark.skipif(
    not RUN_ALL, reason="set REPRO_BENCH_RUN_ALL=1 to run the batch benches"
)
def test_bench_run_all_jobs4(benchmark):
    """Whole experiment battery across 4 worker processes."""
    bench_run_all(benchmark, jobs=4)
