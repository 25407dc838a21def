"""Every metric the benchmark reports: name, unit, better direction.

``END_TO_END`` is what a user of the system sees and is printed by
every untraced run; ``PER_LAYER`` is printed by every traced run, with
0 for a layer the workload leaves idle.  BENCHMARK.json lists the same
names (a test keeps the two in step).
"""

from __future__ import annotations

from pb.sampler import SHARE_NAMES

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("cpu_s", "s", "lower"),
    ("ops_per_cpu_s", "1/s", "higher"),
)

#: Wall-clock figures of the end-to-end kind.  Steal time on a shared
#: host moves them by more than any bound allows, so they are per-layer
#: metrics (README.md, "Departures").
WALL = (
    ("sweep.wall_s", "s", "lower"),
    ("trials.trials_per_s", "1/s", "higher"),
    ("trials.block_ms_p50", "ms", "lower"),
    ("trials.block_ms_p95", "ms", "lower"),
    ("trials.block_cpu_ms_p50", "ms", "lower"),
    ("trials.block_cpu_ms_p95", "ms", "lower"),
    ("served.requests_per_s", "1/s", "higher"),
    ("served.cold_ms_p50", "ms", "lower"),
    ("served.cold_ms_p90", "ms", "lower"),
)

SWEEP_EXPERIMENTS = ("ext_alg2_timesliced", "ext_robustness", "table1", "fig9")

PER_LAYER = WALL + (
    tuple(
        (f"experiments.{eid}.wall_s", "s", "lower")
        for eid in SWEEP_EXPERIMENTS
    )
    + (
        ("experiments.run_trials.plumbing_share", "ratio", "lower"),
        ("channels.protocol.calls", "count", "lower"),
        ("channels.protocol.wall_s", "s", "lower"),
        ("sim.sched_ops", "count", "lower"),
        ("sim.host_ns_per_op", "ns", "lower"),
    )
    + tuple((name, "ratio", "lower") for name in SHARE_NAMES)
    + (
        ("sampler.samples", "count", "higher"),
        ("cache.fills", "count", "lower"),
        ("cache.evictions", "count", "lower"),
        ("replacement.transitions", "count", "lower"),
        ("faults.activations", "count", "lower"),
        ("sim.batch.run_transfer_ms_p50", "ms", "lower"),
        ("batch.steps", "count", "lower"),
        ("batch.fallback.open_table", "count", "lower"),
        ("sim.batch.run_batch_transfer_ms_p50", "ms", "lower"),
        ("analysis.analyze_ms_p50", "ms", "lower"),
        ("analysis.analyze_ms_p90", "ms", "lower"),
        ("analysis.calls", "count", "higher"),
        ("served.warm_ms_p50", "ms", "lower"),
        ("served.warm_ms_p90", "ms", "lower"),
        ("served.analyze_ms_p50", "ms", "lower"),
        ("served.analyze_ms_p90", "ms", "lower"),
        ("served.refresh_ms_p50", "ms", "lower"),
        ("served.cold.samples", "count", "higher"),
        ("served.warm.samples", "count", "higher"),
        ("served.analyze.samples", "count", "higher"),
        ("service.cache.read_ms_p50", "ms", "lower"),
        ("service.cache.write_ms_p50", "ms", "lower"),
        ("service.execute_ms_p50", "ms", "lower"),
        ("service.node_ms_p50", "ms", "lower"),
        ("service.queue_wait_ms_p50", "ms", "lower"),
        ("service.queue_wait.samples", "count", "higher"),
        ("service.serialize_us_p50", "us", "lower"),
        ("service.cache.hit_ratio", "ratio", "higher"),
        ("service.cache.lookups", "count", "higher"),
        ("service.requests.rejected", "count", "lower"),
        ("service.requests.shed", "count", "lower"),
        ("service.requests.degraded", "count", "lower"),
        ("cluster.router_hop_ms_p50", "ms", "lower"),
        ("cluster.requests.hedged", "count", "lower"),
        ("cluster.hedge.wins", "count", "higher"),
        ("cluster.hedge.win_ratio", "ratio", "higher"),
        ("cluster.requests.failover", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)


def select(measured: dict, declared) -> dict:
    """The declared metrics in order, 0 where nothing was measured."""
    out = {}
    for name, unit, _ in declared:
        value, _unit = measured.get(name, (0, unit))
        out[name] = {"value": value, "unit": unit}
    return out
