"""``trials`` workload: ``run_trials`` for Algorithms 1 and 2.

One round is one fresh process calling ``ExperimentRunner.run_trials``
for ``alg1`` then ``alg2`` at the runner's default 256-wide blocks and
64-bit messages, with the benchmark's seed as the master seed of the
per-trial streams.  After the timed calls the worker re-runs one
seeded block of each algorithm on its own and compares it with the
wide run's rows bit for bit.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List

from pb.common import median, quantile, repeat_rounds, run_round
from pb.sampler import share_metrics

ALGORITHMS = ["alg1", "alg2"]
TRIALS_PER_ROUND = 4096
BLOCK_SIZE = 256
#: Rounds per run at least (traced runs alternate plain and traced).
MIN_ROUNDS = 3


def per_layer(rounds: List[Dict]) -> Dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    transfer_ms = [ms for r in traced for ms in r["run_transfer_ms"]]
    run_trials_ms = sum(
        data["elapsed_s"] * 1000.0
        for r in traced for data in r["per_alg"].values()
    )
    first = traced[0]["per_alg"]
    metrics = {
        "experiments.run_trials.plumbing_share": (
            1.0 - sum(transfer_ms) / run_trials_ms, "ratio"),
        "sim.batch.run_transfer_ms_p50": (median(transfer_ms), "ms"),
        "batch.steps": (sum(d["steps"] for d in first.values()), "count"),
        "batch.fallback.open_table": (
            sum(d["fallback"] for d in first.values()), "count"),
    }
    metrics.update(share_metrics([r["sample_counts"] for r in traced]))
    metrics["trace.overhead_ratio"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in plain]), "ratio")
    return metrics


def count_failures(rounds: List[Dict], blocks: int) -> int:
    """Failed blocks: runner failures, solo mismatches, replay drift."""
    failed = 0
    digests = rounds[0]["row_digest"]
    for r in rounds:
        failed += sum(d["failures"] for d in r["per_alg"].values())
        failed += r["check_mismatches"]
        # Every round runs the same trials: rows must replay exactly.
        failed += sum(
            blocks for alg, digest in r["row_digest"].items()
            if digest != digests[alg]
        )
    return failed


def run(seed: int, seconds: float, trace: bool, run_dir: str):
    log = os.path.join(run_dir, "trials-worker.log")
    blocks = TRIALS_PER_ROUND // BLOCK_SIZE

    def one_round(index: int) -> Dict:
        traced = trace and index % 2 == 1
        pick = random.Random(f"trials:{seed}:{index}")
        check = {}
        for alg in ALGORITHMS:
            lo = pick.randrange(blocks) * BLOCK_SIZE
            check[alg] = [lo, lo + BLOCK_SIZE]
        result = run_round(
            {"kind": "trials", "algorithms": ALGORITHMS,
             "trials": TRIALS_PER_ROUND, "block_size": BLOCK_SIZE,
             "seed": seed % (2 ** 31), "traced": traced, "check": check},
            log,
        )
        result["traced"] = traced
        return result

    rounds = repeat_rounds(
        seconds, MIN_ROUNDS + 1 if trace else MIN_ROUNDS, one_round
    )
    attempted = blocks * len(ALGORITHMS) * len(rounds)
    failed = count_failures(rounds, blocks)
    plain = [r for r in rounds if not r["traced"]]
    calls = [d for r in plain for d in r["per_alg"].values()]
    block_ms = [ms for d in calls for ms in d["blocks_ms"]]
    block_cpu_ms = [ms for d in calls for ms in d["blocks_cpu_ms"]]
    trials = TRIALS_PER_ROUND * len(calls)
    e2e = {
        "setup_s": (median([r["setup_s"] for r in rounds]), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "cpu_s": (median([r["cpu_s"] for r in plain]), "s"),
        "ops_per_cpu_s": (trials / sum(d["cpu_s"] for d in calls), "1/s"),
        "trials.trials_per_s": (
            trials / sum(d["elapsed_s"] for d in calls), "1/s"),
        "trials.block_ms_p50": (median(block_ms), "ms"),
        "trials.block_ms_p95": (quantile(block_ms, 0.95), "ms"),
        "trials.block_cpu_ms_p50": (median(block_cpu_ms), "ms"),
        "trials.block_cpu_ms_p95": (quantile(block_cpu_ms, 0.95), "ms"),
    }
    sizes = {
        "rounds": len(rounds),
        "algorithms": ALGORITHMS,
        "trials_per_round": TRIALS_PER_ROUND,
        "block_size": BLOCK_SIZE,
        "message_bits": 64,
        "blocks_timed": len(block_ms),
        "blocks_beyond_p95": len(block_ms) - int(0.95 * len(block_ms)),
    }
    layers = dict(per_layer(rounds), **e2e) if trace else {}
    return attempted, failed, e2e, layers, sizes
