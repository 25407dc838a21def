"""One measured round in a fresh process, like one ``repro run`` call.

Usage: ``python3 worker.py '<json spec>'``.  Prints ``READY`` once the
program's modules are imported (the end of set-up), then runs the
round and prints one JSON result line.  Spec kinds:

* ``sweep``: ``ExperimentRunner(retries=0).run_one`` over ``plan`` (a
  list of ``[experiment_id, keyword arguments]``, bound through the
  runner's ``registry`` argument), then the ``anchors`` at their
  defaults, rendered through ``experiment_block``.
* ``trials``: ``ExperimentRunner.run_trials`` per algorithm, then the
  sampled ``check`` block re-run on its own.

With ``traced`` set the round runs under an observability session, the
layer sampler and call timers; otherwise nothing is added to the calls.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


from pb.common import CallTimer, counter_total, self_peak_rss_mb  # noqa: E402
from pb.sampler import LayerSampler  # noqa: E402


def _jsonable(rows):
    return json.loads(json.dumps(rows))


def _counters(capture):
    if capture is None or not capture.metrics:
        return {}
    return {
        name: counter_total(value)
        for name, value in capture.metrics.get("counters", {}).items()
    }


def run_sweep(spec):
    import repro.experiments  # noqa: F401  (registers every experiment)
    from repro.channels.protocol import CovertChannelProtocol
    from repro.experiments.base import EXPERIMENT_REGISTRY
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.report import experiment_block

    print("READY", flush=True)
    traced = spec["traced"]
    registry = {
        eid: functools.partial(EXPERIMENT_REGISTRY[eid], **params)
        for eid, params in spec["plan"]
    }
    runner = ExperimentRunner(retries=0, registry=registry, observe=traced)
    timers = []
    if traced:
        timers = [
            CallTimer(CovertChannelProtocol, "run_hyper_threaded"),
            CallTimer(CovertChannelProtocol, "run_time_sliced"),
        ]
    sampler = LayerSampler() if traced else contextlib.nullcontext()
    times, results = {}, {}
    with sampler:
        start = time.perf_counter()
        cpu_start = time.process_time()
        for eid, _ in spec["plan"]:
            began = time.perf_counter()
            results[eid] = runner.run_one(eid)
            times[eid] = time.perf_counter() - began
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    for timer in timers:
        timer.restore()
    anchor_runner = ExperimentRunner(retries=0, observe=traced)
    anchors = {}
    for eid in spec["anchors"]:
        result = anchor_runner.run_one(eid)
        capture = anchor_runner.captures.get(eid)
        if capture is not None:
            anchors[eid] = experiment_block(
                result, capture.manifest, capture.metrics
            )
        else:
            anchors[eid] = experiment_block(result)
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "times": times,
        "rows": {eid: _jsonable(r.rows) for eid, r in results.items()},
        "blocks": {eid: experiment_block(r) for eid, r in results.items()},
        "anchors": anchors,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if traced:
        protocol_calls = sum(len(t.calls) for t in timers)
        protocol_s = sum(sum(t.calls) for t in timers)
        out.update(
            counters={
                eid: _counters(runner.captures.get(eid)) for eid in results
            },
            protocol_calls=protocol_calls,
            protocol_s=protocol_s,
            sample_counts=sampler.counts,
        )
    return out


def solo_rows(algorithm, lo, hi, seed):
    """Rows of trials ``lo..hi-1`` from a transfer of just those trials."""
    from repro.sim.batch import run_batch_transfer

    solo = run_batch_transfer(
        algorithm=algorithm, trials=hi - lo, seed=seed, trial_offset=lo
    )
    errors = (solo.sent != solo.decoded).sum(axis=1)
    rates = solo.error_rates()
    return [[lo + i, int(errors[i]), float(rates[i])] for i in range(hi - lo)]


def _timed_trials(spec, algorithm, traced):
    """One ``run_trials`` call with per-block wall and CPU times."""
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(retries=0, observe=traced)
    blocks_ms, blocks_cpu_ms = [], []
    mark = [time.process_time()]

    def on_result(result, elapsed):
        now = time.process_time()
        blocks_ms.append(elapsed * 1000.0)
        blocks_cpu_ms.append((now - mark[0]) * 1000.0)
        mark[0] = now

    began = time.perf_counter()
    began_cpu = mark[0]
    report = runner.run_trials(
        algorithm,
        spec["trials"],
        block_size=spec["block_size"],
        seed=spec["seed"],
        on_result=on_result,
    )
    elapsed = time.perf_counter() - began
    elapsed_cpu = time.process_time() - began_cpu
    rows = [row for result in report.results for row in result.rows]
    steps = fallback = 0
    for capture in runner.captures.values():
        counts = _counters(capture)
        steps += counts.get("batch.steps", 0)
        fallback += counts.get("batch.fallback.open_table", 0)
    return {
        "elapsed_s": elapsed,
        "cpu_s": elapsed_cpu,
        "blocks_ms": blocks_ms,
        "blocks_cpu_ms": blocks_cpu_ms,
        "failures": len(report.failures),
        "rows": _jsonable(rows),
        "steps": steps,
        "fallback": fallback,
    }


def run_trials(spec):
    import numpy  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.sim.batch as batch

    print("READY", flush=True)
    traced = spec["traced"]
    timer = CallTimer(batch.BatchEngine, "run_transfer") if traced else None
    sampler = LayerSampler() if traced else contextlib.nullcontext()
    per_alg = {}
    with sampler:
        for algorithm in spec["algorithms"]:
            per_alg[algorithm] = _timed_trials(spec, algorithm, traced)
    if timer is not None:
        timer.restore()
    # Correctness: the sampled block, re-run on its own, must reproduce
    # its rows in the wide run bit for bit.
    mismatches = sum(
        1
        for algorithm, (lo, hi) in spec["check"].items()
        if solo_rows(algorithm, lo, hi, spec["seed"])
        != per_alg[algorithm]["rows"][lo:hi]
    )
    out = {
        "wall_s": sum(data["elapsed_s"] for data in per_alg.values()),
        "cpu_s": sum(data["cpu_s"] for data in per_alg.values()),
        "per_alg": {
            alg: {k: v for k, v in data.items() if k != "rows"}
            for alg, data in per_alg.items()
        },
        "row_digest": {
            alg: hashlib.sha256(json.dumps(data["rows"]).encode()).hexdigest()
            for alg, data in per_alg.items()
        },
        "check_mismatches": mismatches,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    if traced:
        out.update(
            run_transfer_ms=[d * 1000.0 for d in timer.calls],
            sample_counts=sampler.counts,
        )
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    handler = {"sweep": run_sweep, "trials": run_trials}[spec["kind"]]
    out = handler(spec)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
