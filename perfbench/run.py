"""Benchmark driver: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload sweep|trials|served \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see perfbench/README.md).
The last line of standard output is the result object; a copy with the
host ledger is written under ``.perfbench/results/``.  Exits 2 without
a result when the program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import common, metrics  # noqa: E402

WORKLOADS = ("sweep", "trials", "served")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; the result object and the full record."""
    common.require_source()
    sys.path.insert(0, common.SRC)
    from pb import served, sweep, trials

    module = {"sweep": sweep, "trials": trials, "served": served}[workload]
    run_dir = common.workdir("runs", f"{workload}-{seed}-{os.getpid()}")
    try:
        attempted, failed, e2e, layers, sizes = module.run(
            seed, seconds, trace, run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    chosen = metrics.select(layers if trace else e2e, declared)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": chosen,
    }
    record = {
        "ledger": common.host_ledger(seed, workload, sizes),
        "trace": trace,
        "result": result,
        "end_to_end": {k: list(v) for k, v in e2e.items()},
        "per_layer": {k: list(v) for k, v in layers.items()},
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, record = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    out_dir = common.workdir("results")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        # The untraced figures that BENCHMARK.json lists as per-layer
        # (wall-clock times, latency classes) ride along for reading.
        for key, (value, unit) in record["end_to_end"].items():
            if key not in result["metrics"]:
                print(f"{args.workload} {key} {value:.6g} {unit} (per-layer)")
    print(f"{args.workload} sizes {json.dumps(record['ledger']['sizes'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
