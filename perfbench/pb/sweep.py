"""``sweep`` workload: serial ``run_one`` passes over four experiments.

One pass is one fresh process running four registered experiments in
a row through ``ExperimentRunner(retries=0)``, each on a different
path of the scalar simulator.  Their registered functions are bound to
benchmark-sized keyword arguments through the runner's ``registry``
argument, so a pass fits several times into one measuring window; the
seed becomes each seeded experiment's ``rng``.  ``ext_robustness`` runs
the committed intensity-1 point at its default seed, so its row is
checked against EXPERIMENTS.md on every pass.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List

from pb.common import ROOT, median, repeat_rounds, run_round
from pb.sampler import share_metrics

EXPERIMENTS_MD = os.path.join(ROOT, "EXPERIMENTS.md")
#: The committed ext_robustness point every pass reproduces.
ANCHOR_INTENSITY = 1.0
#: Run at its defaults after each pass; its whole block is compared.
BLOCK_ANCHORS = ["table2"]
#: Passes per run at least (traced runs alternate plain and traced).
MIN_PASSES = 3
SIM_COUNTERS = (
    "cache.fills", "cache.evictions", "replacement.transitions",
    "faults.activations",
)


def plan(seed: int) -> List:
    rng = seed % (2 ** 31)
    return [
        # Time-sliced scheduling (Algorithms 1 and 2, one noise process).
        ["ext_alg2_timesliced", {"samples": 20, "rng": rng}],
        # Hyper-threaded scheduling with every fault model active.
        ["ext_robustness", {"intensities": [ANCHOR_INTENSITY]}],
        # Monte-Carlo over the reference CacheSet.
        ["table1", {"trials": 100, "rng": rng}],
        # Miss-heavy SPEC-like traffic through the hierarchy.
        ["fig9", {"length": 600, "warmup": 200, "rng": rng}],
    ]


def committed_block(experiment_id: str, text: str = None) -> str:
    """The EXPERIMENTS.md block of one experiment, through its digest."""
    if text is None:
        with open(EXPERIMENTS_MD) as handle:
            text = handle.read()
    start = text.index(f"### {experiment_id}\n")
    end = text.index("\n", text.index("_metrics:", start)) + 1
    return text[start:end]


def table_rows(block: str) -> List[List[str]]:
    """Cells of each table row in a rendered block."""
    lines = block.split("\n")
    begin = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = []
    for line in lines[begin + 1:]:
        if line.startswith(("paper:", "notes:", "```")):
            break
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows


def check_pass(result: Dict, reference: Dict, traced: bool, text: str) -> int:
    """Failed operations of one pass (experiment runs and anchors)."""
    failed = 0
    committed = table_rows(committed_block("ext_robustness", text))
    rows = table_rows(result["blocks"]["ext_robustness"])
    if not rows or any(row not in committed for row in rows):
        failed += 1
    for eid, rows in result["rows"].items():
        if eid in reference and rows != reference[eid]:
            failed += 1
    for eid, block in result["anchors"].items():
        expected = committed_block(eid, text)
        if not traced:
            # Untraced runs carry no manifest or counters: compare the
            # block through its table.
            cut = block.index("```\n", block.index("```\n") + 4) + 4
            expected, block = expected[:cut], block[:cut]
        if block != expected:
            failed += 1
    return failed


def _sim_totals(result: Dict) -> Dict[str, float]:
    totals = {name: 0 for name in SIM_COUNTERS + ("sched.ops",)}
    for counters in result["counters"].values():
        for name in totals:
            totals[name] += counters.get(name, 0)
    return totals


def per_layer(passes: List[Dict], experiment_ids: List[str]) -> Dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {
        f"experiments.{eid}.wall_s": (
            median([p["times"][eid] for p in plain]), "s")
        for eid in experiment_ids
    }
    totals = [_sim_totals(p) for p in traced]
    for name in SIM_COUNTERS:
        metrics[name] = (totals[0][name], "count")
    sched_ops = totals[0]["sched.ops"]
    protocol_s = median([p["protocol_s"] for p in traced])
    metrics.update({
        "channels.protocol.calls": (traced[0]["protocol_calls"], "count"),
        "channels.protocol.wall_s": (protocol_s, "s"),
        "sim.sched_ops": (sched_ops, "count"),
        "sim.host_ns_per_op": (
            protocol_s * 1e9 / sched_ops if sched_ops else 0.0, "ns"),
    })
    metrics.update(share_metrics([p["sample_counts"] for p in traced]))
    metrics["trace.overhead_ratio"] = (
        median([p["wall_s"] for p in traced])
        / median([p["wall_s"] for p in plain]), "ratio")
    return metrics


def run(seed: int, seconds: float, trace: bool, run_dir: str):
    the_plan = plan(seed)
    log = os.path.join(run_dir, "sweep-worker.log")

    def one_pass(index: int) -> Dict:
        traced = trace and index % 2 == 1
        result = run_round(
            {"kind": "sweep", "plan": the_plan, "traced": traced,
             "anchors": BLOCK_ANCHORS},
            log,
        )
        result["traced"] = traced
        return result

    passes = repeat_rounds(
        seconds, MIN_PASSES + 1 if trace else MIN_PASSES, one_pass
    )
    with open(EXPERIMENTS_MD) as handle:
        text = handle.read()
    reference = passes[0]["rows"]
    failed = sum(check_pass(p, reference, p["traced"], text) for p in passes)
    if trace:
        # Simulated counts must repeat exactly between passes.
        totals = [_sim_totals(p) for p in passes if p["traced"]]
        failed += sum(1 for t in totals[1:] if t != totals[0])
    attempted = (len(the_plan) + len(BLOCK_ANCHORS)) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    e2e = {
        "setup_s": (median([p["setup_s"] for p in passes]), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "cpu_s": (median([p["cpu_s"] for p in plain]), "s"),
        "ops_per_cpu_s": (
            len(the_plan) * len(plain) / sum(p["cpu_s"] for p in plain),
            "1/s"),
        "sweep.wall_s": (median([p["wall_s"] for p in plain]), "s"),
    }
    sizes = {"passes": len(passes), "plan": the_plan,
             "block_anchors": BLOCK_ANCHORS}
    ids = [eid for eid, _ in the_plan]
    layers = dict(per_layer(passes, ids), **e2e) if trace else {}
    return attempted, failed, e2e, layers, sizes
