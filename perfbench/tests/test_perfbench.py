"""Tests of the benchmark itself: names, sampler, smoke runs, gates.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from pb import metrics, sampler, served, sweep, trials, worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- names -------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_declares_the_reported_metrics():
    spec = _benchmark_json()
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(metrics.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "trials", "served"]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


# -- sampler -----------------------------------------------------------


def test_layer_mapping():
    assert sampler.layer_of("repro.sim.scheduler") == "self.sim.scheduler"
    assert sampler.layer_of("repro.cache.hierarchy") == "self.cache.hierarchy"
    assert sampler.layer_of("repro.cache.cache_set") == "self.cache.cache"
    assert sampler.layer_of("repro.faults.interrupts") == "self.faults"
    assert sampler.layer_of("repro.experiments.table1") == "self.other"


def test_sampled_shares_sum_to_one_and_follow_the_work():
    from repro.replacement import make_policy

    policy = make_policy("lru", 8)
    with sampler.LayerSampler(interval=0.001) as probe:
        import time

        end = time.process_time() + 0.4
        while time.process_time() < end:
            for way in range(8):
                policy.touch(way)
    shares = sampler.share_metrics([probe.counts, probe.counts])
    samples = shares.pop("sampler.samples")[0]
    assert samples == 2 * sum(probe.counts.values()) >= 40
    assert abs(sum(value for value, _ in shares.values()) - 1.0) < 1e-9
    # Almost all CPU time was spent inside repro.replacement; allow for
    # samples landing in the loop itself.
    assert shares["self.replacement"][0] > 0.5


# -- correctness gates -------------------------------------------------


def _sweep_pass():
    text = open(sweep.EXPERIMENTS_MD).read()
    committed = sweep.committed_block("ext_robustness", text)
    table2 = sweep.committed_block("table2", text)
    return text, {
        "blocks": {"ext_robustness": committed},
        "rows": {"table1": [["random", 1, "lru", "Seq 1", 1.0, 1.0]]},
        "anchors": {"table2": table2},
    }


def test_sweep_gate_accepts_committed_blocks():
    text, result = _sweep_pass()
    assert sweep.check_pass(result, result["rows"], True, text) == 0
    assert sweep.check_pass(result, result["rows"], False, text) == 0


def test_sweep_gate_rejects_a_perturbed_row():
    text, result = _sweep_pass()
    bad = copy.deepcopy(result)
    bad["blocks"]["ext_robustness"] = bad["blocks"]["ext_robustness"].replace(
        "0.0234", "0.0235"
    )
    assert sweep.check_pass(bad, result["rows"], False, text) == 1
    bad = copy.deepcopy(result)
    bad["rows"]["table1"][0][4] = 0.999
    assert sweep.check_pass(bad, result["rows"], False, text) == 1
    bad = copy.deepcopy(result)
    bad["anchors"]["table2"] = bad["anchors"]["table2"].replace(
        "transitions=63", "transitions=64"
    )
    assert sweep.check_pass(bad, result["rows"], True, text) == 1


def test_trials_gate_rejects_a_perturbed_row():
    from repro.experiments.runner import ExperimentRunner

    report = ExperimentRunner(retries=0).run_trials("alg1", 8, block_size=4)
    rows = [row for result in report.results for row in result.rows]
    assert worker.solo_rows("alg1", 4, 8, 2020) == rows[4:8]
    perturbed = copy.deepcopy(rows)
    perturbed[5][1] += 1
    assert worker.solo_rows("alg1", 4, 8, 2020) != perturbed[4:8]
    round_ok = {"per_alg": {"alg1": {"failures": 0}}, "check_mismatches": 0,
                "row_digest": {"alg1": "a"}}
    drifted = dict(round_ok, row_digest={"alg1": "b"})
    assert trials.count_failures([round_ok, round_ok], 4) == 0
    assert trials.count_failures([round_ok, drifted], 4) == 4


def test_served_gate_rejects_a_perturbed_response():
    cells = served.closed_cells()
    reference = served.Reference(cells)
    reference.prepare_trials({"alg1": 12, "alg2": 1})
    cell = cells[0]
    analyze = {"op": "analyze", "policy": cell["policy"],
               "ways": cell["ways"], "defense": cell["defense"]}
    assert reference.matches(analyze, copy.deepcopy(cell))
    bad = copy.deepcopy(cell)
    bad["reachable_states"] += 1
    assert not reference.matches(analyze, bad)
    run = {"op": "run", "experiment_id": "alg1", "trials": 12}
    good = reference.expected(run)
    assert reference.matches(run, copy.deepcopy(good))
    bad = copy.deepcopy(good)
    bad["rows"][0][1] += 1e-12
    assert not reference.matches(run, bad)
    table2 = {"op": "run", "experiment_id": "table2"}
    result = copy.deepcopy(reference.expected(table2))
    assert reference.matches(table2, result)
    result["rows"][0][1] = 5
    assert not reference.matches(table2, result)


# -- smoke runs --------------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(sweep, "MIN_PASSES", 2)
    monkeypatch.setattr(
        sweep,
        "plan",
        lambda seed: [
            ["ext_robustness", {"intensities": [1.0]}],
            ["table1", {"trials": 4, "rng": seed}],
        ],
    )
    monkeypatch.setattr(trials, "MIN_ROUNDS", 2)
    monkeypatch.setattr(trials, "TRIALS_PER_ROUND", 512)
    monkeypatch.setattr(served, "MIN_SEGMENTS", 2)
    monkeypatch.setattr(
        served, "SEGMENT_MIX",
        (("cold", 8), ("refresh", 2), ("analyze", 4), ("warm", 6)),
    )
    monkeypatch.setattr(served, "WARM_LAG", 4)


@pytest.mark.parametrize("workload", ["sweep", "trials", "served"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(tiny, workload, trace):
    import run

    result, record = run.run(workload, 5, 0.0, trace)
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in declared]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert all(v[0] > 0 for v in record["end_to_end"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert record["ledger"]["seed"] == 5 and record["ledger"]["nproc"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
