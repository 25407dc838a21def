"""Artifacts written while the simulator still had an engine switch.

``legacy/`` holds a ``run table2 --checkpoint --trace`` pair written by
repro 1.0.0 when manifests carried an ``engine`` field (top level, per
machine entry, and in the trace's run header).  Those files must keep
loading: the field is ignored, the checkpoint resumes without re-running,
and the trace renders through ``python -m repro report``.
"""

import json
import os
import shutil

import repro.experiments  # noqa: F401 - populates the registry
from repro.__main__ import main
from repro.experiments.runner import ExperimentRunner
from repro.obs.manifest import RunManifest
from repro.obs.report import experiment_block

from tests.test_obs.test_trace_report_integration import committed_block

LEGACY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "legacy")


def legacy_copy(tmp_path, name):
    """A scratch copy: a failed integrity check would quarantine it."""
    path = str(tmp_path / name)
    shutil.copyfile(os.path.join(LEGACY, name), path)
    return path


def legacy_manifests():
    with open(os.path.join(LEGACY, "checkpoint.json")) as handle:
        checkpoint = json.load(handle)["data"]
    with open(os.path.join(LEGACY, "trace.jsonl")) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    (from_trace,) = [r for r in records if r["type"] == "manifest"]
    return [checkpoint["obs"]["table2"]["manifest"], from_trace]


def test_artifacts_carry_the_engine_field():
    for data in legacy_manifests():
        assert data["engine"] == "reference"
        assert all(entry["engine"] for entry in data["machines"])


def test_manifests_load_and_render_the_committed_footer():
    footer = committed_block("table2").splitlines()[-2]
    for data in legacy_manifests():
        manifest = RunManifest.from_dict(data)
        assert "engine" not in manifest.to_dict()
        assert manifest.footer_line() == footer


def test_checkpoint_resumes_without_rerunning(tmp_path):
    checkpoint = legacy_copy(tmp_path, "checkpoint.json")
    runner = ExperimentRunner(observe=True, checkpoint_path=checkpoint)
    report = runner.run_many(["table2"])
    assert report.ok
    assert report.resumed == ["table2"]
    capture = runner.captures["table2"]
    block = experiment_block(
        report.results[0], capture.manifest, capture.metrics
    )
    assert block == committed_block("table2")


def test_trace_renders_through_report(tmp_path, capsys):
    trace = legacy_copy(tmp_path, "trace.jsonl")
    assert main(["report", trace]) == 0
    out = capsys.readouterr().out
    assert "engine" not in out.split("\n## ")[0]
    assert committed_block("table2") in out
