"""Defended runs through the service: parse gate, execution, caching.

The service's ``run`` op accepts a ``defense`` field (docs/DEFENSES.md):
the channel runs against the defended machine via
``run_defended_channel`` instead of a registered experiment.  These
tests cover the protocol validation (unknown designs, the structural
trials x defense exclusion), the end-to-end path, result caching, and
cache-key separation between defended runs and registered experiments.
"""

import json

import pytest

from repro.common.errors import ServiceError
from repro.defenses.registry import SIMULATED_DEFENSES
from repro.experiments.base import EXPERIMENT_REGISTRY
from repro.service.jobspec import JobSpec
from repro.service.protocol import parse_request

from . import fakes


def canonical(result):
    return json.dumps(result, sort_keys=True)


def _line(**payload) -> bytes:
    return json.dumps(payload).encode()


class TestParseGate:
    def test_run_defense_field_round_trips(self):
        request = parse_request(
            _line(op="run", experiment_id="alg1", defense="ceaser")
        )
        assert request.defense == "ceaser"

    def test_every_registered_simulable_design_parses(self):
        for defense in SIMULATED_DEFENSES:
            request = parse_request(
                _line(op="run", experiment_id="alg1", defense=defense)
            )
            assert request.defense == defense

    def test_unknown_defense_is_rejected_at_parse_time(self):
        with pytest.raises(ServiceError, match="defense"):
            parse_request(
                _line(op="run", experiment_id="alg1", defense="moat")
            )

    def test_trials_and_defense_cannot_combine(self):
        with pytest.raises(ServiceError, match="trials cannot be combined"):
            parse_request(
                _line(
                    op="run", experiment_id="alg1", defense="ceaser",
                    trials=8,
                )
            )


class TestDefendedExecution:
    def test_defended_run_matches_direct_execution(self, harness_factory):
        from repro.experiments.randomized import run_defended_channel

        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("alg1", defense="fifo")
        assert response["status"] == "ok"
        assert response["source"] == "pool"
        direct = run_defended_channel("alg1", defense="fifo").to_dict()
        assert canonical(response["result"]) == canonical(direct)

    def test_defended_results_are_cached(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            first = client.request("alg2", defense="no-hit-update")
            second = client.request("alg2", defense="no-hit-update")
        assert first["source"] == "pool"
        assert second["source"] == "cache"
        assert first["cache_key"] == second["cache_key"]

    def test_unknown_channel_behind_defense_is_an_error(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("alpha", defense="ceaser")
        assert response["status"] == "error"

    def test_defended_metric_is_recorded(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            client.request("alg1", defense="fifo")
        snapshot = harness.service.metrics.snapshot()
        assert snapshot["counters"]["service.requests.defended"]["fifo"] == 1


class TestCacheKeys:
    def test_defense_is_part_of_the_cache_key(self):
        import repro.experiments  # noqa: F401 - populates the registry

        plain, defended, other = (
            JobSpec.from_request(
                parse_request(
                    _line(op="run", experiment_id="occupancy", defense=d)
                )
            ).cache_key(False, EXPERIMENT_REGISTRY)
            for d in ("none", "ceaser", "skew")
        )
        assert len({plain, defended, other}) == 3
