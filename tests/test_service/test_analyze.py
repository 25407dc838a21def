"""The service's ``analyze`` op: static leakage answers over the wire.

Contract: every well-formed analyze request gets a deterministic,
cacheable answer computed from the policy tables with zero simulation —
including under chaos (corrupted cache entries, clients vanishing
mid-request) and across server restarts.  Refusals (state space beyond
the eager budget) are structured ``ok`` payloads, never errors.
"""

import json
import threading

from repro.analysis.leakage import analyze_policy
from repro.experiments.chaos import ServiceChaosConfig
from tests.test_service import fakes


def _analyze(client, policy, ways=4, **kwargs):
    response = client.analyze(policy, ways, **kwargs)
    assert response["status"] == "ok", response
    return response


class TestAnalyzeOp:
    def test_exact_analysis_over_the_wire(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = _analyze(client, "lru")
        result = response["result"]
        assert response["source"] == "analysis"
        assert not response["degraded"]
        assert result["mode"] == "exact"
        # Bit-identical to calling the analyzer in-process.
        assert result == analyze_policy("lru", 4).to_dict()

    def test_second_request_is_served_from_cache(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            first = _analyze(client, "tree-plru")
            second = _analyze(client, "tree-plru")
            stats = client.stats()
        assert first["source"] == "analysis"
        assert second["source"] == "cache"
        assert second["result"] == first["result"]
        counters = stats["metrics"]["counters"]
        assert counters["analysis.leakage.computed"] == {"tree-plru": 1}
        assert counters["analysis.leakage.requests"] == 2

    def test_defense_and_ways_are_distinct_cache_keys(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            plain = _analyze(client, "lru", 4)
            defended = _analyze(client, "lru", 4, defense="no-hit-update")
            wider = _analyze(client, "tree-plru", 8)
        keys = {
            plain["cache_key"],
            defended["cache_key"],
            wider["cache_key"],
        }
        assert len(keys) == 3
        assert plain["result"]["capacity_bits"]["hit-miss-limit"] > 0.0
        assert (
            defended["result"]["capacity_bits"]["hit-miss-limit"] == 0.0
        )

    def test_refusal_is_a_structured_ok_payload(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = _analyze(client, "lru", 16)
            stats = client.stats()
        result = response["result"]
        assert result["mode"] == "refused"
        assert "eager budget" in result["refusal"]
        counters = stats["metrics"]["counters"]
        assert counters["analysis.leakage.refused"] == 1

    def test_analytic_policy_answers_without_tables(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = _analyze(client, "random")
        assert response["result"]["mode"] == "analytic"
        assert (
            response["result"]["capacity_bits"]["hit-miss-limit"] == 0.0
        )

    def test_unknown_policy_is_a_protocol_error(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.analyze("clairvoyant", 4)
            assert response["status"] == "error"
            assert "clairvoyant" in response["error"]["message"]
            # The engine alias is rejected too, with the same shape.
            assert client.analyze("tabled", 4)["status"] == "error"
            # The connection survives the error.
            assert client.ping()["status"] == "pong"

    def test_malformed_analyze_requests_are_rejected(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            for payload in (
                {"op": "analyze"},  # no policy
                {"op": "analyze", "policy": "lru", "ways": 0},
                {"op": "analyze", "policy": "lru", "ways": True},
                {"op": "analyze", "policy": "lru", "ways": 4,
                 "defense": "prayer"},
            ):
                response = client.roundtrip(payload)
                assert response["status"] == "error", payload

    def test_admission_control_applies_to_analyze(self, harness_factory):
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), rate=0.001, burst=1
        )
        with harness.client() as client:
            assert client.analyze("lru", 4)["status"] == "ok"
            rejected = client.analyze("lru", 4)
        assert rejected["status"] == "rejected"
        assert rejected["retry_after_ms"] > 0

    def test_expired_deadline_degrades_instead_of_running(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.analyze("bit-plru", 4, deadline_ms=0)
        # Nothing cached yet and no time to compute: a degraded stub,
        # named after the job it stands in for.
        assert response["status"] == "ok"
        assert response["degraded"]
        assert response["error"]["type"] == "ExperimentTimeout"
        assert response["source"] == "stub"
        assert (
            response["result"]["experiment_id"]
            == "analyze/bit-plru/ways=4/defense=none"
        )

    def test_refresh_bypasses_the_cache_read(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            first = _analyze(client, "fifo")
            again = _analyze(client, "fifo", refresh=True)
        assert first["source"] == "analysis"
        assert again["source"] == "analysis"
        assert again["result"] == first["result"]


class TestAnalyzeUnderChaos:
    def test_corrupted_cache_entries_are_quarantined_and_recomputed(
        self, harness_factory
    ):
        # Every write is corrupted on disk: each read must detect the
        # bad checksum, quarantine the file, and recompute — the client
        # never sees an error or a wrong answer.
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY),
            chaos=ServiceChaosConfig(seed=5, corrupt_cache=1.0),
        )
        with harness.client() as client:
            first = _analyze(client, "lru")
            second = _analyze(client, "lru")
            stats = client.stats()
        assert first["source"] == "analysis"
        assert second["source"] == "analysis"  # cache entry was corrupt
        assert second["result"] == first["result"]
        counters = stats["metrics"]["counters"]
        assert counters["service.cache.corrupt"] >= 1

    def test_client_disconnect_mid_analyze_leaves_server_healthy(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        client = harness.client()
        client.send_only(
            {"op": "analyze", "policy": "srrip", "ways": 4,
             "defense": "none"}
        )
        client.close()  # vanish without reading the response
        with harness.client() as fresh:
            response = _analyze(fresh, "srrip")
            assert fresh.ping()["status"] == "pong"
        assert response["result"]["mode"] == "exact"

    def test_concurrent_analyze_burst_has_zero_client_errors(
        self, harness_factory
    ):
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), rate=500.0, burst=200
        )
        policies = ["lru", "tree-plru", "bit-plru", "fifo", "random"]
        responses = []
        errors = []
        lock = threading.Lock()

        def worker(policy):
            try:
                with harness.client() as client:
                    for _ in range(4):
                        response = client.analyze(policy, 4)
                        with lock:
                            responses.append((policy, response))
            except Exception as error:  # noqa: BLE001 - the assertion
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(p,)) for p in policies
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        assert len(responses) == len(policies) * 4
        expected = {
            p: analyze_policy(p, 4).to_dict() for p in policies
        }
        for policy, response in responses:
            assert response["status"] == "ok", response
            assert response["result"] == expected[policy]


class TestAnalyzeDurability:
    def test_restart_serves_identical_results_from_disk(
        self, harness_factory, tmp_path
    ):
        cache_dir = str(tmp_path / "analyze-durable")
        first_harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), cache_dir=cache_dir
        )
        with first_harness.client() as client:
            original = _analyze(client, "lru")
        first_harness.stop()

        second_harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), cache_dir=cache_dir
        )
        with second_harness.client() as client:
            revived = _analyze(client, "lru")
        assert revived["source"] == "cache"
        assert revived["result"] == original["result"]

    def test_draining_server_tells_analyze_clients_to_retry(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        harness.service.draining = True
        try:
            with harness.client() as client:
                response = client.analyze("lru", 4)
            assert response["status"] == "draining"
        finally:
            harness.service.draining = False

    def test_wire_result_is_canonical_json_safe(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = _analyze(client, "srrip", 4)
        # The payload survives a JSON round-trip bit-identically (no
        # floats that lose precision, no non-JSON types).
        result = response["result"]
        assert json.loads(json.dumps(result)) == result
