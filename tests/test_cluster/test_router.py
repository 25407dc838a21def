"""Router behavior: placement, failover, hedging, anti-entropy.

Two layers of test: ``_route`` unit tests against a scripted fake
transport (no sockets — exact control over refusals, failures, and
latencies), and full-fabric integration tests over the in-process
cluster harness.
"""

import asyncio
import time

import pytest

from repro.cluster import ClusterRouter, Membership, RouterConfig
from repro.cluster.ring import HashRing
from repro.service.jobspec import JobSpec
from repro.common.errors import PeerUnavailable
from repro.service.protocol import parse_request

from tests.test_service import fakes


def make_request(payload):
    import json

    return parse_request((json.dumps(payload) + "\n").encode())


def routing_key_of(payload):
    return JobSpec.from_request(make_request(payload)).routing_key


class TestRoutingKey:
    def test_run_key_fields(self):
        request = make_request(
            {"op": "run", "experiment_id": "alpha", "trials": 5}
        )
        assert (
            JobSpec.from_request(request).routing_key
            == "run/alpha/trials=5/defense=none"
        )

    def test_analyze_key_fields(self):
        request = make_request(
            {"op": "analyze", "policy": "tree-plru", "ways": 8}
        )
        assert (
            JobSpec.from_request(request).routing_key
            == "analyze/tree-plru/ways=8/defense=none"
        )

    def test_refresh_and_deadline_do_not_change_placement(self):
        plain = make_request({"op": "run", "experiment_id": "alpha"})
        dressed = make_request(
            {
                "op": "run",
                "experiment_id": "alpha",
                "refresh": True,
                "deadline_ms": 50,
            }
        )
        assert (
            JobSpec.from_request(plain).routing_key
            == JobSpec.from_request(dressed).routing_key
        )


class ScriptedTransport:
    """Peer name -> async callable(payload) -> (response, elapsed)."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = []

    async def request(self, peer, payload, timeout=None):
        self.calls.append(peer.name)
        return await self.behavior[peer.name](dict(payload))


def ok_response(name, degraded=False, latency=0.0):
    async def respond(payload):
        if latency:
            await asyncio.sleep(latency)
        response = {
            "v": 1,
            "status": "ok",
            "degraded": degraded,
            "source": "pool",
            "cache_key": "ab" * 32,
            "result": {"from": name},
        }
        return response, latency or 0.001

    return respond


def refuse(status):
    async def respond(payload):
        return {"v": 1, "status": status}, 0.001

    return respond


def unavailable():
    async def respond(payload):
        raise PeerUnavailable("scripted failure")

    return respond


def make_router(behavior, **config_overrides):
    membership = Membership.from_spec(
        ",".join(f"{name}=h:{7001 + i}"
                 for i, name in enumerate(sorted(behavior)))
    )
    config_overrides.setdefault("hedge_initial", 0.05)
    router = ClusterRouter(RouterConfig(**config_overrides), membership)
    router.transport = ScriptedTransport(behavior)
    return router


RUN = {"op": "run", "experiment_id": "alpha"}


class TestRouteUnit:
    def _route(self, router, payload):
        return asyncio.run(router._route(make_request(payload)))

    def test_happy_path_uses_primary(self):
        router = make_router(
            {"a": ok_response("a"), "b": ok_response("b"),
             "c": ok_response("c")}
        )
        primary = router.ring.preference(routing_key_of(RUN))[0]
        response = self._route(router, RUN)
        assert response["status"] == "ok"
        assert response["result"] == {"from": primary}
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.routed"] == {primary: 1}

    def test_transport_failure_fails_over(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key_of(RUN))
        router.transport.behavior[order[0]] = unavailable()
        response = self._route(router, RUN)
        assert response["status"] == "ok"
        assert response["result"] == {"from": order[1]}
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.failover"] >= 1
        assert counters["cluster.peer.failures"] == {order[0]: 1}

    def test_refusal_fails_over_and_is_last_resort_answer(self):
        behavior = {name: refuse("shed") for name in "abc"}
        router = make_router(behavior)
        response = self._route(router, RUN)
        # Every peer refused: the client sees the refusal (retryable),
        # never a transport error.
        assert response["status"] == "shed"

    def test_all_peers_dead_is_a_clean_error(self):
        router = make_router({name: unavailable() for name in "abc"})
        response = self._route(
            router, dict(RUN, request_id="req-9")
        )
        assert response["status"] == "error"
        assert response["request_id"] == "req-9"
        assert "no peer" in response["error"]["message"]

    def test_failed_peer_breaker_records_failures(self):
        router = make_router({name: unavailable() for name in "abc"})
        self._route(router, RUN)
        assert all(
            breaker._consecutive_failures >= 1
            for breaker in router.breakers.values()
        )

    def test_hedged_backup_wins_over_slow_primary(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior, hedge_initial=0.02)
        order = router.ring.preference(routing_key_of(RUN))
        router.transport.behavior[order[0]] = ok_response(
            order[0], latency=1.0
        )
        start = time.monotonic()
        response = self._route(router, RUN)
        elapsed = time.monotonic() - start
        assert response["result"] == {"from": order[1]}
        assert elapsed < 0.8, "hedge should beat the slow primary"
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.hedged"] == 1
        assert counters["cluster.hedge.wins"] == 1

    def test_fast_primary_never_hedges(self):
        router = make_router(
            {name: ok_response(name) for name in "abc"},
            hedge_initial=0.2,
        )
        self._route(router, RUN)
        counters = router.metrics.snapshot()["counters"]
        assert "cluster.requests.hedged" not in counters
        assert len(router.transport.calls) == 1

    def test_degraded_answer_schedules_repair(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key_of(RUN))
        router.transport.behavior[order[0]] = ok_response(
            order[0], degraded=True
        )
        response = self._route(router, RUN)
        assert response["degraded"] is True
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.responses.degraded"] == 1
        assert counters["cluster.repairs.scheduled"] == 1
        assert router.repairer._queue.qsize() == 1

    def test_expired_deadline_stops_attempts(self):
        router = make_router({name: ok_response(name) for name in "abc"})
        response = self._route(router, dict(RUN, deadline_ms=0))
        assert response["status"] == "error"
        assert router.transport.calls == []

    def test_open_breakers_are_tried_last(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior, breaker_failures=1)
        order = router.ring.preference(routing_key_of(RUN))
        router.breakers[order[0]].record_failure()
        assert router.breakers[order[0]].state == "open"
        response = self._route(router, RUN)
        assert response["result"] == {"from": order[1]}


class TestClusterIntegration:
    def test_ping_and_run_through_router(self, cluster_factory):
        cluster = cluster_factory()
        with cluster.client() as client:
            assert client.ping()["status"] == "pong"
            first = client.request("alpha")
            assert first["status"] == "ok"
            assert first["result"]["rows"] == [[22]]
            assert first["degraded"] is False
            second = client.request("alpha")
            assert second["source"] == "cache", (
                "repeat must land on the warm replica"
            )
            assert second["result"] == first["result"]

    def test_killed_primary_fails_over_exactly(self, cluster_factory):
        cluster = cluster_factory()
        key = routing_key_of({"op": "run", "experiment_id": "gamma"})
        primary = cluster.router.ring.preference(key)[0]
        cluster.kill_node(primary)
        with cluster.client() as client:
            response = client.request("gamma")
        assert response["status"] == "ok"
        assert response["degraded"] is False
        assert response["result"]["rows"] == [[333]]

    def test_stats_federation(self, cluster_factory):
        cluster = cluster_factory()
        cluster.kill_node("node2")
        with cluster.client() as client:
            stats = client.stats()
        assert stats["status"] == "stats"
        assert stats["node"] == "router"
        assert stats["members"] == ["node0", "node1", "node2"]
        assert stats["peers"]["node0"]["reachable"] is True
        assert stats["peers"]["node0"]["stats"]["node"] == "node0"
        assert stats["peers"]["node2"]["reachable"] is False
        assert set(stats["breakers"]) == {"node0", "node1", "node2"}

    def test_backfill_at_router_is_a_clean_error(self, cluster_factory):
        cluster = cluster_factory()
        with cluster.client() as client:
            response = client.roundtrip(
                {
                    "op": "backfill",
                    "cache_key": "ab" * 32,
                    "result": {"x": 1},
                    "checksum": "sha256:0",
                }
            )
            assert response["status"] == "error"
            assert "node-internal" in response["error"]["message"]
            # The connection survived the refused op.
            assert client.ping()["status"] == "pong"

    def test_forwarded_requests_are_counted_by_nodes(
        self, cluster_factory
    ):
        cluster = cluster_factory()
        with cluster.client() as client:
            client.request("alpha")
            stats = client.stats()
        forwarded = 0
        for entry in stats["peers"].values():
            counters = entry["stats"]["metrics"]["counters"]
            forwarded += counters.get("cluster.requests.forwarded", 0)
        assert forwarded >= 1


def find_primary(names, experiment_id):
    """Placement for an experiment, computed without a live cluster."""
    membership = Membership.from_spec(
        ",".join(f"{name}=h:{7100 + i}" for i, name in enumerate(names))
    )
    ring = HashRing(membership.peers, replicas=2)
    key = routing_key_of({"op": "run", "experiment_id": experiment_id})
    return ring.preference(key)


class TestAntiEntropy:
    def test_degraded_node_is_backfilled_with_exact_result(
        self, cluster_factory
    ):
        # Place a broken registry on alpha's primary: it can cache and
        # serve, but cannot *compute* alpha.
        order = find_primary(["node0", "node1", "node2"], "alpha")
        broken = order[0]
        broken_registry = dict(fakes.FAST_REGISTRY)
        broken_registry["alpha"] = fakes.run_alpha_boom
        cluster = cluster_factory(
            per_node_registry={broken: broken_registry},
            node_kwargs={"breaker_failures": 1, "retries": 0},
            router_kwargs={"health_interval": 0.2},
        )
        # Trip the broken node's pool breaker with direct requests so
        # it starts serving degraded stub answers.
        with cluster.node_client(broken) as direct:
            for _ in range(4):
                response = direct.request("alpha")
                if response.get("degraded"):
                    break
            assert response["degraded"] is True
            assert response["source"] == "stub"
        # Through the router: the degraded answer reaches the client
        # immediately and queues an anti-entropy repair.
        with cluster.client() as client:
            routed = client.request("alpha")
        assert routed["status"] == "ok"
        assert routed["degraded"] is True
        deadline = time.monotonic() + 10.0
        while (
            cluster.router.repairer.processed < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        counters = cluster.router.metrics.snapshot()["counters"]
        assert counters.get("cluster.repairs.completed") == 1
        # The broken node now serves the *exact* replica-computed
        # result from its backfilled cache (still flagged degraded —
        # its pool is still broken — but the payload is exact).
        with cluster.node_client(broken) as direct:
            healed = direct.request("alpha")
        assert healed["source"] == "cache"
        assert healed["result"]["rows"] == [[22]]
