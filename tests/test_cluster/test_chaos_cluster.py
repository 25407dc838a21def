"""Cluster chaos acceptance: node death + partition under live load.

The ISSUE-10 acceptance scenario: a 3-node cluster with one peer link
partitioned and one node SIGKILLed *while a 200-request batch is in
flight* completes the batch with zero client errors, every answer
exact-or-degraded, and the answer stream bit-identical across a
seed-identical rerun.  Determinism under chaos is the paper
reproduction's whole contract: any replica computes any key
bit-identically, so *which* node answered is invisible in the results.
"""

import json
import threading
import time

import pytest

from repro.cluster.chaos import ClusterChaosConfig
from repro.service.jobspec import JobSpec
from repro.service.loadgen import build_schedule, run_load
from repro.service.protocol import parse_request

from tests.test_service import fakes

EXPERIMENTS = ["alpha", "beta", "gamma", "delta"]
EXPECTED_ROWS = {
    "alpha": [[22]],
    "beta": [[23]],
    "gamma": [[333]],
    "delta": [[1936]],
}


class TestChaosConfig:
    def test_decisions_replay_from_seed(self):
        first = ClusterChaosConfig(
            seed=9, slow_peer=0.3, stall_seconds=0.1
        )
        second = ClusterChaosConfig(
            seed=9, slow_peer=0.3, stall_seconds=0.1
        )
        decisions = [
            first.decide_stall("node1", sequence) for sequence in range(200)
        ]
        assert decisions == [
            second.decide_stall("node1", sequence)
            for sequence in range(200)
        ]
        assert any(decisions) and not all(decisions)

    def test_partition_is_static(self):
        chaos = ClusterChaosConfig(seed=1, partitioned=("node1",))
        assert chaos.is_partitioned("node1")
        assert not chaos.is_partitioned("node0")

    def test_round_trips_through_dict(self):
        chaos = ClusterChaosConfig(
            seed=3,
            partitioned=("node2",),
            slow_peer=0.5,
            stall_seconds=0.25,
            only_peers=("node0",),
        )
        assert ClusterChaosConfig.from_dict(chaos.to_dict()) == chaos

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ClusterChaosConfig(slow_peer=1.5)


def routed_total(router):
    counters = router.metrics.snapshot()["counters"]
    routed = counters.get("cluster.requests.routed", {})
    return sum(routed.values())


def run_acceptance_batch(cluster_factory, load_seed):
    """One full chaos batch; returns the LoadReport."""
    cluster = cluster_factory(
        router_kwargs={
            "chaos": ClusterChaosConfig(seed=7, partitioned=("node1",)),
            "health_interval": 0.2,
            "seed": 7,
        }
    )
    schedule = build_schedule(200, EXPERIMENTS, seed=load_seed)
    holder = {}

    def load():
        holder["report"] = run_load(
            "127.0.0.1", cluster.router_port, schedule, timeout=30.0
        )

    thread = threading.Thread(target=load)
    thread.start()
    # SIGKILL semantics mid-batch: wait until the router has answered
    # some requests, then abort a live node under the running load.
    deadline = time.monotonic() + 30.0
    while routed_total(cluster.router) < 40:
        assert time.monotonic() < deadline, "batch never got going"
        time.sleep(0.005)
    cluster.kill_node("node2")
    thread.join(120.0)
    assert not thread.is_alive(), "load batch hung"
    return holder["report"]


class TestChaosAcceptance:
    def test_batch_survives_kill_and_partition_bit_identically(
        self, cluster_factory
    ):
        first = run_acceptance_batch(cluster_factory, load_seed=42)
        assert first.total == 200
        assert first.client_errors == 0
        assert first.by_status == {"ok": 200}
        for response in first.responses:
            assert response["status"] == "ok"
            # Exact-or-degraded: an "ok" answer either carries the
            # exact result or is explicitly flagged degraded.  With
            # only node faults (no broken pools) every answer is exact.
            assert response["degraded"] is False
        # Seed-identical rerun on a fresh cluster: the answer stream is
        # bit-identical, regardless of which nodes happened to serve.
        second = run_acceptance_batch(cluster_factory, load_seed=42)
        assert second.client_errors == 0
        first_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in first.responses
        ]
        second_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in second.responses
        ]
        assert first_stream == second_stream

    def test_every_result_is_the_expected_exact_payload(
        self, cluster_factory
    ):
        report = run_acceptance_batch(cluster_factory, load_seed=5)
        assert report.client_errors == 0
        for response in report.responses:
            experiment_id = response["result"]["experiment_id"]
            assert (
                response["result"]["rows"]
                == EXPECTED_ROWS[experiment_id]
            )


class TestMidRequestKill:
    def test_kill_while_serving_fails_over(self, cluster_factory):
        registry = dict(fakes.FAST_REGISTRY)
        registry["sleepy"] = fakes.run_sleepy
        cluster = cluster_factory(
            registry=registry,
            router_kwargs={"hedge_initial": 5.0, "hedge_warmup": 10**6},
        )
        key = JobSpec.from_request(
            parse_request(b'{"op": "run", "experiment_id": "sleepy"}\n')
        ).routing_key
        primary = cluster.router.ring.preference(key)[0]
        holder = {}

        def request():
            with cluster.client(timeout=30.0) as client:
                holder["response"] = client.request("sleepy")

        thread = threading.Thread(target=request)
        thread.start()
        # run_sleepy blocks its node for 0.4s; kill the serving node
        # while the request is in flight.
        time.sleep(0.15)
        cluster.kill_node(primary)
        thread.join(30.0)
        assert not thread.is_alive()
        response = holder["response"]
        assert response["status"] == "ok"
        assert response["degraded"] is False
        assert response["result"]["rows"] == [[2]]


class TestSlowPeerHedging:
    def test_hedge_rescues_a_stalling_primary(self, cluster_factory):
        key = JobSpec.from_request(
            parse_request(b'{"op": "run", "experiment_id": "alpha"}\n')
        ).routing_key
        # Compute placement up front so only the primary stalls.
        from repro.cluster import Membership
        from repro.cluster.ring import HashRing

        names = ["node0", "node1", "node2"]
        membership = Membership.from_spec(
            ",".join(f"{n}=h:{7300 + i}" for i, n in enumerate(names))
        )
        primary = HashRing(membership.peers, replicas=2).preference(key)[0]
        cluster = cluster_factory(
            router_kwargs={
                "chaos": ClusterChaosConfig(
                    seed=3,
                    slow_peer=1.0,
                    stall_seconds=2.0,
                    only_peers=(primary,),
                ),
                "hedge_initial": 0.05,
                "health_interval": 30.0,
            }
        )
        start = time.monotonic()
        with cluster.client(timeout=30.0) as client:
            response = client.request("alpha")
        elapsed = time.monotonic() - start
        assert response["status"] == "ok"
        assert response["result"]["rows"] == [[22]]
        assert elapsed < 1.5, "the hedged backup should answer first"
        counters = cluster.router.metrics.snapshot()["counters"]
        assert counters.get("cluster.requests.hedged", 0) >= 1
        assert counters.get("cluster.hedge.wins", 0) >= 1
