"""JobSpec: the one place a job's identity is derived.

The router places a request by ``routing_key``; the node caches its
answer under ``cache_key``.  Both come from one frozen spec, so these
tests pin the literal keys (a changed key orphans every durable cache
entry and moves every placement) and check that the two keys can never
disagree about which requests name the same result.
"""

import itertools
import json
from collections import defaultdict
from dataclasses import fields

import pytest

import repro
from repro.common.errors import ServiceError
from repro.defenses.registry import SIMULATED_DEFENSES
from repro.experiments.base import EXPERIMENT_REGISTRY
from repro.service.jobspec import JobSpec, analyze_defenses
from repro.service.protocol import Request, parse_request

from tests.test_service import fakes


def wire(**payload) -> Request:
    return parse_request((json.dumps(payload) + "\n").encode())


def spec_of(**payload) -> JobSpec:
    return JobSpec.from_request(wire(**payload))


@pytest.fixture(scope="module")
def registry():
    import repro.experiments  # noqa: F401 - populates the registry

    return EXPERIMENT_REGISTRY


class TestGoldenKeys:
    """Keys as the parent of the JobSpec refactor computed them."""

    GOLDEN = [
        (
            {"op": "run", "experiment_id": "table2"},
            "2572da3bed3de88190e60ed072ff62274701022a5e7b329fbd42f9e8eb1ae8ce",
        ),
        (
            {"op": "run", "experiment_id": "alg1", "trials": 50},
            "128d5a2db29cddb48e1455c7fe0ed84f8dac51449b1bde353e88496c6042c347",
        ),
        (
            {"op": "run", "experiment_id": "alg1", "defense": "ceaser"},
            "bb351e2c75e66f6fdfc44ccf341b4b1621c203a37d45a3c7b706264abdb0771b",
        ),
        (
            {"op": "analyze", "policy": "lru", "ways": 4},
            "782f54fafa63eaf98ab9401de8d1c0aa59de9739fb72b26ca4a5103a50b6923e",
        ),
    ]

    @pytest.mark.parametrize(
        "payload,key", GOLDEN, ids=["table2", "trials", "defended", "analyze"]
    )
    def test_cache_key_is_pinned(self, registry, payload, key):
        assert repro.__version__ == "1.0.0", (
            "cache keys hash the package version; re-pin them on a bump"
        )
        assert spec_of(**payload).cache_key(False, registry) == key

    def test_analyze_key_ignores_the_node_sanitizer(self, registry):
        spec = spec_of(op="analyze", policy="lru", ways=4)
        assert spec.cache_key(True, registry) == spec.cache_key(
            False, registry
        )

    def test_run_keys_follow_the_node_sanitizer(self, registry):
        spec = spec_of(op="run", experiment_id="table2")
        assert spec.cache_key(True, registry) != spec.cache_key(
            False, registry
        )

    def test_routing_keys_are_pinned(self):
        assert (
            spec_of(op="run", experiment_id="alpha", trials=5).routing_key
            == "run/alpha/trials=5/defense=none"
        )
        assert (
            spec_of(op="analyze", policy="tree-plru", ways=8).routing_key
            == "analyze/tree-plru/ways=8/defense=none"
        )
        assert (
            spec_of(op="run", experiment_id="alg2", defense="skew")
            .routing_key
            == "run/alg2/trials=0/defense=skew"
        )


class TestLabels:
    @pytest.mark.parametrize(
        "payload,kind,label",
        [
            ({"op": "run", "experiment_id": "fig4"}, "experiment", "fig4"),
            (
                {"op": "run", "experiment_id": "alg1", "trials": 8},
                "trials",
                "alg1@trials8",
            ),
            (
                {"op": "run", "experiment_id": "alg1", "defense": "fifo"},
                "defended",
                "alg1@fifo",
            ),
            (
                {"op": "analyze", "policy": "lru", "ways": 4},
                "analyze",
                "analyze/lru/ways=4/defense=none",
            ),
        ],
    )
    def test_kind_and_label(self, payload, kind, label):
        spec = spec_of(**payload)
        assert spec.kind == kind
        assert spec.label == label


class TestMembership:
    @pytest.mark.parametrize(
        "payload,message",
        [
            (
                {"op": "run", "experiment_id": "nope"},
                "unknown experiment 'nope'",
            ),
            (
                {"op": "run", "experiment_id": "table2", "trials": 4},
                "unknown batch algorithm 'table2'; "
                "choose from ['alg1', 'alg2']",
            ),
            (
                {"op": "run", "experiment_id": "table2", "defense": "skew"},
                "unknown defended channel 'table2'; "
                "choose from ['alg1', 'alg2', 'occupancy']",
            ),
            (
                {"op": "analyze", "policy": "tabled", "ways": 4},
                "unknown or non-analyzable policy 'tabled'",
            ),
        ],
    )
    def test_unknown_jobs_are_named(self, registry, payload, message):
        assert spec_of(**payload).unknown(registry) == message

    def test_known_jobs_pass(self, registry):
        for payload in (
            {"op": "run", "experiment_id": "table2"},
            {"op": "run", "experiment_id": "alg2", "trials": 4},
            {"op": "run", "experiment_id": "occupancy", "defense": "skew"},
            {"op": "analyze", "policy": "random", "ways": 4},
        ):
            assert spec_of(**payload).unknown(registry) is None, payload

    def test_injected_registry_replaces_the_global_one(self):
        spec = spec_of(op="run", experiment_id="alpha")
        assert spec.unknown(fakes.FAST_REGISTRY) is None
        assert spec.unknown({}) == "unknown experiment 'alpha'"

    def test_wire_defense_lists_come_from_their_registries(self):
        for defense in SIMULATED_DEFENSES:
            wire(op="run", experiment_id="alg1", defense=defense)
        for defense in analyze_defenses():
            wire(op="analyze", policy="lru", ways=4, defense=defense)
        with pytest.raises(ServiceError, match="expected one of"):
            wire(op="run", experiment_id="alg1", defense="partitioned")
        with pytest.raises(ServiceError, match="expected one of"):
            wire(op="analyze", policy="lru", ways=4, defense="fifo")


#: Request fields that change how a request is served, never which
#: result it names; neither key may depend on them.
SERVING_FIELDS = ("refresh", "deadline_ms", "request_id", "forwarded")
DRESSINGS = [
    dict(zip(SERVING_FIELDS, values))
    for values in itertools.product(
        (False, True), (None, 50), ("", "r-1"), (False, True)
    )
]


def identity_grid():
    """Undressed wire payloads: every kind × ids × trials × defenses."""
    grid = [
        {"op": "run", "experiment_id": eid} for eid in fakes.FAST_REGISTRY
    ]
    grid += [
        {"op": "run", "experiment_id": alg, "trials": trials}
        for alg in ("alg1", "alg2")
        for trials in (5, 50)
    ]
    grid += [
        {"op": "run", "experiment_id": channel, "defense": defense}
        for channel in ("alg1", "alg2", "occupancy")
        for defense in SIMULATED_DEFENSES
        if defense != "none"
    ]
    grid += [
        {"op": "analyze", "policy": policy, "ways": ways, "defense": defense}
        for policy in ("lru", "fifo", "tree-plru")
        for ways in (2, 4)
        for defense in analyze_defenses()
    ]
    return grid


class TestNoDrift:
    """Routing key and cache key partition requests identically."""

    def test_every_request_field_is_classified(self):
        identity = {f.name for f in fields(JobSpec)} - {"kind"}
        backfill = {"cache_key", "result", "checksum"}
        assert {f.name for f in fields(Request)} == (
            {"op"} | identity | set(SERVING_FIELDS) | backfill
        )

    def test_grid_varies_every_identity_field(self):
        specs = [JobSpec.from_request(wire(**p)) for p in identity_grid()]
        for name in (f.name for f in fields(JobSpec)):
            assert len({getattr(spec, name) for spec in specs}) >= 2, name

    def test_routing_key_shared_exactly_when_cache_key_shared(self):
        registry = dict(fakes.FAST_REGISTRY)
        by_routing = defaultdict(set)
        by_cache = defaultdict(set)
        by_identity = defaultdict(set)
        for payload in identity_grid():
            for dressing in DRESSINGS:
                spec = JobSpec.from_request(wire(**payload, **dressing))
                assert spec.unknown(registry) is None, payload
                routing = spec.routing_key
                cache = spec.cache_key(False, registry)
                by_routing[routing].add(cache)
                by_cache[cache].add(routing)
                by_identity[json.dumps(payload, sort_keys=True)].add(
                    (routing, cache)
                )
        assert all(len(keys) == 1 for keys in by_routing.values())
        assert all(len(keys) == 1 for keys in by_cache.values())
        # Dressing moves neither key, and distinct identities differ.
        assert all(len(keys) == 1 for keys in by_identity.values())
        assert len(by_routing) == len(by_identity)
