"""Defense registry: one source of truth for CLI, service, analyzer.

docs/DEFENSES.md promises that every evaluable defense is one
``DefenseDesign`` entry and that the simulated-machine builder and the
analyzer's refusal list both mirror it (the service's ``run`` op reads
``SIMULATED_DEFENSES`` directly).  These tests police those mirrors.
"""

import pytest

from repro.analysis.leakage import RANDOMIZED_DEFENSES, analyze_policy
from repro.cache.randomized_index import (
    RandomizedIndexCache,
    SkewedAssociativeCache,
)
from repro.common.errors import ConfigurationError
from repro.common.types import MemoryAccess
from repro.defenses.registry import (
    DEFENSE_REGISTRY,
    RANDOMIZED_DESIGNS,
    SIMULATED_DEFENSES,
    defended_machine,
    get_design,
)


class TestRegistryContents:
    def test_expected_designs(self):
        assert set(DEFENSE_REGISTRY) == {
            "none", "fifo", "random", "no-hit-update", "partitioned",
            "ceaser", "skew",
        }

    def test_kinds(self):
        kinds = {name: d.kind for name, d in DEFENSE_REGISTRY.items()}
        assert kinds["none"] == "baseline"
        assert kinds["ceaser"] == kinds["skew"] == "randomized"
        assert all(
            kinds[name] == "replacement"
            for name in ("fifo", "random", "no-hit-update", "partitioned")
        )

    def test_partitioned_is_analysis_only(self):
        assert not DEFENSE_REGISTRY["partitioned"].simulated
        assert "partitioned" not in SIMULATED_DEFENSES

    def test_randomized_designs_derived(self):
        assert RANDOMIZED_DESIGNS == ("ceaser", "skew")

    def test_get_design_unknown_is_loud(self):
        with pytest.raises(ConfigurationError, match="unknown defense"):
            get_design("moat")


class TestMirrors:
    def test_analyzer_refusal_list_mirrors_randomized_designs(self):
        assert tuple(RANDOMIZED_DEFENSES) == RANDOMIZED_DESIGNS

    def test_every_design_has_an_evaluation_track(self):
        for design in DEFENSE_REGISTRY.values():
            statically_scored = design.analyzer_policy is not None
            dynamically_scored = design.simulated
            assert statically_scored or dynamically_scored


class TestDefendedMachine:
    @pytest.mark.parametrize("name", SIMULATED_DEFENSES)
    def test_builds_and_serves_accesses(self, name):
        machine = defended_machine(name, rng=3)
        access = MemoryAccess(address=0x4040)
        assert not machine.l1.lookup(access).hit
        machine.l1.fill(access)
        assert machine.l1.lookup(access).hit

    def test_analysis_only_design_refuses_a_machine(self):
        with pytest.raises(ConfigurationError, match="analysis-only"):
            defended_machine("partitioned")

    def test_policy_swap_designs_rewrite_the_spec(self):
        assert defended_machine("fifo", rng=3).spec.hierarchy.l1.policy == "fifo"
        config = defended_machine("no-hit-update", rng=3).spec.hierarchy.l1
        assert config.update_lru_on_hit is False

    def test_randomized_designs_install_keyed_caches(self):
        assert isinstance(defended_machine("ceaser", rng=3).l1, RandomizedIndexCache)
        assert isinstance(defended_machine("skew", rng=3).l1, SkewedAssociativeCache)

    def test_one_seed_pins_the_index_keys(self):
        one = defended_machine("ceaser", rng=3).l1
        two = defended_machine("ceaser", rng=3).l1
        other = defended_machine("ceaser", rng=4).l1
        probe = [line * 64 for line in range(256)]
        assert [one.index_of(a) for a in probe] == [two.index_of(a) for a in probe]
        assert [one.index_of(a) for a in probe] != [other.index_of(a) for a in probe]


class TestAnalyzerRefusals:
    @pytest.mark.parametrize("defense", RANDOMIZED_DESIGNS)
    def test_randomized_designs_are_refused_with_rationale(self, defense):
        cell = analyze_policy("tree-plru", 4, defense=defense)
        assert cell.mode == "refused"
        assert cell.refusal
        assert "docs/DEFENSES.md" in (cell.notes or "")

    def test_unknown_policy_still_raises_under_randomized_defense(self):
        with pytest.raises(ConfigurationError, match="policy"):
            analyze_policy("nope", 4, defense="ceaser")

    def test_unknown_defense_still_raises(self):
        with pytest.raises(ConfigurationError, match="defense"):
            analyze_policy("tree-plru", 4, defense="moat")
