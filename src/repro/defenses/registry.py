"""First-class registry of evaluable cache defenses (paper Section IX).

Every defense the repo can *evaluate* — by simulation, by static
analysis, or both — gets one :class:`DefenseDesign` entry here, so the
CLI (``run <channel> --defense X``), the service ``run`` op, the
``ext_randomized`` evaluation matrix, and ``docs/DEFENSES.md`` all draw
from one source of truth.

Three defense families:

* **Replacement-state defenses** (Section IX-A): change or suppress the
  state the channel modulates — ``fifo``, ``random``, ``no-hit-update``
  (InvisiSpec-style), ``partitioned`` (DAWG-style).  These keep the
  modulo set mapping, so the static leakage analyzer scores them
  exactly over the compiled policy tables.
* **Randomized-index defenses** (Section IX-B / PAPERS.md addendum):
  hide *which* set an address maps to — ``ceaser`` (keyed index, epoch
  remap support), ``skew`` (per-way hashing + random-way replacement).
  The analyzer emits structured refusals for these (the leak is no
  longer a closed per-set transition system); they are scored
  dynamically through the BER harness.
* **Baseline** — ``none``, the undefended tree-PLRU L1.

:func:`defended_machine` turns an entry into a ready
:class:`~repro.sim.machine.Machine` so every channel runs against every
simulable design with one call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.randomized_index import (
    RandomizedIndexCache,
    SkewedAssociativeCache,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.faults.base import FaultModel
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690, MachineSpec


@dataclass(frozen=True)
class DefenseDesign:
    """One evaluable cache-defense design.

    Attributes:
        name: Registry key (CLI/service ``--defense`` value).
        kind: ``"baseline"``, ``"replacement"``, or ``"randomized"``.
        description: One-line summary for docs and reports.
        paper_section: Where the paper (or PAPERS.md addendum) treats it.
        l1_policy: Replacement policy for the L1 (None keeps the spec's).
        update_lru_on_hit: False models InvisiSpec-style suppression of
            hit-path state updates.
        index_scheme: ``"keyed"`` or ``"skew"`` for randomized designs;
            None keeps modulo indexing.
        remap_period: CEASER re-key interval in lookups (0 = no
            periodic remap; epochs can still be rotated via ``remap()``).
        analyzer_policy: Policy name the static leakage analyzer scores
            for this design (None: analyzer refuses — see
            ``repro.analysis.leakage.RANDOMIZED_DEFENSES``).
        analyzer_defense: Defense flag passed to the analyzer alongside
            ``analyzer_policy``.
        simulated: Whether :func:`defended_machine` can build it (the
            partitioned design is scored statically only — its
            domain-aware policy needs per-access domain tags the channel
            programs don't carry).
    """

    name: str
    kind: str
    description: str
    paper_section: str
    l1_policy: Optional[str] = None
    update_lru_on_hit: bool = True
    index_scheme: Optional[str] = None
    remap_period: int = 0
    analyzer_policy: Optional[str] = None
    analyzer_defense: str = "none"
    simulated: bool = True


DEFENSE_REGISTRY: Dict[str, DefenseDesign] = {
    design.name: design
    for design in (
        DefenseDesign(
            name="none",
            kind="baseline",
            description="Undefended tree-PLRU L1 (the paper's target)",
            paper_section="II-B",
            analyzer_policy="tree-plru",
        ),
        DefenseDesign(
            name="fifo",
            kind="replacement",
            description="FIFO replacement: hits leave state untouched",
            paper_section="IX-A",
            l1_policy="fifo",
            analyzer_policy="fifo",
        ),
        DefenseDesign(
            name="random",
            kind="replacement",
            description="Random replacement: no recency state at all",
            paper_section="IX-A",
            l1_policy="random",
            analyzer_policy="random",
        ),
        DefenseDesign(
            name="no-hit-update",
            kind="replacement",
            description="Suppress LRU updates on hits (InvisiSpec-style)",
            paper_section="IX-C",
            update_lru_on_hit=False,
            analyzer_policy="tree-plru",
            analyzer_defense="no-hit-update",
        ),
        DefenseDesign(
            name="partitioned",
            kind="replacement",
            description="DAWG-style per-domain PLRU state partitioning",
            paper_section="IX-B",
            l1_policy="partitioned-plru",
            analyzer_policy="partitioned-plru",
            simulated=False,
        ),
        DefenseDesign(
            name="ceaser",
            kind="randomized",
            description="CEASER: keyed set index with epoch remapping",
            paper_section="IX-B / addendum",
            index_scheme="keyed",
        ),
        DefenseDesign(
            name="skew",
            kind="randomized",
            description="ScatterCache: per-way hashing, random-way fill",
            paper_section="IX-B / addendum",
            index_scheme="skew",
        ),
    )
}

#: Designs :func:`defended_machine` can build, in registry order.
SIMULATED_DEFENSES: Tuple[str, ...] = tuple(
    name for name, d in DEFENSE_REGISTRY.items() if d.simulated
)

#: Randomized-index designs (static analyzer refuses these).
RANDOMIZED_DESIGNS: Tuple[str, ...] = tuple(
    name for name, d in DEFENSE_REGISTRY.items() if d.kind == "randomized"
)


def get_design(name: str) -> DefenseDesign:
    """Look up a defense design, with a helpful error."""
    try:
        return DEFENSE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown defense {name!r}; known: {sorted(DEFENSE_REGISTRY)}"
        ) from None


def defended_machine(
    name: str,
    rng: RngLike = None,
    spec: MachineSpec = INTEL_E5_2690,
    faults: Optional[Sequence[FaultModel]] = None,
) -> Machine:
    """Build a machine whose L1 implements the named defense.

    Replacement-state designs are applied by rewriting the spec's L1
    config (policy swap / hit-update suppression); randomized designs
    install a pre-built keyed L1 (:class:`RandomizedIndexCache` /
    :class:`SkewedAssociativeCache`), which the hierarchy uses as given.

    Args:
        name: Key in :data:`DEFENSE_REGISTRY`.
        rng: Master seed; the defense key stream is spawned from it, so
            one seed pins both the machine and the index keys.
        spec: Platform to defend (default: the paper's E5-2690).
        faults: Fault models for the machine (intensity sweeps).
    """
    design = get_design(name)
    if not design.simulated:
        raise ConfigurationError(
            f"defense {name!r} is analysis-only (no simulated machine); "
            f"score it via 'python -m repro.analysis leakage'"
        )
    if design.index_scheme is not None:
        l1_config = spec.hierarchy.l1
        key_rng = spawn_rng(make_rng(rng), f"defense-{name}")
        if design.index_scheme == "keyed":
            l1 = RandomizedIndexCache(
                l1_config, rng=key_rng, remap_period=design.remap_period
            )
        else:
            l1 = SkewedAssociativeCache(l1_config, rng=key_rng)
        return Machine(spec=spec, rng=rng, l1_cache=l1, faults=faults)
    l1_config = spec.hierarchy.l1
    if design.l1_policy is not None:
        l1_config = replace(l1_config, policy=design.l1_policy)
    if not design.update_lru_on_hit:
        l1_config = replace(l1_config, update_lru_on_hit=False)
    if l1_config is not spec.hierarchy.l1:
        spec = replace(
            spec, hierarchy=replace(spec.hierarchy, l1=l1_config)
        )
    return Machine(spec=spec, rng=rng, faults=faults)
