"""A simulated machine: one core's memory system, timer, and scheduler.

``Machine`` is the top-level object experiments instantiate.  It owns a
:class:`CacheHierarchy` built from a :class:`MachineSpec`, a matching
:class:`TimestampCounter`, and constructs the requested sharing-mode
scheduler over a set of thread programs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import StridePrefetcher
from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.faults.base import FaultInjector, FaultModel
from repro.obs.session import active as obs_active
from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler
from repro.sim.specs import INTEL_E5_2690, MachineSpec
from repro.sim.thread import SimThread
from repro.timing.tsc import TimestampCounter


class Machine:
    """One simulated core with its cache hierarchy and timer.

    Args:
        spec: Platform description; defaults to the Intel Xeon E5-2690,
            the paper's primary evaluation machine.
        rng: Master seed for all stochastic components of this machine.
        l1_cache: Optional pre-built L1 (PL cache, random-fill cache)
            replacing the spec's default.
        prefetcher: Optional stride prefetcher (Spectre noise model).
        invisible_speculation: Enable the InvisiSpec-style defense.
        faults: Fault models to inject into every run on this machine
            (Section VIII environment noise).  More can be attached
            later through :attr:`faults`.
        sanitize: Wrap this machine's caches, replacement policies, and
            schedulers in invariant-checking proxies
            (:mod:`repro.analysis.sanitize`); state corruption raises
            :class:`~repro.common.errors.InvariantViolation` at the
            offending transition.  ``None`` (the default) follows the
            process-wide flag set by the CLI's ``--sanitize``.
    """

    def __init__(
        self,
        spec: MachineSpec = INTEL_E5_2690,
        rng: RngLike = None,
        l1_cache: Optional[SetAssociativeCache] = None,
        prefetcher: Optional[StridePrefetcher] = None,
        invisible_speculation: bool = False,
        faults: Optional[Sequence[FaultModel]] = None,
        sanitize: Optional[bool] = None,
    ):
        self.spec = spec
        self.rng = make_rng(rng)
        self.hierarchy = CacheHierarchy(
            spec.hierarchy,
            rng=spawn_rng(self.rng, "hierarchy"),
            l1_cache=l1_cache,
            prefetcher=prefetcher,
            invisible_speculation=invisible_speculation,
        )
        session = obs_active()
        if session is not None:
            session.note_machine(spec.name)
        self.tsc = TimestampCounter(spec.tsc, rng=spawn_rng(self.rng, "tsc"))
        # The injector draws its RNG lazily on first attach, so a
        # fault-free machine consumes exactly the same seed stream as
        # before the fault framework existed.
        self.faults = FaultInjector(
            self.hierarchy, rng_source=lambda: spawn_rng(self.rng, "faults")
        )
        if faults:
            self.faults.attach_all(faults)
        # Imported lazily: repro.analysis builds on the cache layer, so
        # a module-level import here would be circular-adjacent and
        # would tax every Machine construction with the lint machinery.
        if sanitize is None:
            from repro.analysis.sanitize import sanitize_enabled

            sanitize = sanitize_enabled()
        if sanitize:
            from repro.analysis.sanitize import sanitize_machine

            sanitize_machine(self)

    def hyper_threaded(
        self, threads: Sequence[SimThread], jitter: float = 2.0
    ) -> HyperThreadedScheduler:
        """SMT scheduler over this machine's hierarchy."""
        return HyperThreadedScheduler(
            self.hierarchy,
            threads,
            rng=spawn_rng(self.rng, "smt"),
            jitter=jitter,
            faults=self.faults,
        )

    def time_sliced(
        self,
        threads: Sequence[SimThread],
        quantum: float = 4.0e6,
        switch_cost: float = 2_000.0,
    ) -> TimeSlicedScheduler:
        """OS time-sharing scheduler over this machine's hierarchy."""
        return TimeSlicedScheduler(
            self.hierarchy,
            threads,
            quantum=quantum,
            switch_cost=switch_cost,
            rng=spawn_rng(self.rng, "slice"),
            faults=self.faults,
        )

    @property
    def l1(self):
        return self.hierarchy.l1

    @property
    def l2(self):
        return self.hierarchy.l2

    def __repr__(self) -> str:
        return f"Machine({self.spec.name})"
