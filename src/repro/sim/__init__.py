"""Execution substrate: threads, schedulers, and machine presets.

Thread programs are generators over the operations in
:mod:`repro.sim.ops`; the schedulers realize the paper's two
co-residency modes (hyper-threaded SMT and OS time-slicing); the
machine specs encode the paper's three evaluation platforms.
"""

from repro.sim.fastpath import FastSetAssociativeCache
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, ReadTSC, READ_TSC_COST, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler
from repro.sim.specs import (
    ALL_SPECS,
    AMD_EPYC_7571,
    INTEL_E3_1245V5,
    INTEL_E5_2690,
    INTEL_E5_2690_3LEVEL,
    MachineSpec,
)
from repro.sim.thread import SimThread
from repro.sim.tracing import AccessEvent, AccessTracer

__all__ = [
    "ALL_SPECS",
    "AccessEvent",
    "AccessTracer",
    "AMD_EPYC_7571",
    "Access",
    "Compute",
    "FastSetAssociativeCache",
    "HyperThreadedScheduler",
    "INTEL_E3_1245V5",
    "INTEL_E5_2690",
    "INTEL_E5_2690_3LEVEL",
    "Machine",
    "MachineSpec",
    "READ_TSC_COST",
    "ReadTSC",
    "SimThread",
    "SleepUntil",
    "TimeSlicedScheduler",
]
