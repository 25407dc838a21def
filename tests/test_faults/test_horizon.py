"""The fault injector's event horizon changes no run.

``FaultInjector.on_time_advance`` skips the per-model fan-out while
simulated time is below the earliest pending Poisson arrival.  These
tests pin the contract: models that override ``on_time_advance`` are
still polled on every call, attaching a model resets the horizon, a
zero-rate model never fires, and a seeded hyper-threaded run reports
the same activations, event log and stalls as polling every model on
every operation.
"""

import pytest

from repro.channels import (
    CovertChannelProtocol,
    ProtocolConfig,
    SharedMemoryLRUChannel,
    sample_bits,
)
from repro.common.rng import make_rng
from repro.faults import InterruptBurstFault, standard_fault_suite
from repro.faults.base import FaultInjector, FaultModel
from repro.obs.session import ObsSession, observe
from repro.sim import INTEL_E5_2690, Machine
from repro.sim.ops import Access, Compute
from repro.sim.thread import SimThread


class Polled(FaultModel):
    """Overrides ``on_time_advance``; records every time it is asked."""

    name = "polled"
    injection_points = ("time-advance",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_time_advance(self, now):
        self.seen.append(now)
        return 0.0


def _injector(hierarchy):
    return FaultInjector(hierarchy, rng_source=lambda: make_rng(5))


@pytest.fixture
def machine():
    return Machine(INTEL_E5_2690, rng=9)


class TestHorizonContract:
    def test_overriding_model_is_polled_on_every_call(self, machine):
        injector = _injector(machine.hierarchy)
        injector.attach(InterruptBurstFault(rate_per_mcycle=0.0))
        polled = injector.attach(Polled())
        times = [float(t) for t in range(0, 5000, 50)]
        for now in times:
            injector.on_time_advance(now)
        assert polled.seen == times

    def test_overriding_model_is_polled_on_every_scheduled_op(self, machine):
        polled = machine.faults.attach(Polled())
        calls = []
        fan_out = machine.faults.on_time_advance

        def spy(now):
            calls.append(now)
            return fan_out(now)

        machine.faults.on_time_advance = spy

        def program():
            for k in range(40):
                yield Access(address=64 * k)
                yield Compute(cycles=25.0)

        threads = [SimThread("a", program), SimThread("b", program, thread_id=1)]
        machine.hyper_threaded(threads).run()
        assert len(calls) > 160
        assert polled.seen == calls

    def test_attach_between_runs_resets_the_horizon(self, machine):
        injector = _injector(machine.hierarchy)
        injector.attach(InterruptBurstFault(rate_per_mcycle=0.0))
        assert injector.on_time_advance(1e6) == 0.0
        late = injector.attach(InterruptBurstFault(rate_per_mcycle=50.0))
        fired = []
        late._sink = lambda at, stolen: fired.append(at)
        assert injector.on_time_advance(2e6) > 0.0
        assert fired and all(at <= 2e6 for at in fired)

    def test_zero_rate_model_never_fires(self, machine):
        injector = _injector(machine.hierarchy)
        injector.attach(InterruptBurstFault(rate_per_mcycle=0.0))
        for now in (0.0, 1e3, 1e9, 1e15):
            assert injector.on_time_advance(now) == 0.0
        assert list(injector.event_log) == []

    def test_events_fire_at_the_horizon_not_after(self, machine):
        injector = _injector(machine.hierarchy)
        model = injector.attach(InterruptBurstFault(rate_per_mcycle=100.0))
        first = model._next_at
        assert injector.on_time_advance(first - 1.0) == 0.0
        assert model._next_at == first
        assert injector.on_time_advance(first) > 0.0
        assert model._next_at > first


def _seeded_run(per_op_polling):
    """One hyper-threaded transfer under every standard fault model."""
    with observe(ObsSession(trace_depth=0)) as session:
        machine = Machine(
            INTEL_E5_2690, rng=31, faults=standard_fault_suite(2.0)
        )
        injector = machine.faults
        if per_op_polling:
            # The fan-out before the horizon existed: every model, every op.
            injector.on_time_advance = lambda now: sum(
                model.on_time_advance(now) for model in injector.models
            )
        channel = SharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, target_set=1, d=8
        )
        protocol = CovertChannelProtocol(
            machine, channel, ProtocolConfig(ts=4500.0, tr=1125.0)
        )
        run = protocol.run_hyper_threaded([1, 0, 1, 1, 0, 0, 1, 0] * 3)
    counters = session.metrics.snapshot()["counters"]
    return {
        "activations": counters["faults.activations"],
        "stolen": counters.get("faults.stolen_cycles"),
        "stalls": counters.get("sched.fault_stall_cycles"),
        "event_log": list(injector.event_log),
        "bits": sample_bits(run),
        "latencies": run.latencies(),
        "cycles": run.total_cycles,
    }


def test_horizon_run_matches_per_op_polling():
    horizon = _seeded_run(per_op_polling=False)
    polled = _seeded_run(per_op_polling=True)
    assert horizon == polled
    assert sum(horizon["activations"].values()) > 0
    assert horizon["event_log"]
    assert horizon["stalls"]
