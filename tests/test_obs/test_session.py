"""Session scoping: activation, nesting, and trace-disabled no-ops."""

from repro.obs.session import ObsSession, active, observe


class TestActivation:
    def test_inactive_by_default(self):
        assert active() is None

    def test_observe_scopes_and_restores(self):
        with observe() as session:
            assert active() is session
        assert active() is None

    def test_nesting_replaces_then_restores(self):
        with observe() as outer:
            with observe() as inner:
                assert active() is inner
            assert active() is outer

    def test_restores_on_error(self):
        try:
            with observe():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active() is None


class TestTraceDepthZero:
    def test_metrics_only_session_has_no_bus(self):
        session = ObsSession(trace_depth=0)
        assert session.bus is None
        session.event("ignored")
        with session.span("ignored") as span_id:
            assert span_id is None
        # metrics still work without a bus
        session.metrics.counter("cache.l1.hits").inc()
        assert session.metrics.snapshot()["counters"]["cache.l1.hits"] == 1

    def test_traced_session_wires_dropped_counter(self):
        session = ObsSession(trace_depth=2)
        for i in range(5):
            session.event("tick", i=i)
        snapshot = session.metrics.snapshot()
        assert snapshot["counters"]["trace.events.dropped"] == 3


class TestManifestNotes:
    def test_machines_dedupe_with_multiplicity(self):
        session = ObsSession(trace_depth=0)
        session.note_machine("Intel Xeon E5-2690")
        session.note_machine("Intel Xeon E5-2690")
        session.note_machine("AMD EPYC 7571")
        assert session.machines() == [
            {"spec": "Intel Xeon E5-2690", "count": 2},
            {"spec": "AMD EPYC 7571", "count": 1},
        ]

    def test_fault_models_sorted_unique(self):
        session = ObsSession(trace_depth=0)
        session.note_fault_model("tsc_jitter")
        session.note_fault_model("interrupt_burst")
        session.note_fault_model("tsc_jitter")
        assert session.fault_models() == ["interrupt_burst", "tsc_jitter"]
