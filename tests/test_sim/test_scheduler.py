"""Tests for the hyper-threaded and time-sliced schedulers."""

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.sim.ops import Access, Compute, ReadTSC, READ_TSC_COST, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler
from repro.sim.thread import SimThread


def make_hierarchy():
    return CacheHierarchy(HierarchyConfig(), rng=7)


def accesses_program(addresses, log):
    def program():
        for a in addresses:
            outcome = yield Access(a)
            log.append(outcome)

    return program


class TestSimThread:
    def test_lifecycle(self):
        log = []
        t = SimThread("t", accesses_program([0, 64], log))
        t.start()
        assert t.alive
        op = t.next_operation()
        assert isinstance(op, Access)

    def test_next_before_start_raises(self):
        t = SimThread("t", accesses_program([], []))
        with pytest.raises(SimulationError):
            t.next_operation()

    def test_finishes(self):
        t = SimThread("t", accesses_program([], []))
        t.start()
        assert t.next_operation() is None
        assert not t.alive

    def test_restartable(self):
        log = []
        t = SimThread("t", accesses_program([0], log))
        for _ in range(2):
            t.start()
            while t.alive:
                op = t.next_operation()
                if op is not None:
                    t.deliver(None)
        assert not t.alive


class TestHyperThreadedScheduler:
    def test_runs_single_thread_to_completion(self):
        log = []
        h = make_hierarchy()
        t = SimThread("t", accesses_program([0, 64, 0], log))
        HyperThreadedScheduler(h, [t], rng=1).run()
        assert len(log) == 3
        assert log[2].l1_hit

    def test_interleaves_two_threads(self):
        h = make_hierarchy()
        order = []

        def tagged(tag, n):
            def program():
                for i in range(n):
                    yield Compute(10.0)
                    order.append(tag)

            return program

        a = SimThread("a", tagged("a", 20))
        b = SimThread("b", tagged("b", 20))
        HyperThreadedScheduler(h, [a, b], rng=1).run()
        # Both threads' ops are interleaved, not serialized.
        first_half = order[: len(order) // 2]
        assert "a" in first_half and "b" in first_half

    def test_access_results_delivered(self):
        h = make_hierarchy()
        seen = []

        def program():
            outcome = yield Access(0)
            seen.append(outcome.latency)
            outcome = yield Access(0)
            seen.append(outcome.latency)

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1).run()
        assert seen[0] == h.config.memory_latency
        assert seen[1] == h.config.l1.hit_latency

    def test_read_tsc_returns_time(self):
        h = make_hierarchy()
        stamps = []

        def program():
            t0 = yield ReadTSC()
            yield Compute(100.0)
            t1 = yield ReadTSC()
            stamps.extend([t0, t1])

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1, jitter=0.0).run()
        assert stamps[1] - stamps[0] >= 100.0 + READ_TSC_COST

    def test_sleep_until_advances_clock(self):
        h = make_hierarchy()
        stamps = []

        def program():
            yield SleepUntil(5000.0)
            stamps.append((yield ReadTSC()))

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1, jitter=0.0).run()
        assert stamps[0] >= 5000.0

    def test_until_cycle_stops_early(self):
        h = make_hierarchy()
        count = []

        def program():
            while True:
                yield Compute(100.0)
                count.append(1)

        t = SimThread("t", program)
        HyperThreadedScheduler(h, [t], rng=1).run(until_cycle=1000.0)
        assert 5 <= len(count) <= 11

    def test_empty_thread_list_rejected(self):
        with pytest.raises(SimulationError):
            HyperThreadedScheduler(make_hierarchy(), [], rng=1)

    def test_shared_cache_between_threads(self):
        h = make_hierarchy()
        results = {}

        def loader(name, address, pause):
            def program():
                yield Compute(pause)
                outcome = yield Access(address)
                results[name] = outcome

            return program

        a = SimThread("a", loader("a", 0, 0.0), thread_id=0)
        b = SimThread("b", loader("b", 0, 500.0), thread_id=1)
        HyperThreadedScheduler(h, [a, b], rng=1, jitter=0.0).run()
        # Thread b arrives after a's fill: it must hit.
        assert results["b"].l1_hit


class MinKeyScheduler(HyperThreadedScheduler):
    """The arbitration loop as first written: a runnable list and a
    ``min`` keyed on (clock, draw) per op.  Oracle for the hoisted loop."""

    def run(self, until_cycle=None):
        for thread in self.threads:
            if not thread.alive:
                thread.start()
        last_time = 0.0
        while True:
            runnable = [t for t in self.threads if t.alive]
            if not runnable:
                break
            thread = min(
                runnable, key=lambda t: (t.ready_at, self.rng.random())
            )
            if until_cycle is not None and thread.ready_at >= until_cycle:
                break
            thread.ready_at += self._fault_wake_stall(thread, thread.ready_at)
            op = thread.next_operation()
            if op is None:
                continue
            cost = self._execute(thread, op, thread.ready_at)
            thread.ready_at += cost + self.rng.uniform(0.0, self.jitter)
            last_time = max(last_time, thread.ready_at)
        return last_time


class TestArbitrationOrder:
    """The hoisted loop draws and breaks ties exactly like the oracle."""

    @staticmethod
    def _run(scheduler_class, jitter, until_cycle):
        order = []

        def program(name, lengths):
            def body():
                for k, cycles in enumerate(lengths):
                    stamp = yield ReadTSC()
                    order.append((name, stamp))
                    if k % 3 == 0:
                        yield Access(64 * (k % 16))
                    yield Compute(cycles)

            return body

        threads = [
            SimThread("a", program("a", [10.0] * 30)),
            SimThread("b", program("b", [10.0, 20.0] * 12), thread_id=1),
            SimThread("c", program("c", [30.0] * 8), thread_id=2),
        ]
        end = scheduler_class(
            make_hierarchy(), threads, rng=5, jitter=jitter
        ).run(until_cycle=until_cycle)
        return order, end

    @pytest.mark.parametrize("jitter", [0.0, 2.0])
    @pytest.mark.parametrize("until_cycle", [None, 400.0])
    def test_interleaving_matches_min_key_loop(self, jitter, until_cycle):
        # jitter=0 makes clock ties constant, so the draws decide order.
        ours = self._run(HyperThreadedScheduler, jitter, until_cycle)
        oracle = self._run(MinKeyScheduler, jitter, until_cycle)
        assert ours == oracle
        assert len({name for name, _ in ours[0]}) == 3


class TestOperationDispatch:
    def test_subclassed_operation_runs_as_its_base(self):
        class Spin(Compute):
            pass

        stamps = []

        def program():
            yield Spin(50.0)
            stamps.append((yield ReadTSC()))

        t = SimThread("t", program)
        HyperThreadedScheduler(make_hierarchy(), [t], rng=1, jitter=0.0).run()
        assert stamps == [50.0]

    def test_unknown_operation_raises(self):
        def program():
            yield "load"

        t = SimThread("t", program)
        with pytest.raises(SimulationError, match="unknown operation"):
            HyperThreadedScheduler(make_hierarchy(), [t], rng=1).run()


class TestTimeSlicedScheduler:
    def test_alternates_threads_by_quantum(self):
        h = make_hierarchy()
        order = []

        def tagged(tag):
            def program():
                for _ in range(40):
                    yield Compute(100.0)
                    order.append(tag)

            return program

        a = SimThread("a", tagged("a"))
        b = SimThread("b", tagged("b"))
        TimeSlicedScheduler(
            h, [a, b], quantum=1000.0, switch_cost=0.0,
            quantum_jitter_frac=0.0, rng=1,
        ).run(until_cycle=20000.0)
        # Slices of ~10 ops each must alternate in blocks.
        runs = []
        for tag in order:
            if runs and runs[-1][0] == tag:
                runs[-1][1] += 1
            else:
                runs.append([tag, 1])
        assert len(runs) >= 4
        assert max(r[1] for r in runs) <= 12

    def test_quantum_validation(self):
        with pytest.raises(SimulationError):
            TimeSlicedScheduler(make_hierarchy(), [], quantum=0)

    def test_deadline_respected(self):
        h = make_hierarchy()

        def forever():
            def program():
                while True:
                    yield Compute(10.0)

            return program

        a = SimThread("a", forever())
        end = TimeSlicedScheduler(h, [a], quantum=1000.0, rng=1).run(
            until_cycle=5000.0
        )
        assert end >= 5000.0
        assert a.alive  # did not finish, just stopped being scheduled

    def test_finished_threads_release_slices(self):
        h = make_hierarchy()
        done = []

        def short():
            yield Compute(10.0)
            done.append("short")

        def long():
            for _ in range(50):
                yield Compute(100.0)
            done.append("long")

        a = SimThread("a", lambda: short())
        b = SimThread("b", lambda: long())
        TimeSlicedScheduler(h, [a, b], quantum=1000.0, rng=1).run(
            until_cycle=50000.0
        )
        assert done == ["short", "long"]

    def test_sleeping_thread_skips_slices(self):
        h = make_hierarchy()
        wake_times = []

        def sleeper():
            yield SleepUntil(10_000.0)
            wake_times.append((yield ReadTSC()))

        def worker():
            for _ in range(100):
                yield Compute(100.0)

        a = SimThread("a", lambda: sleeper())
        b = SimThread("b", lambda: worker())
        TimeSlicedScheduler(
            h, [a, b], quantum=1000.0, switch_cost=0.0, rng=1
        ).run(until_cycle=40000.0)
        assert wake_times and wake_times[0] >= 10_000.0
