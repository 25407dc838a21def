"""Core-sharing schedulers: hyper-threaded (SMT) and time-sliced.

The paper evaluates both co-residency modes (Section III):

* **Hyper-threaded** — sender and receiver run in parallel as SMT
  siblings; their memory accesses interleave at fine (cycle) granularity.
  We model SMT by letting each thread progress on its own cycle clock
  and executing operations in global-time order, with a small random
  arbitration jitter so interleavings vary run to run.

* **Time-sliced** — the OS alternates the two threads on one core with a
  scheduling quantum.  Only accesses in different slices interleave, so
  only the receiver's first iteration after a context switch observes
  the sender — the effect behind the paper's ~2 bps time-sliced rate
  (Section V-B).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.rng import RngLike, make_rng
from repro.common.types import MemoryAccess
from repro.obs.instruments import for_scheduler
from repro.obs.session import active as obs_active
from repro.sim.ops import Access, Compute, ReadTSC, READ_TSC_COST, SleepUntil
from repro.sim.thread import SimThread


class _SchedulerBase:
    """Shared operation-execution machinery.

    Args:
        hierarchy: The memory system every thread's accesses run against.
        rng: Arbitration/slicing noise stream.
        faults: Optional fault injector (see :mod:`repro.faults`); when
            active, simulated-time progress is reported to it before
            each operation so Poisson-arriving disturbances land between
            the threads' own accesses, and every ``ReadTSC`` result is
            routed through its timestamp perturbations.
    """

    def __init__(self, hierarchy: CacheHierarchy, rng: RngLike = None, faults=None):
        self.hierarchy = hierarchy
        self.rng = make_rng(rng)
        self.faults = faults
        self._obs = for_scheduler(obs_active())
        self._handlers = {
            ReadTSC: self._read_tsc,
            Access: self._access,
            Compute: self._compute,
            SleepUntil: self._sleep_until,
        }
        self._arm_faults()

    def _arm_faults(self):
        """Latch the injector for one run; None when no fault is attached.

        Called at the start of every ``run``, so faults attached between
        runs take effect while the per-op paths read one attribute.
        """
        faults = self.faults
        self._live_faults = (
            faults if faults is not None and faults.active else None
        )
        return self._live_faults

    def _fault_wake_stall(self, thread: SimThread, now: float) -> float:
        """Fire pending fault events; return the wake-up stall for ``thread``.

        Disturbance accesses land as simulated time advances, whichever
        thread is driving the clock.  The *handler cycles* those events
        consume are charged only to a thread waking from a sleep that
        covered the event: interrupts wake a halted logical CPU, so the
        sampling loop's sleeps absorb the handler time, while a sibling
        that never sleeps (the sender's tight encode loop) keeps its
        pace and only sees the cache pollution.
        """
        faults = self._live_faults
        if faults is None:
            return 0.0
        faults.on_time_advance(now)
        slept_from = getattr(thread, "_slept_from", None)
        if slept_from is None:
            return 0.0
        thread._slept_from = None
        stall = faults.stall_in_window(slept_from, now)
        if stall and self._obs is not None:
            self._obs.fault_stall_cycles.inc(int(stall))
        return stall

    def _execute(self, thread: SimThread, op, now: float) -> float:
        """Run one operation at time ``now``; return its cycle cost."""
        if self._obs is not None:
            self._obs.ops.inc()
        handler = self._handlers.get(type(op))
        if handler is None:
            # A subclassed operation runs as its nearest base operation.
            bases = [b for b in type(op).__mro__ if b in self._handlers]
            if not bases:
                raise SimulationError(f"unknown operation {op!r}")
            handler = self._handlers[bases[0]]
        return handler(thread, op, now)

    def _read_tsc(self, thread: SimThread, op: ReadTSC, now: float) -> float:
        reading = now
        if self._live_faults is not None:
            reading = self._live_faults.perturb_tsc(now)
        thread.deliver(reading)
        return READ_TSC_COST

    def _access(self, thread: SimThread, op: Access, now: float) -> float:
        outcome = self.hierarchy.access(
            MemoryAccess(
                address=op.address,
                access_type=op.access_type,
                thread_id=thread.thread_id,
                address_space=thread.address_space,
                locked=op.locked,
                unlock=op.unlock,
                speculative=op.speculative,
            ),
            count=op.count,
        )
        thread.deliver(outcome)
        return outcome.latency

    def _compute(self, thread: SimThread, op: Compute, now: float) -> float:
        thread.deliver(None)
        return op.cycles

    def _sleep_until(
        self, thread: SimThread, op: SleepUntil, now: float
    ) -> float:
        thread.deliver(None)
        if self._live_faults is not None:
            thread._slept_from = now
        return max(0.0, op.cycle - now)


class HyperThreadedScheduler(_SchedulerBase):
    """SMT co-residency: threads interleave at access granularity.

    Threads advance on per-thread clocks; at every step the thread with
    the earliest clock issues its next operation against the shared
    hierarchy.  A uniform arbitration jitter (0..``jitter`` cycles) is
    added to each operation's completion, modeling SMT issue competition
    and making interleavings stochastic, as on real SMT cores.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        threads: Sequence[SimThread],
        rng: RngLike = None,
        jitter: float = 2.0,
        faults=None,
    ):
        super().__init__(hierarchy, rng, faults=faults)
        if not threads:
            raise SimulationError("need at least one thread")
        self.threads: List[SimThread] = list(threads)
        self.jitter = jitter

    def run(self, until_cycle: Optional[float] = None) -> float:
        """Run until every thread finishes or the deadline passes.

        Returns the cycle time of the last completed operation.
        """
        threads = self.threads
        for thread in threads:
            if not thread.alive:
                thread.start()
        # Bound once per run: the sanitizer patches ``_execute`` on the
        # instance before any run starts.
        rand = self.rng.random
        jitter = self.jitter
        execute = self._execute
        wake_stall = self._fault_wake_stall
        faults = self._arm_faults()
        last_time = 0.0
        while True:
            # The earliest clock issues next; each alive thread draws one
            # arbitration number, in list order, to break clock ties.
            thread = None
            for candidate in threads:
                if candidate.alive:
                    ready = candidate.ready_at
                    draw = rand()
                    if thread is None or ready < best or (
                        ready == best and draw < best_draw
                    ):
                        thread, best, best_draw = candidate, ready, draw
            if thread is None:
                break
            if until_cycle is not None and best >= until_cycle:
                break
            if faults is not None:
                thread.ready_at += wake_stall(thread, best)
            op = thread.next_operation()
            if op is None:
                continue
            cost = execute(thread, op, thread.ready_at)
            # rng.uniform(0.0, jitter), inlined.
            thread.ready_at += cost + jitter * rand()
            if thread.ready_at > last_time:
                last_time = thread.ready_at
        return last_time


class TimeSlicedScheduler(_SchedulerBase):
    """OS time-sharing of one core between two (or more) threads.

    Args:
        hierarchy: Shared memory system.
        threads: Threads to alternate, in round-robin order.
        quantum: Scheduling quantum in cycles (Linux CFS on a ~4 GHz
            core gives quanta on the order of 10⁶-10⁷ cycles).
        switch_cost: Direct cost of a context switch in cycles.
        quantum_jitter_frac: Each slice's length is perturbed by up to
            ±this fraction, modeling scheduler noise; the paper's traces
            show uneven slicing ("threads do not get scheduled evenly").
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        threads: Sequence[SimThread],
        quantum: float = 4.0e6,
        switch_cost: float = 2_000.0,
        quantum_jitter_frac: float = 0.2,
        rng: RngLike = None,
        faults=None,
    ):
        super().__init__(hierarchy, rng, faults=faults)
        if quantum <= 0:
            raise SimulationError(f"quantum must be > 0, got {quantum}")
        self.threads: List[SimThread] = list(threads)
        self.quantum = quantum
        self.switch_cost = switch_cost
        self.quantum_jitter_frac = quantum_jitter_frac

    def _slice_length(self) -> float:
        frac = self.quantum_jitter_frac
        return self.quantum * (1.0 + self.rng.uniform(-frac, frac))

    def run(self, until_cycle: float) -> float:
        """Alternate threads in slices until the deadline.

        A finished thread simply stops taking slices; the run continues
        until ``until_cycle`` or until every thread has finished.
        """
        for thread in self.threads:
            if not thread.alive:
                thread.start()
        execute = self._execute
        wake_stall = self._fault_wake_stall
        faults = self._arm_faults()
        now = 0.0
        index = 0
        while now < until_cycle and any(t.alive for t in self.threads):
            thread = self.threads[index % len(self.threads)]
            index += 1
            if not thread.alive:
                continue
            if self._obs is not None:
                self._obs.slices.inc()
            slice_end = min(now + self._slice_length(), until_cycle)
            # The thread resumes where it left off, but never in the past.
            thread.ready_at = max(thread.ready_at, now)
            while thread.alive and thread.ready_at < slice_end:
                if faults is not None:
                    thread.ready_at += wake_stall(thread, thread.ready_at)
                op = thread.next_operation()
                if op is None:
                    break
                thread.ready_at += execute(thread, op, thread.ready_at)
            # The core moves on at the end of the slice; a thread whose
            # last operation overran (or that is sleeping far ahead)
            # keeps its own ready_at and simply does nothing next slice.
            now = slice_end + self.switch_cost
        return now
