"""The client-facing cluster router: protocol v1 in, replicas behind.

``python -m repro route`` runs one of these in front of a static set of
service nodes.  Clients speak the exact single-node line-JSON protocol —
same ops, same response shapes — and the router makes the cluster look
like one unusually durable node:

* **placement** — each request's routing key (from the same
  :class:`~repro.service.jobspec.JobSpec` that derives the service's
  result-cache key) walks the consistent-hash ring to an ordered
  preference list: R replicas first, every other node as a last resort
  (any node *can* compute any key; replicas are merely where the cache
  is warm);
* **failover** — a peer that refuses (rejected / shed / draining) or
  fails at the transport level (dead node, severed link, timeout) is
  struck from the attempt list and the next preference takes over,
  all inside the client's original deadline budget;
* **hedging** — when a primary has not answered within an adaptive
  delay (≈ p99 of recent latencies, see :mod:`repro.cluster.hedge`),
  the same request is fired at the backup replica and the first clean
  answer wins; the loser is cancelled.  Identical requests are
  idempotent here — both experiments and analyses are deterministic —
  so duplicated execution costs time, never correctness;
* **anti-entropy** — a ``degraded=true`` answer is returned to the
  client immediately (degraded-is-better-than-down, PR-6's contract)
  *and* queued for repair: a replica computes the exact result and
  backfills the degraded node's cache (:mod:`repro.cluster.repair`).

The router holds no result cache of its own and keeps no per-request
durable state — it can be restarted freely, and several can front the
same membership (placement is a pure function of key and membership).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.breaker import CircuitBreaker
from repro.common.deadline import Deadline, deadline_from_ms
from repro.common.errors import PeerUnavailable
from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.health import HealthMonitor
from repro.cluster.hedge import HedgePolicy, LatencyTracker
from repro.cluster.membership import Membership
from repro.cluster.repair import AntiEntropyRepairer
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.transport import PeerTransport
from repro.obs.session import ObsSession
from repro.service.jobspec import JobSpec
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    ServiceError,
    encode_line,
    error_response,
    parse_request,
)

#: Response statuses that mean "this peer will not take the work right
#: now, another might" — they trigger failover, not a client error.
REFUSAL_STATUSES = ("rejected", "shed", "draining")


@dataclass
class RouterConfig:
    """Tunables for one router process.

    Args:
        host: Client-facing listen address.
        port: Client-facing listen port (0 = ephemeral).
        replicas: Replica-set size R on the hash ring.
        vnodes: Ring points per peer.
        seed: Seeds the breakers' probe jitter (decorrelated per peer,
            reproducible per seed).
        connect_timeout: TCP connect budget per peer attempt.
        request_timeout: End-to-end budget per peer attempt when the
            client set no deadline.
        health_interval: Seconds between health-check rounds.
        health_timeout: Budget for one health ping.
        breaker_failures: Consecutive failures that open a peer breaker.
        breaker_reset: Base seconds before an open breaker probes.
        hedge_multiplier / hedge_min_delay / hedge_max_delay /
        hedge_warmup / hedge_initial: See
            :class:`~repro.cluster.hedge.HedgePolicy`.
        repair_queue_depth: Bound on queued anti-entropy repairs.
        trace_depth: Span-tree depth for the router's ObsSession.
        chaos: Optional seeded fault plan (tests only).
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 2
    vnodes: int = DEFAULT_VNODES
    seed: int = 0
    connect_timeout: float = 2.0
    request_timeout: float = 10.0
    health_interval: float = 0.5
    health_timeout: float = 1.0
    breaker_failures: int = 2
    breaker_reset: float = 2.0
    hedge_multiplier: float = 1.5
    hedge_min_delay: float = 0.01
    hedge_max_delay: float = 1.0
    hedge_warmup: int = 20
    hedge_initial: float = 0.1
    repair_queue_depth: int = 64
    trace_depth: int = 64
    chaos: Optional[ClusterChaosConfig] = field(default=None, repr=False)


class ClusterRouter:
    """One router process: listener, breakers, hedger, repairer.

    Args:
        config: Router tunables.
        membership: The static peer registry to route over.
    """

    def __init__(self, config: RouterConfig, membership: Membership):
        self.config = config
        self.membership = membership
        self.session = ObsSession(trace_depth=config.trace_depth)
        self.metrics = self.session.metrics
        self.ring = HashRing(
            membership.peers,
            replicas=config.replicas,
            vnodes=config.vnodes,
        )
        self.transport = PeerTransport(
            connect_timeout=config.connect_timeout,
            request_timeout=config.request_timeout,
            chaos=config.chaos,
        )
        # One breaker per peer; distinct jitter seeds so probes
        # decorrelate across peers while replaying exactly per seed.
        self.breakers: Dict[str, CircuitBreaker] = {
            peer.name: CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_timeout=config.breaker_reset,
                jitter=config.seed + index,
                name=peer.name,
            )
            for index, peer in enumerate(membership)
        }
        self.tracker = LatencyTracker()
        self.hedge = HedgePolicy(
            self.tracker,
            multiplier=config.hedge_multiplier,
            min_delay=config.hedge_min_delay,
            max_delay=config.hedge_max_delay,
            warmup=config.hedge_warmup,
            initial=config.hedge_initial,
        )
        self.health = HealthMonitor(
            membership,
            self.transport,
            self.breakers,
            self.metrics,
            interval=config.health_interval,
            timeout=config.health_timeout,
        )
        self.repairer = AntiEntropyRepairer(
            membership,
            self.transport,
            self.metrics,
            queue_depth=config.repair_queue_depth,
            request_timeout=config.request_timeout,
        )
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.draining = False
        self._writers: set = set()
        # Born in start(): asyncio primitives bind their loop at
        # creation on Python 3.9.
        self._stop: Optional[asyncio.Event] = None
        self._background: List[asyncio.Task] = []

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the client listener; start health and repair loops."""
        self._stop = asyncio.Event()
        self.server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self._background = [
            asyncio.ensure_future(self.health.run(self._stop)),
            asyncio.ensure_future(self.repairer.run(self._stop)),
        ]

    async def drain(self) -> None:
        """Stop accepting clients, let background loops wind down."""
        if self.draining:
            return
        self.draining = True
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self._stop is not None:
            self._stop.set()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Serve until ``stop`` is set, then drain."""
        await stop.wait()
        await self.drain()

    # -- connection handling --------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        # Mirrors the single-node server's framing discipline exactly:
        # oversized line -> error then hang up; malformed line -> error,
        # connection survives; clean EOF -> goodbye.
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_line(
                            error_response(
                                f"request line exceeds {MAX_LINE_BYTES} bytes"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = parse_request(line)
                except ServiceError as error:
                    writer.write(encode_line(error_response(str(error))))
                    await writer.drain()
                    continue
                response = await self._dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- dispatch -------------------------------------------------------

    async def _dispatch(self, request: Request) -> Dict:
        if request.op == "ping":
            return {
                "v": PROTOCOL_VERSION,
                "request_id": request.request_id,
                "status": "pong",
            }
        if request.op == "stats":
            return await self._stats(request)
        if request.op == "backfill":
            # Backfill is the fabric's internal repair op; a client (or
            # a confused node) sending it to the router gets a clean
            # protocol error, not a crash and not silent forwarding.
            return error_response(
                "op 'backfill' is node-internal; the router holds no "
                "result cache",
                request.request_id,
            )
        if self.draining:
            return {
                "v": PROTOCOL_VERSION,
                "request_id": request.request_id,
                "status": "draining",
            }
        with self.session.span(
            "cluster.route",
            experiment_id=request.experiment_id or request.policy,
            request_id=request.request_id,
        ):
            return await self._route(request)

    async def _stats(self, request: Request) -> Dict:
        """Federated stats: the router's own view plus every peer's."""

        async def probe(peer) -> Tuple[str, Dict]:
            try:
                response, _ = await self.transport.request(
                    peer,
                    {"version": PROTOCOL_VERSION, "op": "stats"},
                    timeout=self.config.health_timeout,
                )
                return peer.name, {"reachable": True, "stats": response}
            except PeerUnavailable as error:
                return peer.name, {"reachable": False, "error": str(error)}

        probed = await asyncio.gather(
            *(probe(peer) for peer in self.membership)
        )
        return {
            "v": PROTOCOL_VERSION,
            "request_id": request.request_id,
            "status": "stats",
            "node": "router",
            "draining": self.draining,
            "replicas": self.ring.replicas,
            "members": list(self.membership.names()),
            "breakers": {
                name: breaker.state
                for name, breaker in self.breakers.items()
            },
            "hedge_delay_ms": round(self.hedge.delay() * 1000, 3),
            "metrics": self.metrics.snapshot(),
            "peers": dict(probed),
        }

    # -- routing --------------------------------------------------------

    def _forward_payload(self, request: Request) -> Dict:
        return {
            "version": PROTOCOL_VERSION,
            "op": request.op,
            "experiment_id": request.experiment_id,
            "request_id": request.request_id,
            "refresh": request.refresh,
            "policy": request.policy,
            "ways": request.ways,
            "defense": request.defense,
            "trials": request.trials,
            "forwarded": True,
        }

    def _attempt_payload(
        self, payload: Dict, deadline: Optional[Deadline]
    ) -> Dict:
        attempt = dict(payload)
        if deadline is not None:
            # Re-derive the budget at send time so a failover attempt
            # carries only what is actually left of the client's budget.
            attempt["deadline_ms"] = max(
                0.0, round(deadline.remaining() * 1000, 3)
            )
        return attempt

    def _attempt_timeout(self, deadline: Optional[Deadline]) -> float:
        if deadline is None:
            return self.config.request_timeout
        return min(self.config.request_timeout, deadline.remaining())

    async def _route(self, request: Request) -> Dict:
        key = JobSpec.from_request(request).routing_key
        payload = self._forward_payload(request)
        deadline = (
            deadline_from_ms(request.deadline_ms)
            if request.deadline_ms is not None
            else None
        )
        preference = self.ring.preference(key)
        # Known-open breakers go to the back of the line: they are
        # still *tried* if everything healthier fails (the health view
        # can be stale), but never before a peer believed alive.
        remaining = [
            name
            for name in preference
            if self.breakers[name].state != "open"
        ] + [
            name
            for name in preference
            if self.breakers[name].state == "open"
        ]
        last_refusal: Optional[Dict] = None
        first_attempt = True
        while remaining:
            if deadline is not None and deadline.expired:
                break
            if not first_attempt:
                self.metrics.counter("cluster.requests.failover").inc()
            first_attempt = False
            primary = remaining[0]
            backup = remaining[1] if len(remaining) > 1 else None
            response, winner, failed = await self._race(
                payload, primary, backup, deadline
            )
            for name in failed:
                if name in remaining:
                    remaining.remove(name)
            if response is None:
                continue
            if response.get("status") in REFUSAL_STATUSES:
                last_refusal = response
                if winner in remaining:
                    remaining.remove(winner)
                continue
            self.metrics.counter(
                "cluster.requests.routed", label=winner
            ).inc()
            if response.get("degraded"):
                self.metrics.counter("cluster.responses.degraded").inc()
                donors = [name for name in preference if name != winner]
                self.repairer.schedule(
                    response.get("cache_key", ""),
                    payload,
                    winner,
                    donors,
                )
            return response
        if last_refusal is not None:
            return last_refusal
        return error_response(
            "no peer could serve the request", request.request_id
        )

    async def _race(
        self,
        payload: Dict,
        primary: str,
        backup: Optional[str],
        deadline: Optional[Deadline],
    ) -> Tuple[Optional[Dict], Optional[str], List[str]]:
        """One attempt round: primary, hedged backup, first winner.

        Returns ``(response, winner_name, failed_names)``; response is
        None when every racer failed at the transport level.
        """

        async def attempt(name: str) -> Tuple[str, Dict]:
            peer = self.membership.get(name)
            breaker = self.breakers[name]
            try:
                response, elapsed = await self.transport.request(
                    peer,
                    self._attempt_payload(payload, deadline),
                    timeout=self._attempt_timeout(deadline),
                )
            except PeerUnavailable:
                breaker.record_failure()
                self.metrics.counter(
                    "cluster.peer.failures", label=name
                ).inc()
                raise
            breaker.record_success()
            self.tracker.observe(elapsed)
            return name, response

        names: Dict[asyncio.Future, str] = {}
        primary_task = asyncio.ensure_future(attempt(primary))
        names[primary_task] = primary
        tasks = {primary_task}
        backup_task: Optional[asyncio.Task] = None
        if backup is not None:
            delay = self.hedge.delay()
            if deadline is not None:
                delay = min(delay, max(0.0, deadline.remaining()))
            done, _ = await asyncio.wait({primary_task}, timeout=delay)
            if not done:
                self.metrics.counter("cluster.requests.hedged").inc()
                backup_task = asyncio.ensure_future(attempt(backup))
                names[backup_task] = backup
                tasks.add(backup_task)
        failed: List[str] = []
        try:
            while tasks:
                done, tasks = await asyncio.wait(
                    tasks, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is not None:
                        failed.append(names[task])
                        continue
                    winner, response = task.result()
                    if task is backup_task:
                        self.metrics.counter("cluster.hedge.wins").inc()
                    return response, winner, failed
            return None, None, failed
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
