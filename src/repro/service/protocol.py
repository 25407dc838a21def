"""Wire protocol of the experiment service: line-delimited JSON.

One request is one ``\\n``-terminated JSON object; one response is one
``\\n``-terminated JSON object.  Lines are bounded (:data:`MAX_LINE_BYTES`)
so a malicious or broken client cannot balloon server memory — the same
"never unbounded" rule the request queues follow.

Request shape::

    {"op": "run", "experiment_id": "table2", "deadline_ms": 5000,
     "request_id": "r-17", "refresh": false}

``op`` is ``run`` (execute or serve from cache), ``ping`` (liveness),
``stats`` (metrics/breaker/queue snapshot), or ``analyze`` (static
leakage analysis of a replacement policy — zero simulation; see
``docs/LEAKAGE.md``).  ``deadline_ms`` is the end-to-end budget the
whole request — queueing, attempts, retries — must fit into;
``refresh`` bypasses the cache *read* (the result is still written
back).

A ``run`` request with ``trials > 0`` is a multi-trial batch request:
``experiment_id`` names a channel algorithm (``alg1``/``alg2``) and the
server runs that many independent transfers through the vectorized
batch engine (``repro.sim.batch``), answering with an aggregate
error-rate summary::

    {"op": "run", "experiment_id": "alg1", "trials": 1000,
     "request_id": "b-1"}

A ``run`` request with ``defense`` set names a channel algorithm
(``alg1``/``alg2``/``occupancy``) to run against one defense design
from the registry (``repro.defenses``), randomized index designs
included::

    {"op": "run", "experiment_id": "alg1", "defense": "ceaser",
     "request_id": "d-1"}

``trials`` and ``defense`` cannot be combined: the lockstep batch
engine compiles the undefended single-set layout into its policy
tables, so defended runs are scalar only and the combination is
refused at parse time.

An ``analyze`` request names a policy shape instead of an experiment::

    {"op": "analyze", "policy": "lru", "ways": 4, "defense": "none",
     "deadline_ms": 2000, "request_id": "a-3"}

The response's ``result`` is one leakage entry
(``repro.analysis.leakage.PolicyLeakage.to_dict``); a shape whose
state space exceeds the eager budget comes back ``status=ok`` with
``result.mode == "refused"`` — a structured refusal, not an error.

Two cluster-era additions ride the same frame without changing its
shape for existing clients (the protocol version stays 1):

* ``forwarded`` (bool, default false) marks a request relayed by the
  cluster router (``python -m repro route``) rather than sent by a
  client directly — observability only, the request path is identical;
* op ``backfill`` is the anti-entropy repair op: a router that saw a
  node answer ``degraded=true`` pushes that node the exact result a
  replica computed.  It carries ``cache_key`` (the node-reported key),
  ``result`` (the exact payload), and ``checksum`` (``sha256:<hex>`` of
  the canonical cache entry) — the receiving node verifies the checksum
  before storing and never overwrites a differing local entry::

      {"op": "backfill", "cache_key": "<64 hex>", "result": {...},
       "checksum": "sha256:<hex>", "request_id": "repair-1"}

Response statuses:

====================  ====================================================
``ok``                Executed or served from cache; ``result`` carries
                      the experiment payload.  ``degraded=true`` means
                      the payload is a cached/stub substitute, not a
                      fresh exact run (``source`` says which).
``rejected``          Token-bucket admission control refused the request
                      (429-style); ``retry_after_ms`` hints when to retry.
``shed``              Admitted, but the target pool's bounded queue was
                      full (backpressure).
``draining``          The server is shutting down gracefully; reconnect
                      and retry — finished results are served from cache.
``error``             The request itself was malformed (bad JSON, unknown
                      op or experiment id, oversized line).
====================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ServiceError
from repro.service.jobspec import check_defense

#: Hard bound on one request/response line, in bytes (newline included).
MAX_LINE_BYTES = 1_048_576

#: Protocol revision, echoed in every response.
PROTOCOL_VERSION = 1

#: Operations a request may name.
OPS = ("run", "ping", "stats", "analyze", "backfill")

#: Associativity bound for ``analyze`` (matches the simulator's caches;
#: a request beyond it is malformed, not refused).
MAX_ANALYZE_WAYS = 64

#: Bound on one ``run`` request's batch-trial count — one request is one
#: lockstep block, so this caps the server-side array allocation.
MAX_TRIALS = 100_000

#: Response statuses a client may see (documented above).
STATUSES = ("ok", "rejected", "shed", "draining", "error", "pong", "stats")


@dataclass(frozen=True)
class Request:
    """One validated client request."""

    op: str
    experiment_id: str = ""
    deadline_ms: Optional[float] = None
    request_id: str = ""
    refresh: bool = False
    policy: str = ""
    ways: int = 0
    defense: str = "none"
    trials: int = 0
    forwarded: bool = False
    cache_key: str = ""
    result: Optional[Dict] = None
    checksum: str = ""


def parse_request(line: bytes) -> Request:
    """Validate one wire line into a :class:`Request`.

    Raises:
        ServiceError: On malformed JSON, a non-object payload, an
            unknown ``op``, a missing/invalid ``experiment_id`` for
            ``run``, or a negative/non-numeric ``deadline_ms``.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"request is not valid JSON: {error}")
    if not isinstance(data, dict):
        raise ServiceError("request must be a JSON object")
    op = data.get("op")
    if op not in OPS:
        raise ServiceError(f"unknown op {op!r}; expected one of {OPS}")
    experiment_id = data.get("experiment_id", "")
    if op == "run" and (
        not isinstance(experiment_id, str) or not experiment_id
    ):
        raise ServiceError("op 'run' requires a non-empty experiment_id")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ServiceError(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            )
        if deadline_ms < 0:
            raise ServiceError(
                f"deadline_ms must be >= 0, got {deadline_ms}"
            )
    request_id = data.get("request_id", "")
    if not isinstance(request_id, str):
        raise ServiceError("request_id must be a string")
    refresh = data.get("refresh", False)
    if not isinstance(refresh, bool):
        raise ServiceError("refresh must be a boolean")
    forwarded = data.get("forwarded", False)
    if not isinstance(forwarded, bool):
        raise ServiceError("forwarded must be a boolean")
    trials = data.get("trials", 0)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ServiceError(f"trials must be an integer, got {trials!r}")
    if trials < 0 or trials > MAX_TRIALS:
        raise ServiceError(
            f"trials must be in [0, {MAX_TRIALS}], got {trials}"
        )
    policy = data.get("policy", "")
    ways = data.get("ways", 0)
    defense = data.get("defense", "none")
    if op == "run":
        check_defense(op, defense, trials)
    if op == "analyze":
        if not isinstance(policy, str) or not policy:
            raise ServiceError("op 'analyze' requires a non-empty policy")
        if isinstance(ways, bool) or not isinstance(ways, int):
            raise ServiceError(f"ways must be an integer, got {ways!r}")
        if ways < 1 or ways > MAX_ANALYZE_WAYS:
            raise ServiceError(
                f"ways must be in [1, {MAX_ANALYZE_WAYS}], got {ways}"
            )
        check_defense(op, defense, trials)
    cache_key = data.get("cache_key", "")
    result = data.get("result")
    checksum = data.get("checksum", "")
    if op == "backfill":
        if (
            not isinstance(cache_key, str)
            or len(cache_key) != 64
            or any(c not in "0123456789abcdef" for c in cache_key)
        ):
            raise ServiceError(
                "op 'backfill' requires cache_key as 64 lowercase hex "
                "characters (a result-cache key)"
            )
        if not isinstance(result, dict):
            raise ServiceError(
                "op 'backfill' requires result as a JSON object"
            )
        if not isinstance(checksum, str) or not checksum.startswith(
            "sha256:"
        ):
            raise ServiceError(
                "op 'backfill' requires checksum as 'sha256:<hex>' over "
                "the canonical cache entry"
            )
    return Request(
        op=op,
        experiment_id=experiment_id if isinstance(experiment_id, str) else "",
        deadline_ms=deadline_ms,
        request_id=request_id,
        refresh=refresh,
        policy=policy if isinstance(policy, str) else "",
        ways=ways if isinstance(ways, int) else 0,
        defense=defense if isinstance(defense, str) else "none",
        trials=trials,
        forwarded=forwarded,
        cache_key=cache_key if isinstance(cache_key, str) else "",
        result=result if isinstance(result, dict) else None,
        checksum=checksum if isinstance(checksum, str) else "",
    )


def encode_line(payload: Dict) -> bytes:
    """Serialize one response/request object as a bounded wire line."""
    line = json.dumps(payload, sort_keys=True) + "\n"
    raw = line.encode("utf-8")
    if len(raw) > MAX_LINE_BYTES:
        raise ServiceError(
            f"encoded line exceeds {MAX_LINE_BYTES} bytes "
            f"({len(raw)} bytes)"
        )
    return raw


def error_response(message: str, request_id: str = "") -> Dict:
    """The structured shape of a protocol-level failure."""
    return {
        "v": PROTOCOL_VERSION,
        "request_id": request_id,
        "status": "error",
        "error": {"type": "ServiceError", "message": message},
    }
