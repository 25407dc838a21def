"""One job's identity: validation, label, placement key and cache key.

The service answers four kinds of job:

* ``experiment`` — a registered experiment (``run``, no trials/defense);
* ``trials`` — a batch of lockstep Algorithm 1/2 trials (``trials > 0``);
* ``defended`` — one channel against one defense design (``defense``);
* ``analyze`` — the static leakage analysis of one policy shape.

A :class:`JobSpec` holds exactly the request fields that name the
result.  Everything the fabric derives from a job's identity comes from
it: the ``label`` that spans and degraded stubs carry, the router's
``routing_key``, the node's result-cache key, and the membership checks
that refuse unknown ids.  Because both keys are functions of the same
frozen fields, two requests land on the same replica exactly when that
replica can answer both from one cache entry.

Fields that change how a request is served but not which result it
names — ``refresh``, ``deadline_ms``, ``request_id``, ``forwarded`` —
are not part of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.common.errors import ServiceError
from repro.service.cache import key_fields, request_key

# The registries below are imported where they are used: the wire layer
# imports this module while ``repro.service`` initialises, and importing
# them at that point raised each process's resident size by ~1.4 MB.


def analyze_defenses() -> Tuple[str, ...]:
    """Defense models the ``analyze`` op accepts.

    The closed-table models of the reachability analysis plus the
    randomized index designs, which the analyzer answers with a
    structured refusal (``result.mode == "refused"``) rather than a
    wire error.  Imported on first use: only analyze requests need the
    analysis stack.
    """
    from repro.analysis.leakage import RANDOMIZED_DEFENSES
    from repro.analysis.reachability import DEFENSES

    return tuple(DEFENSES) + tuple(RANDOMIZED_DEFENSES)


def check_defense(op: str, defense: object, trials: int) -> None:
    """Parse-time checks of a request's raw ``defense`` field.

    Raises:
        ServiceError: When ``defense`` is not a design the op accepts,
            or a ``run`` request combines a defense with trials.
    """
    from repro.defenses.registry import SIMULATED_DEFENSES

    allowed = SIMULATED_DEFENSES if op == "run" else analyze_defenses()
    if defense not in allowed:
        raise ServiceError(
            f"unknown defense {defense!r}; expected one of {allowed}"
        )
    if op == "run" and defense != "none" and trials:
        raise ServiceError(
            "trials cannot be combined with a defense: the lockstep "
            "batch engine compiles the undefended single-set layout "
            "into its policy tables (see docs/DEFENSES.md)"
        )


@dataclass(frozen=True)
class JobSpec:
    """The identity of one ``run`` or ``analyze`` job."""

    kind: str
    experiment_id: str = ""
    trials: int = 0
    defense: str = "none"
    policy: str = ""
    ways: int = 0

    @classmethod
    def from_request(cls, request) -> "JobSpec":
        """The spec of a parsed ``run`` or ``analyze`` request."""
        if request.op == "analyze":
            return cls(
                "analyze",
                policy=request.policy,
                ways=request.ways,
                defense=request.defense,
            )
        if request.trials:
            kind = "trials"
        elif request.defense != "none":
            kind = "defended"
        else:
            kind = "experiment"
        return cls(
            kind,
            experiment_id=request.experiment_id,
            trials=request.trials,
            defense=request.defense,
        )

    @property
    def label(self) -> str:
        """Human-readable job name (spans, stubs, the cache key's id)."""
        if self.kind == "analyze":
            return (
                f"analyze/{self.policy}/ways={self.ways}/"
                f"defense={self.defense}"
            )
        if self.kind == "trials":
            return f"{self.experiment_id}@trials{self.trials}"
        if self.kind == "defended":
            return f"{self.experiment_id}@{self.defense}"
        return self.experiment_id

    def _placement(self) -> str:
        if self.kind == "analyze":
            return self.label
        return (
            f"run/{self.experiment_id}/trials={self.trials}/"
            f"defense={self.defense}"
        )

    #: The cluster placement key (a point on the hash ring).
    routing_key = property(_placement)

    def unknown(self, registry: Mapping) -> Optional[str]:
        """Why no such job exists, or None when it does.

        Args:
            registry: The node's experiment-id → callable mapping.
        """
        if self.kind == "trials":
            from repro.sim.batch import BATCH_CHANNELS

            if self.experiment_id not in BATCH_CHANNELS:
                return (
                    f"unknown batch algorithm {self.experiment_id!r}; "
                    f"choose from {sorted(BATCH_CHANNELS)}"
                )
        elif self.kind == "defended":
            from repro.experiments.randomized import DEFENDED_CHANNELS

            if self.experiment_id not in DEFENDED_CHANNELS:
                return (
                    f"unknown defended channel {self.experiment_id!r}; "
                    f"choose from {list(DEFENDED_CHANNELS)}"
                )
        elif self.kind == "experiment":
            if self.experiment_id not in registry:
                return f"unknown experiment {self.experiment_id!r}"
        else:
            from repro.analysis.leakage import (
                ANALYTIC_POLICIES,
                SKIPPED_POLICIES,
            )
            from repro.replacement import POLICY_REGISTRY
            from repro.replacement.tables import TABLEABLE_POLICIES

            known = (
                self.policy in POLICY_REGISTRY
                or self.policy in TABLEABLE_POLICIES
                or self.policy in ANALYTIC_POLICIES
            )
            if self.policy in SKIPPED_POLICIES or not known:
                return f"unknown or non-analyzable policy {self.policy!r}"
        return None

    def cache_key(self, sanitize: bool, registry: Mapping) -> str:
        """The result-cache key of a job :meth:`unknown` accepted.

        Args:
            sanitize: Whether the node runs with the sanitizer armed.
            registry: The node's experiment-id → callable mapping.
        """
        if self.kind == "analyze":
            from repro.replacement.tables import EAGER_STATE_BUDGET

            # A static table walk: no seed, no sanitizer; the eager
            # budget decides which shapes come back refused.
            fields = key_fields(
                f"{self.label}/budget={EAGER_STATE_BUDGET}",
                seed=0,
                sanitize=False,
            )
        else:
            fields = key_fields(
                self.label, seed=self._seed(registry), sanitize=sanitize
            )
        return request_key(fields)

    def _seed(self, registry: Mapping) -> Optional[int]:
        """The seed the runner records for a job's first attempt."""
        if self.kind == "trials":
            # The batch engine keys its counter-based streams on its own
            # default master seed, not on a runner ``rng`` parameter.
            return None
        from repro.experiments.runner import ExperimentRunner

        if self.kind == "defended":
            from repro.experiments.randomized import run_defended_channel

            function = run_defended_channel
        else:
            function = registry[self.experiment_id]
        parameter = ExperimentRunner._rng_parameter(function)
        return ExperimentRunner._attempt_seed(parameter, 0)

