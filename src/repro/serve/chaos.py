"""Chaos scenarios: a fault plan played against a serving fleet.

A :class:`ChaosScenario` bundles one serving configuration with one
:class:`~repro.faults.plan.FaultPlan`.  A ``chaos``-kind scenario spec
carries it as data; the scenario runner (``autolearn run chaos-crash``)
plays it on a fresh :class:`~repro.common.clock.EventScheduler` and
reports a :class:`ChaosSummary` whose :meth:`~ChaosSummary.to_text` is
byte-identical per seed.

Every run re-checks request conservation (:func:`check_conservation`):
each admitted request ends in exactly one terminal status, completions
are unique, and the SLO counters satisfy ``offered == completed +
dropped + shed + rejected + expired``.  A violation raises
:class:`~repro.common.errors.FaultError` — losing a request during a
crash is a bug in the rescue path, not an acceptable outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.common.errors import ConfigurationError, FaultError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.serve.request import TERMINAL_STATUSES, RequestStatus
from repro.serve.service import InferenceService, ServeSummary

__all__ = ["ChaosScenario", "ChaosSummary", "check_conservation", "default_plan"]


def default_plan(replicas: int) -> FaultPlan:
    """The stock scenario: one crash, one hang, one slow-node window."""
    if replicas < 1:
        raise ConfigurationError(f"need >= 1 replica, got {replicas}")
    specs = [
        FaultSpec(FaultKind.SLOW_NODE, "replica-*", at_s=2.0,
                  duration_s=2.0, factor=4.0),
        FaultSpec(FaultKind.REPLICA_HANG, "replica:any", at_s=3.0,
                  duration_s=1.5),
    ]
    if replicas > 1:
        specs.append(FaultSpec(FaultKind.REPLICA_CRASH, "replica:any", at_s=5.0))
    return FaultPlan(specs)


@dataclass(frozen=True)
class ChaosScenario:
    """One serving configuration plus the faults played against it."""

    name: str = "default"
    duration_s: float = 10.0
    vehicles: int = 64
    replicas: int = 3
    router: str = "least-outstanding"
    batch_policy: str = "adaptive"
    queue_capacity: int = 256
    queue_policy: str = "drop"
    deadline_ticks: int = 4
    gpu: str = "V100"
    flops_per_frame: float = 1e8
    plan: FaultPlan = field(default_factory=FaultPlan)
    autoscale: bool = True
    max_replicas: int = 8
    provision_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.vehicles < 1 or self.replicas < 1:
            raise ConfigurationError(
                f"need >= 1 vehicle and replica, got "
                f"{self.vehicles}/{self.replicas}"
            )

    def to_dict(self) -> dict:
        """JSON-ready view (scenario files): the fields, ``plan`` as ``faults``."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "plan"}
        out["faults"] = self.plan.to_dicts()
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosScenario":
        """Parse a scenario file (unknown keys rejected)."""
        payload = dict(payload)
        plan = FaultPlan.from_dicts(payload.pop("faults", []))
        unknown = set(payload) - {f.name for f in fields(cls)} - {"plan"}
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys: {sorted(unknown)}"
            )
        return cls(plan=plan, **payload)


@dataclass
class ChaosSummary:
    """Deterministic end-of-run report for one chaos scenario."""

    scenario: str
    seed: int
    planned: int
    started: int
    cleared: int
    serve: ServeSummary
    fresh_response_ratio: float
    max_stale_streak: int
    lost_responses: int
    conserved: bool
    stale_ratio: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready view."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["serve"] = self.serve.to_dict()
        return out

    def to_text(self) -> str:
        """Fixed-format report; byte-identical across same-seed runs."""
        lines = [
            f"chaos scenario {self.scenario!r} seed={self.seed}",
            f"  plan      faults={self.planned} started={self.started} "
            f"cleared={self.cleared}",
            f"  impact    crashes={self.serve.crashes} "
            f"hangs={self.serve.hangs} requeued={self.serve.requeued}",
            f"  vehicles  fresh_ratio={self.fresh_response_ratio:.4f} "
            f"max_stale_streak={self.max_stale_streak} "
            f"lost={self.lost_responses}",
            f"  conserved {'yes' if self.conserved else 'NO'}",
        ]
        serve_text = self.serve.to_text().rstrip("\n")
        lines.extend("  " + line for line in serve_text.split("\n"))
        return "\n".join(lines) + "\n"


def check_conservation(service: InferenceService) -> None:
    """Raise :class:`FaultError` unless every request is accounted for."""
    slo = service.slo
    if slo.offered != slo.completed + slo.losses:
        raise FaultError(
            f"conservation violated: offered={slo.offered} != "
            f"completed={slo.completed} + losses={slo.losses}"
        )
    non_terminal = [
        request.request_id
        for request in service.requests
        if request.status not in TERMINAL_STATUSES
    ]
    if non_terminal:
        raise FaultError(
            f"{len(non_terminal)} requests never reached a terminal "
            f"status: {non_terminal[:5]}"
        )
    completed = [
        request.request_id
        for request in service.requests
        if request.status is RequestStatus.COMPLETED
    ]
    if len(completed) != len(set(completed)):
        raise FaultError("a request completed more than once")
