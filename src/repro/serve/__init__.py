"""Fleet-scale inference serving on the discrete-event clock.

Queueing, dynamic micro-batching, replica routing, autoscaling, and
streaming SLO accounting for the paper's fleet-learning north star:
many vehicles sharing a pool of cloud/edge model replicas.  Fully
deterministic — every random draw is seeded, every timestamp simulated.
"""

from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.batcher import BATCH_POLICIES, BatchDecision, MicroBatcher
from repro.serve.chaos import ChaosScenario, ChaosSummary, default_plan, run_chaos
from repro.serve.queueing import QUEUE_POLICIES, AdmissionPolicy, AdmissionQueue
from repro.serve.replica import BatchLatencyModel, Replica, ReplicaState
from repro.serve.request import Request, RequestStatus
from repro.serve.router import (
    ROUTER_NAMES,
    LatencyEwmaRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    Router,
    TrafficSplitRouter,
    make_router,
)
from repro.serve.service import InferenceService, ServeSummary
from repro.serve.slo import SloTracker
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload, Workload

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "AutoscalePolicy",
    "Autoscaler",
    "BATCH_POLICIES",
    "BatchDecision",
    "BatchLatencyModel",
    "ChaosScenario",
    "ChaosSummary",
    "InferenceService",
    "LatencyEwmaRouter",
    "LeastOutstandingRouter",
    "MicroBatcher",
    "PoissonWorkload",
    "QUEUE_POLICIES",
    "ROUTER_NAMES",
    "Replica",
    "ReplicaState",
    "Request",
    "RequestStatus",
    "RoundRobinRouter",
    "Router",
    "ServeSummary",
    "SloTracker",
    "TrafficSplitRouter",
    "VehicleFleetWorkload",
    "Workload",
    "default_plan",
    "make_router",
    "run_chaos",
]
