"""Interpret a :class:`~repro.eval.spec.ScenarioSpec`: build, wire, run.

One generic runner per scenario *kind*, and the only code that turns
parameters into a running object graph: ``autolearn run``, ``autolearn
eval``, the golden suites and the benchmark all come through
:func:`run_scenario`.  Every kind rejects params it would not read, so
a misspelt override fails loudly instead of running the base spec.

``instrument=False`` swaps the :class:`~repro.obs.tracer.Tracer` for a
:class:`~repro.obs.tracer.NullTracer` and drops the metrics registry;
the run's *behavior* (and hence its scorecard) must not change, which
the property suite pins.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError
from repro.eval.drive import run_drive
from repro.eval.library import net_route
from repro.eval.spec import ScenarioSpec, check_params
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["ScenarioRun", "run_scenario"]

_PIPELINE_KEYS = (
    "pathway", "n_records", "epochs", "camera_hw", "model_scale", "eval_ticks",
)
_SERVE_KEYS = (
    "duration_s", "service", "workload", "net", "faults", "trace_requests",
    "autoscale",
)
_SERVICE_KEYS = (
    "replicas", "router", "batch_policy", "max_batch", "max_wait_s",
    "queue_capacity", "queue_policy", "gpu", "flops_per_frame",
)
_WORKLOAD_KEYS = {
    "poisson": ("shape", "rate_hz", "deadline_s"),
    "vehicles": ("shape", "n_vehicles", "deadline_ticks"),
}
_AUTOSCALE_KEYS = ("max_replicas", "provision_delay_s")


@dataclass
class ScenarioRun:
    """One finished scenario: instrumentation, summary, artifacts."""

    spec: ScenarioSpec
    seed: int
    tracer: Tracer | NullTracer
    metrics: MetricsRegistry | None
    summary: str
    artifacts: dict[str, Any] = field(default_factory=dict)


def _instrumentation(clock, instrument: bool):
    if instrument:
        return Tracer(clock), MetricsRegistry()
    return NullTracer(), None


def _pipeline_scenario(
    spec: ScenarioSpec, seed: int, work_dir: Path, instrument: bool
) -> ScenarioRun:
    from repro.core.pipeline import AutoLearnPipeline
    from repro.testbed.chameleon import Chameleon

    params = check_params(spec.name, spec.params, _PIPELINE_KEYS)
    chameleon = Chameleon()
    tracer, metrics = _instrumentation(chameleon.clock, instrument)
    pathway = str(params.get("pathway", "digital"))
    pipeline = AutoLearnPipeline(
        pathway,
        work_dir,
        n_records=int(params.get("n_records", 80)),
        epochs=int(params.get("epochs", 1)),
        camera_hw=tuple(params.get("camera_hw", [24, 32])),
        model_scale=float(params.get("model_scale", 0.25)),
        eval_ticks=int(params.get("eval_ticks", 60)),
        seed=seed,
        chameleon=chameleon,
        tracer=tracer if instrument else None,
        metrics=metrics,
    )
    report = pipeline.run()
    tracer.close_all()
    lines = [f"{spec.name} pathway={pathway} seed={seed}"]
    for stage in report.stages:
        lines.append(
            f"  {stage.stage:12s} {stage.alternative:12s} "
            f"{stage.sim_seconds:12.4f} s"
        )
    lines.append(f"  total        {report.total_sim_seconds:25.4f} s")
    return ScenarioRun(
        spec, seed, tracer, metrics, "\n".join(lines) + "\n",
        {"report": report},
    )


def _make_workload(workload_params: Any, seed: int):
    from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload

    shape = "poisson"
    if isinstance(workload_params, dict):
        shape = str(workload_params.get("shape", shape))
    if shape not in _WORKLOAD_KEYS:
        raise ConfigurationError(
            f"unknown workload shape {shape!r}; choose poisson or vehicles"
        )
    params = check_params(
        f"{shape} workload", workload_params, _WORKLOAD_KEYS[shape]
    )
    if shape == "poisson":
        return PoissonWorkload(
            float(params.get("rate_hz", 50.0)),
            deadline_s=float(params.get("deadline_s", 0.1)),
            seed=seed,
        )
    return VehicleFleetWorkload(
        int(params.get("n_vehicles", 16)),
        deadline_ticks=int(params.get("deadline_ticks", 2)),
        seed=seed,
    )


def _make_service(service_params: Any, scheduler, seed: int, **wiring):
    """The one :class:`InferenceService` construction for serve and chaos.

    ``wiring`` carries the per-kind collaborators (tracer, metrics,
    injector, route, request bookkeeping); defaults for the service
    params equal the constructor's.
    """
    from repro.serve.replica import BatchLatencyModel
    from repro.serve.service import InferenceService
    from repro.testbed.hardware import gpu_spec

    params = check_params("service", service_params, _SERVICE_KEYS)
    latency_model = BatchLatencyModel.from_gpu(
        gpu_spec(str(params.get("gpu", "V100"))),
        flops_per_frame=float(params.get("flops_per_frame", 1e8)),
    )
    return InferenceService(
        latency_model,
        scheduler=scheduler,
        n_replicas=int(params.get("replicas", 1)),
        router=str(params.get("router", "least-outstanding")),
        batch_policy=str(params.get("batch_policy", "adaptive")),
        max_batch=int(params.get("max_batch", 32)),
        max_wait_s=float(params.get("max_wait_s", 0.008)),
        queue_capacity=int(params.get("queue_capacity", 256)),
        queue_policy=str(params.get("queue_policy", "drop")),
        seed=seed,
        **wiring,
    )


def _serve_scenario(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.serve.autoscale import AutoscalePolicy, Autoscaler

    params = check_params(spec.name, spec.params, _SERVE_KEYS)
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    plan = FaultPlan.from_dicts(params.get("faults", []))
    injector = None
    if len(plan):
        injector = FaultInjector(
            plan, seed=seed, tracer=tracer if instrument else None
        )
    service = _make_service(
        params.get("service", {}),
        scheduler,
        seed,
        route=net_route(str(params.get("net", "lan"))),
        injector=injector,
        tracer=tracer if instrument else None,
        metrics=metrics,
        trace_requests=bool(params.get("trace_requests", False)),
    )
    workload = _make_workload(params.get("workload", {}), seed)
    autoscaler = None
    if "autoscale" in params:
        autoscale = check_params("autoscale", params["autoscale"], _AUTOSCALE_KEYS)
        autoscaler = Autoscaler(service, AutoscalePolicy(
            min_replicas=len(service.replicas),
            p95_target_s=workload.deadline_s,
            **autoscale,
        ))
    summary = service.run(
        workload, float(params.get("duration_s", 1.0)), autoscaler=autoscaler
    )
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary.to_text(),
        {"summary": summary, "workload": workload, "slo": service.slo},
    )


def _chaos_scenario(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    """Play a fault plan against a closed-loop fleet, then re-check
    request conservation (a lost request raises, it is never scored)."""
    from repro.faults.injector import FaultInjector
    from repro.serve.autoscale import AutoscalePolicy, Autoscaler
    from repro.serve.chaos import ChaosScenario, ChaosSummary, check_conservation
    from repro.serve.workload import VehicleFleetWorkload

    params = check_params(spec.name, spec.params, ("scenario",))
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    scenario = ChaosScenario.from_dict(dict(params.get("scenario", {})))
    injector = FaultInjector(
        scenario.plan, seed=seed, tracer=tracer if instrument else None
    )
    service = _make_service(
        {k: v for k, v in scenario.to_dict().items() if k in _SERVICE_KEYS},
        scheduler,
        seed,
        keep_requests=True,
        injector=injector,
        tracer=tracer if instrument else None,
        metrics=metrics,
    )
    workload = VehicleFleetWorkload(
        scenario.vehicles, deadline_ticks=scenario.deadline_ticks, seed=seed
    )
    autoscaler = None
    if scenario.autoscale:
        autoscaler = Autoscaler(service, AutoscalePolicy(
            min_replicas=scenario.replicas,
            max_replicas=scenario.max_replicas,
            provision_delay_s=scenario.provision_delay_s,
        ))
    serve = service.run(workload, scenario.duration_s, autoscaler=autoscaler)
    check_conservation(service)
    tracer.close_all()
    summary = ChaosSummary(
        scenario=scenario.name,
        seed=seed,
        planned=len(scenario.plan),
        started=injector.started,
        cleared=injector.cleared,
        serve=serve,
        fresh_response_ratio=workload.fresh_response_ratio,
        max_stale_streak=workload.stats.max_stale_streak,
        lost_responses=workload.stats.lost_responses,
        conserved=True,
        stale_ratio=workload.stale_ratio,
    )
    return ScenarioRun(
        spec, seed, tracer, metrics, summary.to_text(), {"summary": summary}
    )


def _fleet_scenario(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    from repro.faults.plan import FaultPlan
    from repro.fleet import FleetConfig, FleetLoop, GateThresholds

    params = dict(spec.params)
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    gates = params.pop("gates", {})
    plans = []
    for raw in params.pop("canary_fault_plans", []):
        entry = check_params("canary fault plan", raw, ("round", "faults"))
        plans.append((int(entry["round"]), FaultPlan.from_dicts(entry["faults"])))
    try:
        config = FleetConfig(
            gates=GateThresholds(**gates),
            canary_fault_plans=tuple(plans),
            seed=seed,
            **params,
        )
    except TypeError as exc:
        raise ConfigurationError(f"bad fleet spec {spec.name!r}: {exc}") from None
    loop = FleetLoop(
        config,
        scheduler=scheduler,
        tracer=tracer if instrument else None,
        metrics=metrics,
    )
    summary = loop.run()
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary.to_text(), {"summary": summary}
    )


def _drive_scenario(spec: ScenarioSpec, seed: int, instrument: bool) -> ScenarioRun:
    scheduler = EventScheduler()
    tracer, metrics = _instrumentation(scheduler.clock, instrument)
    summary, artifacts = run_drive(
        spec.name, spec.params, seed, scheduler, tracer, metrics
    )
    tracer.close_all()
    return ScenarioRun(
        spec, seed, tracer, metrics, summary, {"artifacts": artifacts}
    )


_RUNNERS = {
    "serve": _serve_scenario,
    "chaos": _chaos_scenario,
    "fleet": _fleet_scenario,
    "drive": _drive_scenario,
}


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    work_dir: str | Path | None = None,
    instrument: bool = True,
) -> ScenarioRun:
    """Run one spec to completion on the simulated clock.

    ``work_dir`` holds scratch artifacts for filesystem-using kinds
    (``pipeline``); when omitted a temporary directory is created and —
    because the scenario body runs inside the ``with`` block — removed
    even when the scenario raises.  Nothing in the returned run depends
    on the path, so outputs are byte-identical per seed either way.
    """
    seed = int(seed)
    if spec.kind == "pipeline":
        if work_dir is not None:
            return _pipeline_scenario(spec, seed, Path(work_dir), instrument)
        with tempfile.TemporaryDirectory() as tmp:
            return _pipeline_scenario(spec, seed, Path(tmp), instrument)
    if spec.kind not in _RUNNERS:
        raise ConfigurationError(f"unknown scenario kind {spec.kind!r}")
    return _RUNNERS[spec.kind](spec, seed, instrument)
