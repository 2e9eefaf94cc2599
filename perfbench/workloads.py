"""The benchmark's scenarios and workloads: specs, simulated seconds, invariants.

Each of the four scenarios (``serve``, ``drive``, ``continuum``,
``pipeline``) is a :class:`~repro.eval.spec.ScenarioSpec` composed from a
``repro.eval.library`` base plus override maps, exactly as a user would
write it for ``autolearn eval``.  ``tiny`` overrides shrink a scenario
for the self-tests without changing which layers it exercises.

A benchmark workload (:data:`WORKLOADS`) runs two scenarios back to
back in one sample: ``edge`` is ``serve`` + ``drive``, ``learn`` is
``continuum`` + ``pipeline``.  Two longer workloads instead of four
short ones give each run more samples, and every layer is still
measured by one of them.

Everything here reads only public results of a finished run
(``ScenarioRun.artifacts``), so the checks hold for any change that
keeps the simulated behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval.library import BASE_SPECS, MATRIX_BASE
from repro.eval.spec import ScenarioSpec

PIPELINE_STAGES = (
    "setup",
    "collection",
    "cleaning",
    "training",
    "deployment",
    "evaluation",
)


@dataclass(frozen=True)
class Scenario:
    """One named scenario of a benchmark workload."""

    name: str
    base: ScenarioSpec
    overrides: dict
    tiny: dict
    #: Modules the runner imports lazily for this kind; importing them
    #: is part of set-up, as it is for a user's ``autolearn eval``.
    modules: tuple[str, ...]
    sim_seconds: Callable
    check: Callable

    def spec(self, scale: str = "full") -> ScenarioSpec:
        """The scenario's spec at ``full`` or ``tiny`` scale."""
        layers = [self.overrides]
        if scale == "tiny":
            layers.append(self.tiny)
        elif scale != "full":
            raise ValueError(f"unknown scale {scale!r}")
        return self.base.with_overrides(*layers, name=f"bench-{self.name}")


# ------------------------------------------------------------ serve


def _serve_sim_seconds(run) -> float:
    return float(run.artifacts["summary"].duration_s)


def _serve_check(run) -> list[str]:
    summary = run.artifacts["summary"]
    slo = run.artifacts["slo"]
    workload = run.artifacts["workload"]
    losses = slo.dropped + slo.shed + slo.rejected + slo.expired
    # The service drains its scheduler before summarising, so whatever
    # is neither completed nor lost is still in flight at the end.
    in_flight = slo.offered - slo.completed - losses
    errors = []
    if workload.submitted != slo.offered:
        errors.append(
            f"serve: workload submitted {workload.submitted} but the "
            f"service saw {slo.offered} offered"
        )
    if in_flight != 0:
        errors.append(
            f"serve: offered {slo.offered} != completed {slo.completed} "
            f"+ losses {losses} + in flight 0 (off by {in_flight})"
        )
    if summary.offered != slo.offered or summary.completed != slo.completed:
        errors.append("serve: summary and SLO tracker disagree")
    if slo.completed == 0:
        errors.append("serve: no request completed")
    return errors


# ------------------------------------------------------------ drive


def _drive_sim_seconds(run) -> float:
    artifacts = run.artifacts["artifacts"]
    return artifacts.ticks * artifacts.dt


def _drive_check(run) -> list[str]:
    artifacts = run.artifacts["artifacts"]
    n, ticks = artifacts.n_vehicles, artifacts.ticks
    errors = []
    if len(artifacts.gt_frames) != ticks or len(artifacts.tracked_frames) != ticks:
        errors.append(
            f"drive: {len(artifacts.gt_frames)} frames recorded, "
            f"expected {ticks}"
        )
    short = [i for i, frame in enumerate(artifacts.gt_frames) if len(frame) != n]
    if short:
        errors.append(f"drive: tick {short[0]} recorded fewer than {n} vehicles")
    if len(artifacts.cte_values) != n * ticks:
        errors.append(
            f"drive: {len(artifacts.cte_values)} CTE samples, "
            f"expected {n * ticks}"
        )
    if sum(stats.steps for stats in artifacts.lap_stats) != n * ticks:
        errors.append("drive: session step counts do not cover every tick")
    return errors


# -------------------------------------------------------- continuum


def _continuum_sim_seconds(run) -> float:
    return float(run.artifacts["summary"].elapsed_s)


def _continuum_check(run) -> list[str]:
    summary = run.artifacts["summary"]
    rounds = int(run.spec.params["rounds"])
    errors = []
    ran = [report.round_no for report in summary.rounds]
    if ran != list(range(1, rounds + 1)):
        errors.append(f"continuum: rounds run {ran}, expected 1..{rounds}")
    if summary.final_stable < 1:
        errors.append("continuum: the stable tag does not resolve")
    if summary.records_flushed < 1:
        errors.append("continuum: no records flushed")
    return errors


# --------------------------------------------------------- pipeline


def _pipeline_sim_seconds(run) -> float:
    return float(run.artifacts["report"].total_sim_seconds)


def _pipeline_check(run) -> list[str]:
    stages = tuple(stage.stage for stage in run.artifacts["report"].stages)
    if stages != PIPELINE_STAGES:
        return [f"pipeline: stages {stages}, expected {PIPELINE_STAGES}"]
    return []


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="serve",
            base=MATRIX_BASE,
            overrides={
                "workload.n_vehicles": 256,
                "service.replicas": 4,
                "net": "degraded",
                "duration_s": 30.0,
                "faults": [
                    {
                        "kind": "replica-crash",
                        "target": "replica:any",
                        "at_s": 12.0,
                    },
                ],
            },
            tiny={"workload.n_vehicles": 16, "duration_s": 3.0},
            modules=(
                "repro.eval.runner",
                "repro.eval.scorecard",
                "repro.faults.injector",
                "repro.faults.plan",
                "repro.serve.replica",
                "repro.serve.service",
                "repro.serve.workload",
                "repro.testbed.hardware",
            ),
            sim_seconds=_serve_sim_seconds,
            check=_serve_check,
        ),
        Scenario(
            name="drive",
            base=BASE_SPECS["drive-mot"],
            overrides={"n_vehicles": 8, "ticks": 300},
            tiny={"n_vehicles": 2, "ticks": 40},
            modules=(
                "repro.eval.runner",
                "repro.eval.scorecard",
                "repro.eval.drive",
                "repro.core.drivers",
                "repro.sim.server",
                "repro.sim.session",
            ),
            sim_seconds=_drive_sim_seconds,
            check=_drive_check,
        ),
        Scenario(
            name="continuum",
            base=BASE_SPECS["fleet-canary-chaos"],
            overrides={"n_vehicles": 160, "rounds": 4, "epochs": 3},
            tiny={"n_vehicles": 8, "rounds": 3, "epochs": 1},
            modules=(
                "repro.eval.runner",
                "repro.eval.scorecard",
                "repro.faults.plan",
                "repro.fleet",
            ),
            sim_seconds=_continuum_sim_seconds,
            check=_continuum_check,
        ),
        Scenario(
            name="pipeline",
            base=BASE_SPECS["pipeline-quickstart"],
            overrides={"n_records": 480, "epochs": 3, "eval_ticks": 300},
            tiny={"n_records": 60, "epochs": 1, "eval_ticks": 40},
            modules=(
                "repro.eval.runner",
                "repro.eval.scorecard",
                "repro.core.pipeline",
                "repro.testbed.chameleon",
            ),
            sim_seconds=_pipeline_sim_seconds,
            check=_pipeline_check,
        ),
    )
}

#: Benchmark workload → the scenarios one sample runs, in order.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "edge": ("serve", "drive"),
    "learn": ("continuum", "pipeline"),
}


def scenarios_of(name: str) -> tuple[Scenario, ...]:
    """The scenarios of workload ``name``, or scenario ``name`` alone."""
    if name in WORKLOADS:
        return tuple(SCENARIOS[part] for part in WORKLOADS[name])
    return (SCENARIOS[name],)
