"""The canonical scenario library: base specs, deltas, and the matrix.

Holds the declarative form of every named scenario:

* the four traced scenarios — ``pipeline-quickstart``, ``serve-load``,
  ``chaos-crash``, ``fleet-canary-chaos`` — whose traces the golden-trace
  suite pins (``autolearn run NAME --trace DIR`` exports them);
* ``drive-mot`` — a multi-vehicle drive world scored with lap/CTE/MOT
  metrics (scorecard goldens only; no trace golden);
* a generated matrix — fleet size ⊗ fault plan ⊗ network profile over
  a closed-loop serving base — built by composing named override deltas
  (:data:`MATRIX_AXES`) onto :data:`MATRIX_BASE`, Hydra-style.

Everything here is data; :mod:`repro.eval.runner` interprets it.
"""

from __future__ import annotations

import itertools

from repro.common.errors import ConfigurationError
from repro.eval.spec import ScenarioSpec
from repro.net.links import WIFI_EDGE, Link
from repro.net.topology import Route

__all__ = [
    "BASE_SPECS",
    "MATRIX_BASE",
    "MATRIX_AXES",
    "NET_PROFILES",
    "scenario_spec",
    "scenario_names",
    "matrix_specs",
    "net_route",
]

#: A lossy, jittery wide-area hop for the ``degraded`` profile.
DEGRADED_WAN = Link(
    "wan-degraded",
    base_latency_s=0.012,
    jitter_scale=0.9,
    bandwidth_bps=80e6,
    loss_rate=0.02,
)

#: Named network profiles a serve-kind spec may reference.
NET_PROFILES = ("lan", "degraded")


def net_route(profile: str) -> Route | None:
    """Resolve a named network profile to a vehicle→service route.

    ``lan`` is the historical in-rack default: no modeled network at
    all.  ``degraded`` rides a wifi edge hop plus a lossy WAN hop.
    """
    if profile == "lan":
        return None
    if profile == "degraded":
        return Route("vehicle", "cloud-pop", (WIFI_EDGE, DEGRADED_WAN))
    raise ConfigurationError(
        f"unknown net profile {profile!r}; available: "
        f"{', '.join(NET_PROFILES)}"
    )


def _spec(name: str, kind: str, params: dict) -> ScenarioSpec:
    return ScenarioSpec(name=name, kind=kind, params=params)


#: The four traced scenarios plus ``drive-mot``, as specs.
BASE_SPECS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            "pipeline-quickstart",
            "pipeline",
            {
                "pathway": "digital",
                "n_records": 80,
                "epochs": 1,
                "camera_hw": [24, 32],
                "model_scale": 0.25,
                "eval_ticks": 60,
            },
        ),
        _spec(
            "serve-load",
            "serve",
            {
                "duration_s": 1.0,
                "service": {
                    "replicas": 2,
                    "router": "least-outstanding",
                    "batch_policy": "adaptive",
                    "queue_capacity": 256,
                    "queue_policy": "drop",
                    "gpu": "V100",
                    "flops_per_frame": 1e8,
                },
                "workload": {
                    "shape": "poisson",
                    "rate_hz": 50.0,
                    "deadline_s": 0.1,
                },
                "net": "lan",
                "faults": [],
                "trace_requests": True,
            },
        ),
        _spec(
            "chaos-crash",
            "chaos",
            {
                "scenario": {
                    "name": "chaos-crash",
                    "duration_s": 6.0,
                    "vehicles": 16,
                    "replicas": 2,
                    "autoscale": False,
                    "faults": [
                        {
                            "kind": "replica-crash",
                            "target": "replica:any",
                            "at_s": 2.0,
                        },
                        {
                            "kind": "replica-hang",
                            "target": "replica:any",
                            "at_s": 3.0,
                            "duration_s": 1.0,
                        },
                    ],
                },
            },
        ),
        _spec(
            "fleet-canary-chaos",
            "fleet",
            {
                "n_vehicles": 4,
                "records_per_flush": 12,
                "stage_vehicles": 4,
                "stage_duration_s": 0.6,
                "min_fresh_records": 48,
                "eval_records": 48,
                "gates": {"min_completions": 10},
                "canary_fraction": 0.35,
                "rounds": 3,
                "canary_fault_plans": [
                    {
                        "round": 3,
                        "faults": [
                            {
                                "kind": "replica-crash",
                                "target": "replica-0003",
                                "at_s": 0.1,
                            },
                        ],
                    },
                ],
            },
        ),
        _spec(
            "drive-mot",
            "drive",
            {
                "track": "default-tape-oval",
                "n_vehicles": 4,
                "ticks": 240,
                "dt": 0.05,
                "skill": 0.85,
                "steering_noise": 0.0,
                "perception": {
                    "noise_m": 0.06,
                    "dropout": 0.08,
                    "gate_m": 0.8,
                    "max_coast": 1,
                    "match_radius_m": 0.5,
                },
            },
        ),
    )
}

#: Base cell of the generated matrix: a closed-loop vehicle fleet
#: against two replicas, no faults, no modeled network.
MATRIX_BASE = _spec(
    "matrix-base",
    "serve",
    {
        "duration_s": 4.0,
        "service": {
            "replicas": 2,
            "router": "least-outstanding",
            "batch_policy": "adaptive",
            "queue_capacity": 256,
            "queue_policy": "drop",
            "gpu": "V100",
            "flops_per_frame": 1e8,
        },
        "workload": {
            "shape": "vehicles",
            "n_vehicles": 16,
            "deadline_ticks": 4,
        },
        "net": "lan",
        "faults": [],
        "trace_requests": False,
    },
)

#: Axis → named delta → override map.  The matrix is the cartesian
#: product of one delta per axis, composed onto :data:`MATRIX_BASE`.
MATRIX_AXES: dict[str, dict[str, dict]] = {
    "fleet": {
        "v016": {"workload.n_vehicles": 16},
        "v048": {"workload.n_vehicles": 48},
    },
    "faults": {
        "nofault": {"faults": []},
        "crash": {
            "faults": [
                {
                    "kind": "replica-crash",
                    "target": "replica:any",
                    "at_s": 1.5,
                },
            ],
        },
    },
    "net": {
        "lan": {"net": "lan"},
        "degraded": {"net": "degraded"},
    },
}


def matrix_specs() -> list[ScenarioSpec]:
    """Every matrix cell, in deterministic (sorted-delta) order."""
    axes = [sorted(MATRIX_AXES[axis]) for axis in MATRIX_AXES]
    cells = []
    for combo in itertools.product(*axes):
        overrides = [
            MATRIX_AXES[axis][delta]
            for axis, delta in zip(MATRIX_AXES, combo)
        ]
        cells.append(
            MATRIX_BASE.with_overrides(
                *overrides, name="matrix-" + "-".join(combo)
            )
        )
    return cells


def scenario_names(matrix: bool = False) -> tuple[str, ...]:
    """Known scenario names; the matrix base and cells too when ``matrix``."""
    names = tuple(BASE_SPECS)
    if matrix:
        names += (MATRIX_BASE.name,)
        names += tuple(spec.name for spec in matrix_specs())
    return names


def scenario_spec(name: str) -> ScenarioSpec:
    """Look up a named scenario (library, then the matrix base and cells)."""
    if name in BASE_SPECS:
        return BASE_SPECS[name]
    for spec in (MATRIX_BASE, *matrix_specs()):
        if spec.name == name:
            return spec
    raise ConfigurationError(
        f"unknown eval scenario {name!r}; available: "
        f"{', '.join(scenario_names(matrix=True))}"
    )
