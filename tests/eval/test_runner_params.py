"""Every scenario kind rejects spec params its runner would not read.

Runners read params with defaults, so an unchecked typo in an override
(``-o service.replcas=4``) would silently run the base spec.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario


@pytest.mark.parametrize("name, override", [
    ("serve-load", {"duration": 2.0}),
    ("serve-load", {"service.replcas": 4}),
    ("serve-load", {"workload.n_vehicles": 8}),
    ("serve-load", {"autoscale": {"max_replica": 4}}),
    ("matrix-base", {"workload.rate_hz": 20.0}),
    ("drive-mot", {"n_vehicle": 2}),
    ("drive-mot", {"perception.noise": 0.1}),
    ("pipeline-quickstart", {"records": 10}),
    ("chaos-crash", {"scenario.vehicle": 8}),
    ("chaos-crash", {"replicas": 2}),
    ("fleet-canary-chaos", {"round": 2}),
    ("fleet-canary-chaos", {"gates.min_completion": 5}),
    ("fleet-canary-chaos", {"canary_fault_plans": [{"round": 3, "faults": [], "at": 1}]}),
])
def test_unknown_param_is_rejected(name, override):
    spec = scenario_spec(name).with_overrides(override)
    with pytest.raises(ConfigurationError):
        run_scenario(spec, instrument=False)


def test_non_mapping_section_is_rejected():
    spec = scenario_spec("serve-load").with_overrides({"service": 4})
    with pytest.raises(ConfigurationError, match="mapping"):
        run_scenario(spec, instrument=False)


def _fleet_spec(**overrides):
    return scenario_spec("matrix-base").with_overrides({
        "duration_s": 1.0, "workload.n_vehicles": 8, **overrides,
    })


def test_service_defaults_equal_the_constructor_defaults():
    plain = run_scenario(_fleet_spec(), instrument=False)
    explicit = run_scenario(
        _fleet_spec(**{"service.max_batch": 32, "service.max_wait_s": 0.008}),
        instrument=False,
    )
    assert explicit.summary == plain.summary


def test_max_batch_reaches_the_batcher():
    run = run_scenario(
        _fleet_spec(**{"service.max_batch": 2, "service.batch_policy": "size"}),
        instrument=False,
    )
    assert 0 < run.artifacts["summary"].mean_batch <= 2


def test_autoscale_block_scales_the_fleet():
    spec = scenario_spec("matrix-base").with_overrides({
        "duration_s": 4.0,
        "workload.n_vehicles": 256,
        "service.replicas": 1,
    })
    without = run_scenario(spec, instrument=False)
    scaled = spec.with_overrides(
        {"autoscale": {"max_replicas": 3, "provision_delay_s": 0.5}}
    )
    summary = run_scenario(scaled, instrument=False).artifacts["summary"]
    assert without.artifacts["summary"].scale_ups == 0
    assert summary.scale_ups >= 1
    assert summary.replicas <= 3
