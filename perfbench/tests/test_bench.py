"""Self-tests of the continuum benchmark (tiny scale, in process).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from child import sample
from ledger import BOUNDARIES, LAYERS, Ledger, resolve
from workloads import SCENARIOS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: The scenario each boundary group is exercised most by.
DOMINANT = {
    "common.sched.run": "serve",
    "common.sched.schedule": "serve",
    "serve.run": "serve",
    "serve.submit": "serve",
    "serve.route": "serve",
    "serve.batcher": "serve",
    "serve.queue": "serve",
    "serve.slo": "serve",
    "serve.batch": "serve",
    "net": "serve",
    "faults": "serve",
    "sim.track": "drive",
    "sim.project": "drive",
    "sim.dynamics": "drive",
    "sim.session": "drive",
    "sim.render": "pipeline",
    "core.pipeline": "pipeline",
    "core.driver": "drive",
    "core.collect": "pipeline",
    "core.evaluate": "pipeline",
    "eval.tracker": "drive",
    "eval.score": "serve",
    "data.tub.write": "pipeline",
    "data.tub.read": "pipeline",
    "data.clean": "pipeline",
    "ml.train": "continuum",
    "ml.infer": "continuum",
    "ml.serialize": "continuum",
    "fleet.loop": "continuum",
    "fleet.world": "continuum",
    "fleet.shard.encode": "continuum",
    "fleet.shard.decode": "continuum",
    "fleet.collect": "continuum",
    "fleet.ingest": "continuum",
    "fleet.train": "continuum",
    "fleet.rollout": "continuum",
    "objectstore.put": "continuum",
    "objectstore.get": "continuum",
    "testbed": "pipeline",
    "vehicle": "pipeline",
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny sample per scenario, with the ledger kept."""
    out = {}
    for name in SCENARIOS:
        ledger = Ledger()
        work_dir = tmp_path_factory.mktemp(name)
        out[name] = (
            sample(name, seed=3, scale="tiny", ledger=ledger, work_dir=work_dir),
            ledger,
        )
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tiny_scenario_runs_checks_and_traces_identically(name, traced, tmp_path):
    record, _ = traced[name]
    assert record["errors"] == []
    assert record["sim_s"] > 0 and record["wall_s"] > 0
    untraced = sample(name, seed=3, scale="tiny", work_dir=tmp_path)
    assert untraced["scorecards"] == record["scorecards"]
    metrics = record["ledger"]
    assert metrics["trace.unattributed_s"] >= 0
    layers = sum(metrics[f"ledger.{layer}.self_s"] for layer in LAYERS)
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"]
    )


def test_workloads_cover_every_scenario_once(tmp_path):
    import run

    assert run.WORKLOADS == tuple(WORKLOADS)
    assert run.SCENARIOS == tuple(SCENARIOS)
    parts = [name for scenarios in WORKLOADS.values() for name in scenarios]
    assert sorted(parts) == sorted(SCENARIOS)
    record = sample("edge", seed=3, scale="tiny", work_dir=tmp_path)
    assert record["errors"] == []
    assert set(record["scorecards"]) == set(WORKLOADS["edge"])


def test_every_boundary_resolves_to_a_public_attribute():
    for boundary in BOUNDARIES:
        sites = resolve(boundary)
        assert sites, boundary.target
        for owner, attr, raw in sites:
            assert attr == "__call__" or not attr.startswith("_")
            assert callable(raw), boundary.target


def test_ledger_restores_every_boundary():
    before = [
        [raw for _, _, raw in resolve(boundary)] for boundary in BOUNDARIES
    ]
    ledger = Ledger()
    ledger.install()
    ledger.uninstall()
    after = [[raw for _, _, raw in resolve(boundary)] for boundary in BOUNDARIES]
    assert before == after


def test_every_boundary_is_called_on_its_dominant_workload(traced):
    groups = {boundary.group for boundary in BOUNDARIES}
    assert groups == set(DOMINANT)
    for group, workload in DOMINANT.items():
        _, ledger = traced[workload]
        calls, _, _ = ledger.group(group)
        assert calls > 0, f"{group} never called on {workload}"


@pytest.mark.parametrize(
    "metric, workloads",
    [
        ("sim.render.calls", ("drive", "serve", "continuum")),
        ("ml.train.s", ("serve", "drive")),
        ("ml.infer.calls", ("serve", "drive")),
        ("serve.submit.calls", ("drive", "pipeline")),
        ("objectstore.put.calls", ("serve", "drive")),
    ],
)
def test_predicted_zeros(metric, workloads, traced):
    for workload in workloads:
        assert traced[workload][0]["ledger"][metric] == 0, (metric, workload)


def test_fleet_metrics_are_zero_outside_continuum(traced):
    for workload in ("serve", "drive", "pipeline"):
        metrics = traced[workload][0]["ledger"]
        fleet = {k: v for k, v in metrics.items() if k.startswith("fleet.")}
        assert fleet and not any(fleet.values()), workload


def test_benchmark_json_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert set(spec["command"][1:2]) <= {
        f"{path}/run.py" for path in spec["paths"]
    }
    assert 1 <= spec["run_seconds"] <= 60
    names = []
    assert 2 <= len(spec["workloads"]) <= 8
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert UNIT.fullmatch(metric["unit"]), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_ledger_reports_every_declared_per_layer_metric(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["per_layer"]}
    # The parent adds the two metrics that need the untraced median.
    reported = set(traced["serve"][0]["ledger"]) | {
        "common.sched.events_per_s",
        "trace.overhead",
    }
    assert declared == reported
