"""Chaos regressions: conservation under crashes, per-seed determinism."""

import json

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.common.eventlog import EventLog
from repro.faults.breaker import BreakerState
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.eval.runner import run_scenario
from repro.eval.spec import ScenarioSpec
from repro.serve.chaos import ChaosScenario, default_plan
from repro.serve.replica import ReplicaState
from repro.serve.request import RequestStatus, TERMINAL_STATUSES
from repro.serve.workload import PoissonWorkload, VehicleFleetWorkload


def play(scenario, seed):
    """Run one chaos scenario through the scenario runner."""
    spec = ScenarioSpec("chaos", "chaos", {"scenario": scenario.to_dict()})
    return run_scenario(spec, seed=seed, instrument=False)


class TestCrashConservation:
    def test_no_admitted_request_is_lost_or_double_completed(
        self, chaos_service
    ):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=2,
        )
        service.run(PoissonWorkload(400.0, deadline_s=0.2, seed=5), 2.0)
        assert service.crashes == 1
        assert service.slo.requeued > 0
        assert service.requests
        assert all(r.status in TERMINAL_STATUSES for r in service.requests)
        slo = service.slo
        assert slo.offered == slo.completed + slo.losses
        completed = [
            r.request_id for r in service.requests
            if r.status is RequestStatus.COMPLETED
        ]
        assert len(completed) == len(set(completed))

    def test_crashed_replica_is_failed_and_circuit_open(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=2,
        )
        service.run(PoissonWorkload(200.0, seed=5), 1.0)
        crashed = service.replicas[0]
        assert crashed.state is ReplicaState.FAILED
        assert service.breaker_for("replica-0001").state is BreakerState.OPEN
        assert crashed not in service.routable_replicas()

    def test_requeues_preserve_deadline_order(self, chaos_service, caplog):
        log = EventLog()
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=1, log=log, log_requests=True,
        )
        service.run(PoissonWorkload(600.0, deadline_s=0.5, seed=5), 1.0)
        requeues = [
            e.payload["deadline_s"]
            for e in log.filter(kind="serve.request.requeue")
        ]
        assert requeues, "the crash should have orphaned queued requests"
        assert requeues == sorted(requeues)

    def test_losing_every_replica_degrades_not_crashes(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-*", 0.5)],
            n_replicas=2,
        )
        summary = service.run(PoissonWorkload(200.0, seed=5), 2.0)
        assert service.crashes == 2
        assert summary.offered == summary.completed + (
            summary.dropped + summary.shed + summary.rejected + summary.expired
        )
        assert summary.dropped > 0  # post-crash arrivals fall back to drops


class TestHangs:
    def test_inflight_completion_is_postponed_past_the_hang(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.serve.replica import BatchLatencyModel
        from repro.serve.request import Request
        from repro.serve.service import InferenceService

        # Deterministic latency: the single-request batch takes 0.31 s,
        # so it is mid-flight when the hang lands at 0.1 s.
        plan = FaultPlan([FaultSpec(FaultKind.REPLICA_HANG, "replica-0001",
                                    at_s=0.1, duration_s=1.0)])
        service = InferenceService(
            BatchLatencyModel(0.3, 0.01, jitter=0.0),
            n_replicas=1, batch_policy="single", seed=5,
            injector=FaultInjector(plan, seed=5), keep_requests=True,
        )
        request = Request("req-000001", "test", arrival_s=0.0, deadline_s=10.0)
        assert service.submit(request)
        service.scheduler.run_all()
        assert service.hangs == 1
        assert request.status is RequestStatus.COMPLETED
        # Without the hang it would complete at 0.31; the hang freezes the
        # replica from 0.1 to 1.1, shifting completion by the full second.
        assert request.completed_s == pytest.approx(1.31)

    def test_hung_replica_is_unroutable_until_thaw(self, chaos_service):
        service = chaos_service(
            plan=[(FaultKind.REPLICA_HANG, "replica-0001", 0.5, 1.0)],
            n_replicas=1,
        )
        scheduler = service.scheduler
        scheduler.run_until(0.6)
        assert service.routable_replicas() == []
        scheduler.run_until(5.0)
        replica = service.replicas[0]
        assert not replica.is_hung(scheduler.clock.now)


class TestAutoscalerReplacement:
    def test_crashed_capacity_is_replaced(self, chaos_service):
        from repro.serve.autoscale import AutoscalePolicy, Autoscaler

        log = EventLog()
        service = chaos_service(
            plan=[(FaultKind.REPLICA_CRASH, "replica-0001", 0.5)],
            n_replicas=1, log=log,
        )
        autoscaler = Autoscaler(service, AutoscalePolicy(
            min_replicas=1, max_replicas=4, interval_s=0.25,
            provision_delay_s=0.25, queue_high=1e9, p95_target_s=1e9,
        ))
        summary = service.run(
            PoissonWorkload(50.0, deadline_s=2.0, seed=5), 4.0,
            autoscaler=autoscaler,
        )
        assert service.crashes == 1
        replacements = log.filter(kind="serve.scale.replace")
        assert replacements and replacements[0].time >= 0.5
        assert summary.scale_ups >= 1
        # The replacement serves: batches dispatch onto it once ready.
        ready = log.filter(kind="serve.replica.ready")
        assert ready
        late = [
            e for e in log.filter(kind="serve.batch.dispatch")
            if e.time > ready[0].time and e.actor == "replica-0002"
        ]
        assert late


class TestDeterminism:
    def scenario(self):
        return ChaosScenario(
            name="det", duration_s=6.0, vehicles=32, replicas=2,
            plan=default_plan(2), provision_delay_s=0.5,
        )

    def test_chaos_spec_byte_identical_per_seed(self):
        a = play(self.scenario(), seed=3)
        b = play(self.scenario(), seed=3)
        assert a.summary == b.summary
        assert a.artifacts["summary"].to_dict() == b.artifacts["summary"].to_dict()

    def test_different_seeds_differ(self):
        a = play(self.scenario(), seed=3)
        b = play(self.scenario(), seed=4)
        assert a.summary != b.summary

    def test_cli_chaos_byte_identical(self, capsys):
        scenario = {
            "name": "default", "duration_s": 5, "vehicles": 24,
            "replicas": 3, "faults": default_plan(3).to_dicts(),
        }
        argv = ["run", "chaos-crash", "-o", f"scenario={json.dumps(scenario)}",
                "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("chaos scenario 'default' seed=3\n")
        assert "conserved yes" in first

    def test_cli_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        spec = ScenarioSpec("det", "chaos", {"scenario": self.scenario().to_dict()})
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["run", str(path), "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos scenario 'det' seed=2" in out


class TestScenario:
    def test_dict_round_trip(self):
        scenario = ChaosScenario(name="rt", replicas=2, plan=default_plan(2))
        again = ChaosScenario.from_dict(scenario.to_dict())
        assert again.to_dict() == scenario.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario.from_dict({"name": "x", "blast_radius": 3})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosScenario(vehicles=0)
        with pytest.raises(ConfigurationError):
            default_plan(0)

    def test_summary_embeds_serve_report(self):
        run = play(
            ChaosScenario(duration_s=4.0, vehicles=16, replicas=2,
                          plan=default_plan(2)),
            seed=1,
        )
        summary = run.artifacts["summary"]
        text = summary.to_text()
        assert text == run.summary
        assert "serve summary" in text
        assert "faults    crashes=" in text
        assert summary.conserved
