"""Unit tests for running library scenarios by name.

The golden-trace suite covers the scenarios end to end; these tests pin
the contract of :func:`~repro.eval.library.scenario_spec` plus
:func:`~repro.eval.runner.run_scenario`: every traced name resolves to
a declarative spec that round-trips, unknown names raise, the requested
seed reaches the scenario's seeded components, and the scratch work dir
never leaks — even when the scenario body raises.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.library import scenario_names, scenario_spec
from repro.eval.runner import run_scenario
from repro.eval.spec import ScenarioSpec

TRACED = ("pipeline-quickstart", "serve-load", "chaos-crash", "fleet-canary-chaos")


def run_named(name, seed=0, work_dir=None):
    return run_scenario(scenario_spec(name), seed=seed, work_dir=work_dir)


class TestSpecs:
    @pytest.mark.parametrize("name", TRACED)
    def test_every_scenario_has_a_round_tripping_spec(self, name):
        spec = scenario_spec(name)
        assert spec.name == name
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_scenario_names_are_stable(self):
        assert scenario_names() == TRACED + ("drive-mot",)

    @pytest.mark.parametrize(
        "func", [run_named, scenario_spec], ids=["run_scenario", "scenario_spec"]
    )
    def test_unknown_name_raises_configuration_error(self, func):
        with pytest.raises(ConfigurationError, match="unknown eval scenario"):
            func("no-such-scenario")


class _Abort(Exception):
    """Raised by capture stubs to stop the run after the seed is seen."""


class TestSeedPlumbing:
    """The seed argument must reach every seeded component unchanged."""

    SEED = 7741

    def _capture_seed(self, monkeypatch, module, attr, captured):
        def stub(*args, **kwargs):
            captured[attr] = kwargs.get("seed")
            raise _Abort

        monkeypatch.setattr(module, attr, stub)

    def test_serve_load_service_seed(self, monkeypatch):
        import repro.serve.service as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "InferenceService", captured)
        with pytest.raises(_Abort):
            run_named("serve-load", seed=self.SEED)
        assert captured["InferenceService"] == self.SEED

    def test_serve_load_workload_seed(self, monkeypatch):
        import repro.serve.workload as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "PoissonWorkload", captured)
        with pytest.raises(_Abort):
            run_named("serve-load", seed=self.SEED)
        assert captured["PoissonWorkload"] == self.SEED

    def test_chaos_crash_run_seed(self, monkeypatch):
        import repro.faults.injector as injector_mod
        import repro.serve.service as service_mod

        captured = {}
        real_injector = injector_mod.FaultInjector

        def spy(*args, **kwargs):
            captured["FaultInjector"] = kwargs.get("seed")
            return real_injector(*args, **kwargs)

        monkeypatch.setattr(injector_mod, "FaultInjector", spy)
        self._capture_seed(
            monkeypatch, service_mod, "InferenceService", captured
        )
        with pytest.raises(_Abort):
            run_named("chaos-crash", seed=self.SEED)
        assert captured == {
            "FaultInjector": self.SEED,
            "InferenceService": self.SEED,
        }

    def test_fleet_config_seed(self, monkeypatch):
        import repro.fleet as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "FleetConfig", captured)
        with pytest.raises(_Abort):
            run_named("fleet-canary-chaos", seed=self.SEED)
        assert captured["FleetConfig"] == self.SEED

    def test_pipeline_seed(self, monkeypatch, tmp_path):
        import repro.core.pipeline as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "AutoLearnPipeline", captured)
        with pytest.raises(_Abort):
            run_named("pipeline-quickstart", seed=self.SEED, work_dir=tmp_path)
        assert captured["AutoLearnPipeline"] == self.SEED

    def test_seed_is_coerced_to_int(self, monkeypatch):
        import repro.faults.injector as mod

        captured = {}
        self._capture_seed(monkeypatch, mod, "FaultInjector", captured)
        with pytest.raises(_Abort):
            run_named("chaos-crash", seed="11")
        assert captured["FaultInjector"] == 11


class TestWorkDirCleanup:
    def test_temp_work_dir_removed_on_scenario_exception(
        self, monkeypatch, tmp_path
    ):
        """The implicit temp work dir must not leak when the scenario
        body raises mid-run."""
        import repro.core.pipeline as mod

        def explode(*args, **kwargs):
            raise RuntimeError("scenario body failure")

        monkeypatch.setattr(mod, "AutoLearnPipeline", explode)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError, match="scenario body failure"):
            run_named("pipeline-quickstart", seed=0)
        assert list(tmp_path.iterdir()) == []

    def test_explicit_work_dir_is_kept(self, tmp_path):
        result = run_named("pipeline-quickstart", seed=0, work_dir=tmp_path)
        assert result.summary.startswith("pipeline-quickstart")
        assert list(tmp_path.iterdir()), "work dir should hold artifacts"
