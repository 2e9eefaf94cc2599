"""The autolearn CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("tracks", "collect", "clean", "train", "evaluate",
                        "pipeline"):
            args = {
                "tracks": [],
                "collect": ["/tmp/x"],
                "clean": ["/tmp/x"],
                "train": ["/tmp/x", "/tmp/m.npz"],
                "evaluate": ["/tmp/m.npz"],
                "pipeline": ["digital"],
            }[command]
            parsed = parser.parse_args([command, *args])
            assert parsed.command == command


class TestCommands:
    def test_tracks(self, capsys):
        assert main(["tracks"]) == 0
        out = capsys.readouterr().out
        assert "default-tape-oval" in out
        assert "waveshare" in out

    def test_collect_clean_train_evaluate(self, tmp_path, capsys):
        tub = str(tmp_path / "tub")
        model = str(tmp_path / "m.npz")
        assert main([
            "collect", tub, "--records", "300", "--seed", "3",
            "--camera", "40x56", "--skill", "0.6",
        ]) == 0
        assert "collected 300 records" in capsys.readouterr().out

        assert main(["clean", tub, "--dry-run"]) == 0
        assert main(["clean", tub]) == 0
        out = capsys.readouterr().out
        assert "marked" in out

        assert main([
            "train", tub, model, "--model", "linear", "--epochs", "2",
            "--scale", "0.25",
        ]) == 0
        assert "val loss" in capsys.readouterr().out

        assert main(["evaluate", model, "--ticks", "100"]) == 0
        out = capsys.readouterr().out
        assert "mean speed" in out
        assert "laps" in out


def _serve_spec(**overrides):
    from repro.eval.library import scenario_spec

    return scenario_spec("serve-load").with_overrides(
        {"duration_s": 0.5, **overrides}
    )


class TestRun:
    """``autolearn run``: the one CLI path from a spec to a result."""

    def test_removed_commands_are_gone(self):
        for command in ("serve", "chaos", "fleet", "trace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_prints_the_run_summary(self, capsys):
        from repro.eval.runner import run_scenario

        assert main(["run", "serve-load", "-o", "duration_s=0.5",
                     "--seed", "2"]) == 0
        expected = run_scenario(_serve_spec(), seed=2, instrument=False)
        assert capsys.readouterr().out == expected.summary

    def test_same_seed_prints_identical_bytes(self, capsys):
        argv = ["run", "matrix-base", "-o", "duration_s=1",
                "-o", "workload.n_vehicles=8", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("serve summary\n")

    def test_trace_writes_the_instrumented_run(self, tmp_path, capsys):
        from repro.eval.runner import run_scenario
        from repro.obs.export import chrome_trace, text_tree

        out = tmp_path / "trace"
        assert main(["run", "serve-load", "-o", "duration_s=0.5",
                     "--trace", str(out)]) == 0
        run = run_scenario(_serve_spec(), seed=0)
        assert capsys.readouterr().out == run.summary
        assert (out / "trace.json").read_text() == chrome_trace(run.tracer)
        assert (out / "trace.txt").read_text() == text_tree(run.tracer)
        assert (out / "metrics.json").read_text() == run.metrics.to_json()

    def test_json_prints_the_scorecard(self, capsys):
        from repro.eval.runner import run_scenario
        from repro.eval.scorecard import Evaluator

        assert main(["run", "serve-load", "-o", "duration_s=0.5",
                     "--seed", "4", "--json"]) == 0
        card = Evaluator().evaluate(run_scenario(_serve_spec(), seed=4))
        assert capsys.readouterr().out == card.to_json()

    def test_spec_file_and_string_override(self, tmp_path, capsys):
        import json

        from repro.eval.runner import run_scenario

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_serve_spec().to_dict()))
        assert main(["run", str(path), "-o", "service.router=round-robin"]) == 0
        out = capsys.readouterr().out
        spec = _serve_spec(**{"service.router": "round-robin"})
        assert out == run_scenario(spec, instrument=False).summary
        assert "router=round-robin" in out

    @pytest.mark.parametrize("argv", [
        ["run", "serve-load", "-o", "duration_s"],
        ["run", "no-such-scenario"],
        ["run", "serve-load", "-o", "service.replcas=4"],
        ["run", "missing-spec.json"],
        ["run", "serve-load", "-o", "service.gpu=no-such-gpu"],
    ], ids=["override-without-equals", "unknown-name", "unknown-param",
            "missing-spec-file", "unknown-gpu"])
    def test_bad_invocations_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error: ")
