"""``autolearn run`` (one scenario) and ``autolearn eval`` (score vs goldens).

Mirrors the :mod:`repro.analysis.cli` split: ``add_*_arguments`` builds
a subparser and ``run_*_command`` interprets it, so the top-level
:mod:`repro.cli` stays a thin table.

Exit codes: 0 — ran, or (``eval``) every scorecard matched its golden
or goldens were updated / comparison skipped; 1 — (``eval``) a
scorecard diverged or has no golden yet; 2 — bad invocation (unknown
scenario, malformed override, unknown spec param or GPU).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.common.errors import ConfigurationError, NoSuchResourceError

__all__ = [
    "add_eval_arguments",
    "add_run_arguments",
    "default_golden_dir",
    "run_eval_command",
    "run_scenario_command",
]


def default_golden_dir() -> Path:
    """The checked-in golden scorecards (tests/eval/golden)."""
    return Path(__file__).resolve().parents[3] / "tests" / "eval" / "golden"


def add_eval_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``eval`` subcommand's arguments to ``parser``."""
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="run one named scenario (repeatable); default "
                             "is the whole library")
    parser.add_argument("--matrix", action="store_true",
                        help="run every generated matrix cell")
    parser.add_argument("--list", action="store_true",
                        help="list known scenarios and exit")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="seed to score (repeatable; default 0)")
    parser.add_argument("--out", default="",
                        help="directory to write scorecard JSON files into")
    parser.add_argument("--golden", default="",
                        help="golden scorecard directory (default: the "
                             "checked-in tests/eval/golden)")
    parser.add_argument("--no-golden", action="store_true",
                        help="skip the golden comparison entirely")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite the golden scorecards from this run")


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``run`` subcommand's arguments to ``parser``."""
    parser.add_argument("scenario", metavar="SCENARIO",
                        help="library or matrix scenario name, or a path "
                             "to a ScenarioSpec JSON file")
    parser.add_argument("-o", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override one dotted spec param; VALUE is "
                             "JSON, else a plain string (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default="", metavar="DIR",
                        help="run with tracing and write trace.json / "
                             "trace.txt / metrics.json into DIR")
    parser.add_argument("--json", action="store_true",
                        help="print the canonical scorecard JSON instead "
                             "of the summary")


def _parse_override(text: str) -> dict:
    """``"a.b=value"`` → ``{"a.b": value}``; value is JSON or a string."""
    path, sep, raw = text.partition("=")
    if not sep:
        raise ConfigurationError(f"override {text!r} is not PATH=VALUE")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return {path: value}


def _load_spec(ref: str):
    """A library/matrix scenario by name, or a spec JSON file by path."""
    from repro.eval.library import scenario_spec
    from repro.eval.spec import ScenarioSpec

    path = Path(ref)
    if not path.is_file():
        return scenario_spec(ref)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read spec file {ref}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(f"spec file {ref} does not hold an object")
    return ScenarioSpec.from_dict(payload)


def run_scenario_command(args) -> int:
    """Run one scenario; print its summary or scorecard, maybe a trace."""
    from repro.eval.runner import run_scenario
    from repro.eval.scorecard import Evaluator
    from repro.obs.export import chrome_trace, text_tree

    try:
        spec = _load_spec(args.scenario).with_overrides(
            *(_parse_override(text) for text in args.overrides)
        )
        run = run_scenario(spec, seed=args.seed, instrument=bool(args.trace))
        text = Evaluator().evaluate(run).to_json() if args.json else run.summary
    except (ConfigurationError, NoSuchResourceError) as exc:
        # NoSuchResourceError is a KeyError: print the message, not a repr.
        print(f"error: {exc.args[0] if exc.args else exc}")
        return 2
    print(text, end="")
    if args.trace:
        out = Path(args.trace)
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.json").write_text(chrome_trace(run.tracer))
        (out / "trace.txt").write_text(text_tree(run.tracer))
        (out / "metrics.json").write_text(run.metrics.to_json())
        print(f"spans={len(run.tracer.spans)} events={len(run.tracer.events)} "
              f"-> {out}", file=sys.stderr)
    return 0


def _selected_specs(args) -> list:
    from repro.eval.library import BASE_SPECS, matrix_specs, scenario_spec

    specs = []
    if args.scenario:
        specs.extend(scenario_spec(name) for name in args.scenario)
    if args.matrix:
        specs.extend(matrix_specs())
    if not specs:
        specs = list(BASE_SPECS.values())
    return specs


def run_eval_command(args) -> int:
    """Run the selected scenarios and diff against golden scorecards."""
    from repro.eval.library import scenario_names
    from repro.eval.runner import run_scenario
    from repro.eval.scorecard import Evaluator

    if args.list:
        for name in scenario_names(matrix=True):
            print(name)
        return 0
    try:
        specs = _selected_specs(args)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    seeds = args.seed if args.seed else [0]
    golden_dir = Path(args.golden) if args.golden else default_golden_dir()
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.update_goldens:
        golden_dir.mkdir(parents=True, exist_ok=True)
    evaluator = Evaluator()
    failures = 0
    for spec in specs:
        for seed in seeds:
            card = evaluator.evaluate(run_scenario(spec, seed=seed))
            text = card.to_json()
            filename = f"{spec.name}-seed{seed}.json"
            if out_dir is not None:
                (out_dir / filename).write_text(text)
            if args.no_golden:
                print(f"ran   {spec.name} seed={seed} "
                      f"digest={card.spec_digest}")
                continue
            golden_path = golden_dir / filename
            if args.update_goldens:
                golden_path.write_text(text)
                print(f"wrote {spec.name} seed={seed} -> {golden_path}")
                continue
            if not golden_path.exists():
                failures += 1
                print(f"NEW   {spec.name} seed={seed} (no golden at "
                      f"{golden_path}; rerun with --update-goldens)")
                continue
            golden = golden_path.read_text()
            if golden == text:
                print(f"ok    {spec.name} seed={seed} "
                      f"digest={card.spec_digest}")
            else:
                failures += 1
                print(f"DIFF  {spec.name} seed={seed}")
                for mine, theirs in zip(
                    text.splitlines(), golden.splitlines()
                ):
                    if mine != theirs:
                        print(f"  - {theirs.strip()}")
                        print(f"  + {mine.strip()}")
    if failures:
        print(f"{failures} scorecard(s) diverged")
        return 1
    return 0
