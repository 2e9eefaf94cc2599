"""``autolearn`` command-line interface.

A thin operational wrapper over the library for the common module
steps — mirroring the ``donkey`` CLI the paper's students use:

* ``autolearn tracks`` — list the registered tracks and their geometry.
* ``autolearn collect`` — drive the simulator into a tub.
* ``autolearn clean`` — run tubclean over a tub.
* ``autolearn train`` — train one of the six models on a tub.
* ``autolearn evaluate`` — drive a trained model and report qualities.
* ``autolearn pipeline`` — run a full pathway end to end.
* ``autolearn run`` — run one declarative scenario (a library name or a
  spec file, plus ``-o path=value`` overrides): serving, chaos, fleet
  learning, drive or pipeline; ``--trace DIR`` writes its trace.
* ``autolearn eval`` — score declarative scenarios against goldens.
* ``autolearn lint`` — run the reprolint invariant checker.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autolearn",
        description="AutoLearn: Learning in the Edge to Cloud Continuum",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tracks", help="list registered tracks")

    p = sub.add_parser("collect", help="collect driving data in the simulator")
    p.add_argument("tub", help="tub directory to create")
    p.add_argument("--track", default="default-tape-oval")
    p.add_argument("--records", type=int, default=2000)
    p.add_argument("--skill", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--camera", default="48x64")

    p = sub.add_parser("clean", help="run tubclean over a tub")
    p.add_argument("tub", help="tub directory")
    p.add_argument("--dry-run", action="store_true",
                   help="report spans without marking them")

    p = sub.add_parser("train", help="train a model on a tub")
    p.add_argument("tub", help="tub directory")
    p.add_argument("model_out", help="output .npz path")
    p.add_argument("--model", default="linear",
                   choices=["linear", "memory", "3d", "categorical",
                            "inferred", "rnn"])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="drive a trained model on a track")
    p.add_argument("model", help="trained .npz path")
    p.add_argument("--track", default="default-tape-oval")
    p.add_argument("--ticks", type=int, default=800)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pipeline", help="run a full learning pathway")
    p.add_argument("pathway", choices=["regular", "classroom", "digital"])
    p.add_argument("--workdir", default="./autolearn-run")
    p.add_argument("--records", type=int, default=1200)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "run",
        help="run one declarative scenario (library name or spec file) "
             "and print its summary",
    )
    from repro.eval.cli import add_eval_arguments, add_run_arguments

    add_run_arguments(p)

    p = sub.add_parser(
        "eval",
        help="run declarative scenarios and diff canonical scorecards "
             "against the checked-in goldens",
    )
    add_eval_arguments(p)

    p = sub.add_parser(
        "lint", help="run reprolint, the AST-based invariant checker"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)
    return parser


def _camera_hw(spec: str) -> tuple[int, int]:
    h, w = (int(v) for v in spec.split("x"))
    return h, w


def _cmd_tracks(_args) -> int:
    from repro.sim.server import AVAILABLE_TRACKS, make_track

    print(f"{'name':20s} {'length(m)':>10s} {'width(m)':>9s} {'min radius':>11s}")
    for name in sorted(AVAILABLE_TRACKS):
        track = make_track(name)
        print(f"{name:20s} {track.length:10.2f} {track.width:9.2f} "
              f"{track.minimum_radius():11.2f}")
    return 0


def _cmd_collect(args) -> int:
    from repro.core.collection import collect_via_simulator
    from repro.sim.server import make_track

    track = make_track(args.track)
    report = collect_via_simulator(
        track, args.tub, n_records=args.records, skill=args.skill,
        seed=args.seed, camera_hw=_camera_hw(args.camera),
    )
    print(f"collected {report.records} records in {report.wall_seconds:.0f} "
          f"sim-seconds ({report.laps} laps, {report.crashes} crashes) "
          f"-> {args.tub}")
    return 0


def _cmd_clean(args) -> int:
    from repro.data.tub import Tub
    from repro.data.tubclean import TubCleaner

    tub = Tub(args.tub)
    cleaner = TubCleaner(tub)
    spans = cleaner.find_bad_spans()
    for span in spans:
        print(f"  [{span.reason:8s}] records {span.start}..{span.stop - 1}")
    if args.dry_run:
        print(f"dry run: {len(spans)} bad spans found")
        return 0
    marked = cleaner.clean()
    print(f"marked {marked} records for deletion; {tub.active_count} remain")
    return 0


def _cmd_train(args) -> int:
    from repro.data.datasets import TubDataset
    from repro.data.tub import Tub
    from repro.ml import EarlyStopping, Trainer, create_model, save_model

    tub = Tub(args.tub)
    image = tub.load_image(tub.indexes()[0])
    dataset = TubDataset(tub)
    model = create_model(
        args.model, input_shape=image.shape, scale=args.scale, seed=args.seed
    )
    if model.targets == "memory":
        split = dataset.split_memory(model.mem_length, rng=args.seed)
    elif model.sequence_length > 0:
        split = dataset.split(rng=args.seed, targets=model.targets,
                              sequence_length=model.sequence_length)
    else:
        split = dataset.split(rng=args.seed, targets=model.targets,
                              flip_augment=True)
    history = Trainer(
        batch_size=64, epochs=args.epochs,
        early_stopping=EarlyStopping(patience=3), shuffle_seed=args.seed,
        verbose=True,
    ).fit(model, split)
    save_model(model, args.model_out)
    print(f"best val loss {history.best_val_loss:.4f} "
          f"after {history.epochs} epochs -> {args.model_out}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.evaluation import evaluate_model
    from repro.ml import load_model
    from repro.sim.renderer import CameraParams
    from repro.sim.server import make_track

    model = load_model(args.model)
    h, w, _ = model.input_shape
    report = evaluate_model(
        model, make_track(args.track), ticks=args.ticks, seed=args.seed,
        camera=CameraParams(height=h, width=w),
    )
    print(f"model:      {report.model_name}")
    print(f"laps:       {report.laps} (mean lap {report.mean_lap_time:.2f} s)")
    print(f"errors:     {report.errors}")
    print(f"mean speed: {report.mean_speed:.2f} m/s")
    print(f"mean |cte|: {report.mean_abs_cte:.3f} m")
    print(f"score:      {report.combined_score():.2f}")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.core.pipeline import AutoLearnPipeline

    pipe = AutoLearnPipeline(
        args.pathway, Path(args.workdir), n_records=args.records,
        epochs=args.epochs, seed=args.seed,
    )
    report = pipe.run()
    for stage in report.stages:
        print(f"{stage.stage:12s} {stage.alternative:14s} "
              f"{stage.sim_seconds:9.1f} s  {stage.details}")
    evaluation = report.evaluation
    print(f"evaluation: laps={evaluation.laps} errors={evaluation.errors} "
          f"speed={evaluation.mean_speed:.2f} m/s")
    return 0


def _cmd_run(args) -> int:
    from repro.eval.cli import run_scenario_command

    return run_scenario_command(args)


def _cmd_eval(args) -> int:
    from repro.eval.cli import run_eval_command

    return run_eval_command(args)


def _cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint_command

    return run_lint_command(args)


_COMMANDS = {
    "tracks": _cmd_tracks,
    "collect": _cmd_collect,
    "clean": _cmd_clean,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "run": _cmd_run,
    "eval": _cmd_eval,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
