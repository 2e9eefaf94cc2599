"""One benchmark sample in a fresh interpreter: set up, run, check.

``python3 perfbench/child.py --workload W --seed N [--trace 1]`` times

* set-up: importing ``repro`` and the modules of the workload's
  scenario kinds and building their specs (the first thing this
  process does);
* the run: ``run_scenario`` + ``Evaluator.evaluate`` of each scenario,
  tracing off unless ``--trace 1``, in which case the per-layer ledger
  is installed;

then checks each run's invariants and prints one JSON line.  ``src`` must
be importable (the parent sets ``PYTHONPATH``).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def sample(workload_name, seed, scale="full", ledger=None, work_dir=None, t0=None):
    """Set up, run and check one workload; returns the sample record.

    ``workload_name`` is a benchmark workload (its scenarios run back to
    back) or a single scenario.  With a :class:`~ledger.Ledger`, the run
    is traced through it.
    """
    t0 = time.perf_counter() if t0 is None else t0
    import repro  # noqa: F401  (set-up cost users pay on every run)

    from workloads import scenarios_of

    scenarios = scenarios_of(workload_name)
    for scenario in scenarios:
        for module in scenario.modules:
            importlib.import_module(module)
    specs = [scenario.spec(scale) for scenario in scenarios]
    setup_s = time.perf_counter() - t0

    from repro.eval.runner import run_scenario
    from repro.eval.scorecard import Evaluator

    def scenario_runs():
        out = []
        for spec in specs:
            run = run_scenario(spec, seed=seed, work_dir=work_dir, instrument=False)
            out.append((run, Evaluator().evaluate(run)))
        return out

    if ledger is not None:
        runs = ledger.measure(scenario_runs)
        wall_s = ledger.wall_s
    else:
        start = time.perf_counter()
        runs = scenario_runs()
        wall_s = time.perf_counter() - start
    sim_s = 0.0
    errors = []
    scorecards = {}
    for scenario, (run, card) in zip(scenarios, runs):
        sim_s += scenario.sim_seconds(run)
        errors.extend(scenario.check(run))
        scorecards[scenario.name] = card.to_json()
    return {
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "trace": ledger is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim_s": sim_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
        "scorecard_sha256": {
            name: hashlib.sha256(card.encode("utf-8")).hexdigest()
            for name, card in scorecards.items()
        },
        "scorecards": scorecards,
        "ledger": ledger.metrics() if ledger is not None else None,
    }


def environment():
    """Versions and thread settings that affect the timings."""
    import os
    import platform

    import numpy

    config = getattr(numpy, "__config__", None)
    blas = {}
    try:
        blas = config.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger()
    try:
        record = sample(
            args.workload,
            args.seed,
            scale=args.scale,
            ledger=ledger,
            work_dir=work_dir,
            t0=_T0,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["environment"] = environment()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
