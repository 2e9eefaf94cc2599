"""Continuum benchmark: host time of whole scenario runs, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload edge --seed 7 --seconds 20 --trace 0

Every sample is a fresh interpreter (``perfbench/child.py``), as every
``autolearn eval`` is: it imports ``repro``, builds the
:class:`~repro.eval.spec.ScenarioSpec` of each of the workload's
scenarios, runs ``run_scenario`` + ``Evaluator.evaluate`` on each, and
checks the runs' invariants.  Samples repeat
until ``--seconds`` of measuring is spent (at least :data:`MIN_SAMPLES`).
All samples use the same seed, so their scorecards must be
byte-identical.

``--trace 0`` reports the end-to-end metrics (medians over the samples);
``--trace 1`` also makes one traced sample with the per-layer ledger
installed and reports the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only if every sample ran and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The keys of ``workloads.WORKLOADS`` and ``workloads.SCENARIOS`` (not
#: imported: that imports ``repro``).  A single scenario can be run on
#: its own to see its share of a workload; only workloads are declared.
WORKLOADS = ("edge", "learn")
SCENARIOS = ("serve", "drive", "continuum", "pipeline")
MIN_SAMPLES = 3
MAX_SAMPLES = 40
#: Every invocation ends within this many seconds, samples included.
DEADLINE_S = 170.0
#: BLAS may not add threads: they contend with the interpreter.
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_s_per_wall_s": "sim-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric → unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


class SampleError(RuntimeError):
    """A child run that crashed, timed out or printed no record."""


class Bench:
    """Runs the samples of one workload and checks them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.work = ROOT / ".bench_work"
        self.env = dict(os.environ, **THREAD_PIN)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # Anything the program puts in a temporary directory stays
        # inside the checkout.
        self.env["TMPDIR"] = str(self.work / "tmp")

    def child(self, scale: str = "full", trace: bool = False) -> dict:
        """One fresh-interpreter sample; failures are counted and raised."""
        self.attempted += 1
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        work_dir = self.work / f"{self.workload}-{os.getpid()}-{self.attempted}"
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--scale", scale,
            "--trace", str(int(trace)),
            "--work-dir", str(work_dir),
        ]
        try:
            if remaining <= 0:
                raise SampleError("out of time before the sample started")
            try:
                proc = subprocess.run(
                    cmd,
                    cwd=ROOT,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise SampleError(f"timed out after {remaining:.0f}s") from None
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-3:]
                raise SampleError(f"exit {proc.returncode}: {' | '.join(tail)}")
            try:
                record = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                raise SampleError("no JSON record on stdout") from None
        except SampleError as exc:
            self.failed += 1
            self.errors.append(f"{self.workload} sample {self.attempted}: {exc}")
            raise
        if record["errors"]:
            self.failed += 1
            self.errors.extend(record["errors"])
        return record

    def samples(self, seconds: float) -> list[dict]:
        """Untraced samples until ``seconds`` of measuring is spent."""
        out: list[dict] = []
        start = time.monotonic()
        while len(out) < MAX_SAMPLES:
            one = time.monotonic()
            out.append(self.child())
            took = time.monotonic() - one
            elapsed = time.monotonic() - start
            if len(out) >= MIN_SAMPLES and elapsed + took > seconds:
                break
        return out


def end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every sample."""
    return {
        "wall_s": [s["wall_s"] for s in samples],
        "sim_s_per_wall_s": [s["sim_s"] / s["wall_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result line dict, full report)."""
    bench = Bench(workload, seed)
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds}
    metrics: dict[str, dict] = {}
    samples: list[dict] = []
    traced = None
    try:
        # Warm-up: writes bytecode caches and touches every module the
        # run imports, so set-up is measured with a warm cache.
        bench.child(scale="tiny")
        samples = bench.samples(seconds)
        if trace:
            traced = bench.child(trace=True)
    except SampleError:
        pass

    digests = sorted(
        {json.dumps(s["scorecard_sha256"], sort_keys=True) for s in samples}
    )
    if len(digests) > 1:
        bench.errors.append(
            f"{workload}: same-seed scorecards differ across samples: {digests}"
        )
    if traced is not None and samples:
        if traced["scorecards"] != samples[0]["scorecards"]:
            bench.errors.append(
                f"{workload}: the traced scorecard differs from the untraced one"
            )
        if traced["ledger"]["trace.unattributed_s"] < 0:
            bench.errors.append(f"{workload}: ledger exceeds traced wall time")
    correct = not bench.errors and bench.failed == 0 and bool(samples)
    if trace and traced is None:
        correct = False

    print(f"workload {workload} seed={seed} samples={len(samples)}")
    if samples:
        e2e = {}
        for name, values in end_to_end(samples).items():
            e2e[name] = statistics.median(values)
            print(
                f"  {name:18s} median {e2e[name]:12.6f} "
                f"{END_TO_END_UNITS[name]:8s} min {min(values):.6f} "
                f"max {max(values):.6f} n={len(values)}"
            )
        report["samples"] = [
            {k: s[k] for k in ("wall_s", "setup_s", "sim_s", "peak_rss_mb")}
            for s in samples
        ]
        report["environment"] = samples[0]["environment"]
        report["scorecard_sha256"] = samples[0]["scorecard_sha256"]
        for scenario, digest in samples[0]["scorecard_sha256"].items():
            print(f"  scorecard sha256   {scenario:10s} {digest}")
        if not trace:
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in e2e.items()
            }
        elif traced is not None:
            layer = dict(traced["ledger"])
            layer["common.sched.events_per_s"] = (
                layer["common.sched.events"] / e2e["wall_s"]
            )
            layer["trace.overhead"] = layer["trace.wall_s"] / e2e["wall_s"]
            units = per_layer_units()
            metrics = {
                name: {"value": layer[name], "unit": unit}
                for name, unit in units.items()
            }
            for name, value in layer.items():
                if name.startswith("ledger.") or name.startswith("trace."):
                    print(f"  {name:30s} {value:14.6f}")
            report["traced_scorecard_sha256"] = traced["scorecard_sha256"]
    failed_ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(
        f"  failed_ratio       {failed_ratio:.6f} share "
        f"({bench.failed}/{bench.attempted} runs)"
    )
    for error in bench.errors:
        print(f"  ERROR {error}")
    report.update(
        {
            "samples_per_median": len(samples),
            "thread_pin": THREAD_PIN,
            "failed_ratio": failed_ratio,
            "errors": bench.errors,
        }
    )
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed if correct else max(bench.failed, 1),
        "metrics": metrics,
    }
    report["result"] = result
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + SCENARIOS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write the full report (JSON) here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace and not (ROOT / "BENCHMARK.json").is_file():
        print("BENCHMARK.json is missing", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, reports = [], []
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(result)
        reports.append(report)
    shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    print("report " + json.dumps(reports, sort_keys=True))
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in zip(names, results)
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
