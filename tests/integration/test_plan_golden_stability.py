"""Determinism locks for the compiled fast path in serve and fleet.

The compiled plans reuse preallocated buffers across calls, which is
exactly the kind of optimisation that turns nondeterministic if a
buffer leaks state between batches.  These tests pin the system-level
guarantee: with plans enabled (the default everywhere), serve and
fleet runs are byte-identical per seed, and warm-compiled plans leave
the checkpoint bytes of a training run unchanged.
"""

import json

import numpy as np

from repro.fleet import FleetConfig, FleetLoop
from repro.fleet.gates import GateThresholds
from repro.ml import Adam, Trainer, create_model, save_model_bytes
from repro.data.datasets import ArraySplit
from repro.serve import BatchLatencyModel, InferenceService, PoissonWorkload

LATENCY = BatchLatencyModel(overhead_s=0.002, per_item_s=0.0004)


def _serve_summary(seed):
    model = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
    service = InferenceService(
        LATENCY, model=model, n_replicas=2, seed=seed
    )
    workload = PoissonWorkload(
        80.0, deadline_s=0.2, seed=seed, frame_shape=(24, 32, 3)
    )
    summary = service.run(workload, 1.0)
    return json.dumps(summary.to_dict(), sort_keys=True)


def test_serve_summary_byte_identical_per_seed():
    """Two identical real-model serve runs (plans warm-compiled at pin
    time) must serialise to the same bytes."""
    assert _serve_summary(11) == _serve_summary(11)


def test_fleet_loop_byte_identical_with_plans():
    """The full continuous-learning loop — training, plan recompiles at
    every stage's model pin — stays deterministic."""
    config = dict(
        n_vehicles=4,
        records_per_flush=12,
        stage_vehicles=4,
        stage_duration_s=0.5,
        min_fresh_records=48,
        eval_records=48,
        gates=GateThresholds(min_completions=10),
        rounds=2,
    )
    a = json.dumps(FleetLoop(FleetConfig(seed=3, **config)).run().to_dict(),
                   sort_keys=True)
    b = json.dumps(FleetLoop(FleetConfig(seed=3, **config)).run().to_dict(),
                   sort_keys=True)
    assert a == b


def test_checkpoint_bytes_independent_of_fast_path():
    """Training a model whose inference plans were compiled beforehand
    (as the fleet's warm start does) produces the same checkpoint
    payload as training a fresh one: the plans share parameter storage
    with the layers and never write to it."""
    rng = np.random.default_rng(2)
    x = rng.random((16, 24, 32, 3)).astype(np.float32)
    y = rng.random((16, 2)).astype(np.float32)
    split = ArraySplit(x_train=x, y_train=y, x_val=x[:4], y_val=y[:4])

    payloads = []
    for precompile in (True, False):
        model = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
        if precompile:
            assert model.compile_plans()
        Trainer(
            optimizer=Adam(), batch_size=4, epochs=2, shuffle_seed=4,
        ).fit(model, split)
        payloads.append(save_model_bytes(model))
    assert payloads[0] == payloads[1]
