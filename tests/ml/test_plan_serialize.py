"""Checkpoint round-trips through the compiled fast path.

A plan compiled from a *loaded* checkpoint must behave exactly like a
plan compiled from the original network: serialization stores the
weights, and plans share parameter storage with the layers they were
compiled from.  Also covers the fleet warm-start route (registry
checkpoint -> load with plans compiled -> keep training).
"""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    Trainer,
    create_model,
    load_model_bytes,
    save_model_bytes,
)
from repro.data.datasets import ArraySplit

MODELS = ["linear", "categorical", "inferred", "memory", "rnn", "3d"]


def _frames(model, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 255, (batch, *model.input_shape), dtype=np.uint8)


@pytest.mark.parametrize("name", MODELS)
def test_roundtrip_plan_matches_original_plan(name):
    original = create_model(name, input_shape=(24, 32, 3), scale=0.25)
    assert original.compile_plans()

    restored = load_model_bytes(save_model_bytes(original), compile_plans=True)
    # compile_plans=True pre-compiled every sub-network's inference plan.
    for net in restored._networks():
        assert net._plan is not None

    frames = _frames(original, 7)
    # Same weights through the same compiled kernels: bitwise equal.
    assert np.array_equal(
        original.predict_frames(frames), restored.predict_frames(frames)
    )


def test_load_without_compile_is_lazy():
    original = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
    restored = load_model_bytes(save_model_bytes(original))
    assert all(net._plan is None for net in restored._networks())
    # First predict compiles on demand; outputs still match.
    frames = _frames(original, 3)
    assert np.array_equal(
        original.predict_frames(frames), restored.predict_frames(frames)
    )


def test_warm_start_training_stays_bitwise_on_fast_path():
    """Fleet warm-start: publish a checkpoint, reload it, keep training.

    A reload that warm-compiles the inference plans (the fleet's
    route) must train to the same losses and weights as a plain reload
    — i.e. the compiled fast path does not fork the training numerics.
    """
    rng = np.random.default_rng(5)
    x = rng.random((12, 24, 32, 3)).astype(np.float32)
    y = rng.random((12, 2)).astype(np.float32)
    split = ArraySplit(x_train=x, y_train=y, x_val=x[:4], y_val=y[:4])

    first = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
    Trainer(optimizer=Adam(), batch_size=4, epochs=1, shuffle_seed=1).fit(
        first, split
    )
    checkpoint = save_model_bytes(first)

    results = []
    for compile_plans in (True, False):
        warm = load_model_bytes(checkpoint, compile_plans=compile_plans)
        trainer = Trainer(optimizer=Adam(), batch_size=4, epochs=2, shuffle_seed=2)
        history = trainer.fit(warm, split)
        results.append((history.train_loss, warm.get_weights()))

    (loss_fast, weights_fast), (loss_ref, weights_ref) = results
    assert loss_fast == loss_ref
    for wf, wr in zip(weights_fast, weights_ref):
        assert np.array_equal(wf, wr)


def test_plans_survive_set_weights_without_recompile():
    """Registry rollback loads new weights into a warm model: the plan
    must track them because it shares parameter storage."""
    model = create_model("linear", input_shape=(24, 32, 3), scale=0.25)
    model.compile_plans()
    frames = _frames(model, 5)
    before = model.predict_frames(frames)

    other = create_model("linear", input_shape=(24, 32, 3), scale=0.25, seed=9)
    model.set_weights(other.get_weights())
    after = model.predict_frames(frames)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, other.predict_frames(frames))
