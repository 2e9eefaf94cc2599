"""Numeric parity: the compiled inference plan vs the reference layer stack.

The contract under test (see ``repro.ml.plan``): ``InferencePlan.run``
matches ``Sequential.forward`` at float32 tolerances (the im2col GEMM
changes floating-point accumulation order, so bitwise equality is not
promised).  Training has one implementation, the reference layers,
whose gradients ``tests/ml/test_layers.py`` checks.

Every layer type with a compiled kernel is covered alone and inside
full DonkeyModel-shaped stacks, at batch sizes 1 / 7 / 32 including
batch-size changes against a warm plan (workspace re-keying).
"""

import numpy as np
import pytest

from repro.common.errors import PlanError
from repro.ml.layers import (
    LSTM,
    Activation,
    Conv2D,
    Conv3D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    TimeDistributed,
)
from repro.ml.models.factory import create_model
from repro.ml.network import Sequential
from repro.ml.plan import MAX_BATCH_KEYS, InferencePlan

RTOL, ATOL = 1e-4, 1e-5
BATCH_SIZES = (1, 7, 32)


def _input(shape, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *shape)).astype(np.float32)


def _assert_inference_parity(net, shape, batch, seed=0):
    x = _input(shape, batch, seed)
    ref = net.forward(x, training=False)
    got = net.plan().run(x)
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


# --------------------------------------------------------- per-layer


LAYER_CASES = [
    ("dense-relu", lambda: [Dense(13, activation="relu")], (9,)),
    ("dense-linear", lambda: [Dense(4, activation="linear")], (17,)),
    ("dense-tanh", lambda: [Dense(6, activation="tanh")], (5,)),
    ("dense-sigmoid", lambda: [Dense(6, activation="sigmoid")], (5,)),
    ("dense-softmax", lambda: [Dense(15, activation="softmax")], (11,)),
    ("conv2d", lambda: [Conv2D(8, 5, 2, activation="relu")], (20, 26, 3)),
    ("conv2d-stride1", lambda: [Conv2D(4, 3, 1, activation="linear")], (9, 9, 2)),
    ("conv3d", lambda: [Conv3D(6, (3, 5, 5), (1, 2, 2), activation="relu")], (5, 16, 20, 3)),
    ("maxpool", lambda: [MaxPool2D(2)], (8, 10, 4)),
    ("flatten", lambda: [Flatten()], (4, 5, 2)),
    ("dropout", lambda: [Dropout(0.4, seed=3)], (23,)),
    ("activation", lambda: [Activation("tanh")], (7,)),
    ("timedistributed", lambda: [TimeDistributed(Conv2D(5, 3, 2, activation="relu"))], (3, 11, 13, 2)),
    ("lstm-last", lambda: [LSTM(10, return_sequences=False)], (4, 6)),
    ("lstm-seq", lambda: [LSTM(10, return_sequences=True)], (4, 6)),
]


@pytest.mark.parametrize(
    "make_layers,shape", [(m, s) for _, m, s in LAYER_CASES],
    ids=[n for n, _, _ in LAYER_CASES],
)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_single_layer_inference_parity(make_layers, shape, batch):
    net = Sequential(make_layers(), shape, seed=1)
    _assert_inference_parity(net, shape, batch)


# ------------------------------------------------------- full stacks


def _stacks():
    return {
        "linear-backbone": (
            [
                Conv2D(6, 5, 2, activation="relu"),
                Dropout(0.2, seed=1),
                Conv2D(8, 5, 2, activation="relu"),
                Dropout(0.2, seed=2),
                Flatten(),
                Dense(16, activation="relu"),
                Dropout(0.2, seed=3),
                Dense(2, activation="linear"),
            ],
            (24, 32, 3),
        ),
        "categorical-head": (
            [
                Conv2D(4, 5, 2, activation="relu"),
                Flatten(),
                Dense(12, activation="relu"),
                Dense(15, activation="softmax"),
            ],
            (20, 24, 3),
        ),
        "pooled": (
            [
                Conv2D(5, 3, 1, activation="relu"),
                MaxPool2D(2),
                Flatten(),
                Dense(8, activation="tanh"),
                Dense(2, activation="linear"),
            ],
            (12, 14, 3),
        ),
        "rnn": (
            [
                TimeDistributed(Conv2D(4, 5, 2, activation="relu")),
                TimeDistributed(Flatten()),
                TimeDistributed(Dense(10, activation="relu")),
                LSTM(8, return_sequences=True),
                LSTM(6, return_sequences=False),
                Dropout(0.1, seed=4),
                Dense(2, activation="linear"),
            ],
            (3, 16, 20, 3),
        ),
        "conv3d": (
            [
                Conv3D(4, (3, 5, 5), (1, 2, 2), activation="relu"),
                Dropout(0.2, seed=5),
                Flatten(),
                Dense(10, activation="relu"),
                Dense(2, activation="linear"),
            ],
            (5, 16, 20, 3),
        ),
    }


@pytest.mark.parametrize("name", sorted(_stacks()))
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_stack_inference_parity(name, batch):
    layers, shape = _stacks()[name]
    net = Sequential(layers, shape, seed=2)
    _assert_inference_parity(net, shape, batch)


def test_warm_plan_batch_size_changes():
    """A warm plan re-keys its workspaces when the batch size changes."""
    layers, shape = _stacks()["linear-backbone"]
    net = Sequential(layers, shape, seed=3)
    plan = net.plan()
    for batch in (32, 1, 7, 32, 1):  # revisit warm keys in mixed order
        x = _input(shape, batch, seed=batch)
        ref = net.forward(x, training=False)
        np.testing.assert_allclose(plan.run(x), ref, rtol=RTOL, atol=ATOL)
    assert set(plan.batch_keys) == {1, 7, 32}


def test_workspace_lru_eviction():
    net = Sequential([Dense(3, activation="relu")], (5,), seed=4)
    plan = net.plan()
    for batch in range(1, MAX_BATCH_KEYS + 4):
        plan.run(_input((5,), batch))
    assert len(plan.batch_keys) == MAX_BATCH_KEYS
    # Oldest keys were evicted; the most recent survive.
    assert plan.batch_keys[-1] == MAX_BATCH_KEYS + 3
    assert 1 not in plan.batch_keys


def test_plan_output_is_plan_owned():
    """run() returns a workspace buffer: the next run at the same batch
    size overwrites it (callers that keep results must copy)."""
    net = Sequential([Dense(4, activation="linear")], (6,), seed=5)
    plan = net.plan()
    first = plan.run(_input((6,), 3, seed=1))
    kept = first.copy()
    second = plan.run(_input((6,), 3, seed=2))
    assert second is first  # same buffer object
    assert not np.array_equal(kept, first)  # ... overwritten in place


def test_unsupported_layer_raises_plan_error():
    class Custom(Layer):
        def build(self, input_shape, rng):
            self.built = True

        def output_shape(self, input_shape):
            return input_shape

        def forward(self, x, training=False):
            return x

        def backward(self, grad):
            return grad

    net = Sequential([Dense(3), Custom()], (4,), seed=6)
    with pytest.raises(PlanError, match="no compiled kernel"):
        net.plan()
    # predict still works through the reference fallback.
    out = net.predict(_input((4,), 5))
    assert out.shape == (5, 3)


def test_plan_tracks_in_place_weight_updates():
    """Compiled plans share parameter storage with the layers, so
    set_weights / optimizer steps take effect without recompiling."""
    net = Sequential([Dense(4, activation="relu")], (6,), seed=7)
    plan = net.plan()
    x = _input((6,), 5)
    before = plan.run(x).copy()
    net.set_weights([w * 2.0 for w in net.get_weights()])
    after = plan.run(x)
    np.testing.assert_allclose(after, net.forward(x), rtol=RTOL, atol=ATOL)
    assert not np.array_equal(before, after)


# ------------------------------------------- DonkeyModel-shaped nets


def _reference_commands(model, frames):
    """predict_frames semantics routed through the reference layers:
    same model-specific head post-processing, no compiled plans."""
    from repro.data.datasets import N_STEERING_BINS, images_to_float, linear_unbin

    x = model._serving_batch(images_to_float(frames))
    pred = model.forward(x, training=False)
    if model.name == "categorical":
        angle = linear_unbin(pred[:, :N_STEERING_BINS])
        throttle = np.clip(pred[:, N_STEERING_BINS], -1.0, 1.0)
    elif model.name == "inferred":
        angle = np.clip(pred[:, 0], -1.0, 1.0)
        throttle = model.infer_throttle(angle)
    else:
        angle = np.clip(pred[:, 0], -1, 1)
        throttle = np.clip(pred[:, 1], -1, 1)
    return np.stack([np.asarray(angle), np.asarray(throttle)], axis=1)


@pytest.mark.parametrize(
    "name", ["linear", "categorical", "inferred", "memory", "rnn", "3d"]
)
def test_model_fast_forward_matches_reference(name):
    model = create_model(name, input_shape=(24, 32, 3), scale=0.25)
    assert model.compile_plans()
    rng = np.random.default_rng(17)
    for batch in BATCH_SIZES:
        frames = rng.integers(0, 255, (batch, 24, 32, 3), dtype=np.uint8)
        ref = _reference_commands(model, frames)
        got = model.predict_frames(frames)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)
