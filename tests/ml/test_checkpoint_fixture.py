"""Checkpoint-byte fixtures: one short seeded training run per model family.

Each of the six paper models trains for two epochs on a fixed random
split at ``input_shape=(24, 32, 3)``, ``scale=0.25``; the sha256 of the
serialized checkpoint is pinned.  This locks the training numerics of
every stack the models use (multi-network memory/categorical models,
the LSTM and the Conv3D), not only the single-backbone ``linear``
model the eval goldens train.  A digest that moves means training no
longer produces the same weights.
"""

import hashlib

import numpy as np
import pytest

from repro.data.datasets import ArraySplit, linear_bin
from repro.ml import Adam, Trainer, create_model, save_model_bytes

INPUT_SHAPE = (24, 32, 3)

CHECKPOINT_SHA256 = {
    "linear": "ee26ab7c2f51d0260b0b52d5533893eee3f30aacb6e18aca66a84d97b5cff850",
    "categorical": "b2f55a9dacb0d238b0f08e27576f0d68b3446c4523c7855c33a039146a9db6e2",
    "inferred": "95b96fc61fe1e8b69dd87481714c658be4296f1676ae9d0c9a4c56afdab37176",
    "memory": "bccf26a2e21c361cf184f036aac93bd1d80a54befd5b05a26c7e36c6fc915ac6",
    "rnn": "6034b6d00be183ac60127a564ef9ce6f85a2bd5b4c6ace1af0d32c8424feb1da",
    "3d": "524a6d4be20748bfcf03d6ea6d54609f74abcf7be028ac60270dbb2490dbb071",
}


def _split(model, n=16, n_val=4, seed=0):
    rng = np.random.default_rng(seed)
    seq = model.sequence_length
    frame_shape = (seq, *INPUT_SHAPE) if seq else INPUT_SHAPE
    x = rng.random((n, *frame_shape), dtype=np.float32)
    angles = rng.uniform(-1, 1, n).astype(np.float32)
    throttles = rng.uniform(0, 1, n).astype(np.float32)
    if model.targets == "angle":
        y = angles[:, None]
    elif model.targets == "categorical":
        y = np.column_stack([linear_bin(angles), throttles]).astype(np.float32)
    else:
        y = np.column_stack([angles, throttles])
    k = n - n_val
    if model.targets == "memory":
        hist = rng.uniform(-1, 1, (n, model.mem_length, 2)).astype(np.float32)
        return ArraySplit((x[:k], hist[:k]), y[:k], (x[k:], hist[k:]), y[k:])
    return ArraySplit(x[:k], y[:k], x[k:], y[k:])


@pytest.mark.parametrize("name", sorted(CHECKPOINT_SHA256))
def test_trained_checkpoint_bytes_are_pinned(name):
    model = create_model(name, input_shape=INPUT_SHAPE, scale=0.25, seed=3)
    Trainer(optimizer=Adam(), batch_size=4, epochs=2, shuffle_seed=7).fit(
        model, _split(model)
    )
    digest = hashlib.sha256(save_model_bytes(model)).hexdigest()
    assert digest == CHECKPOINT_SHA256[name]
