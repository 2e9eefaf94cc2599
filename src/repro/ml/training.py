"""Training loop: the ``donkey train`` equivalent.

Mini-batch gradient descent with per-epoch validation, early stopping,
and best-weights checkpointing — the same control flow Keras's
``fit(..., callbacks=[EarlyStopping, ModelCheckpoint])`` gives the
DonkeyCar training command.

The trainer also keeps a FLOP estimate per epoch (from the model's
parameter count and sample count) that the testbed's GPU cost model
(experiment E2) uses to translate "trained the linear model on 10K
records" into seconds on an A100 vs a P100.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import MLError
from repro.common.rng import ensure_rng
from repro.data.datasets import ArraySplit, TubDataset
from repro.ml.models.base import DonkeyModel
from repro.ml.optimizers import Adam, Optimizer

__all__ = ["History", "EarlyStopping", "Trainer", "estimate_flops_per_sample"]


def _x_len(x) -> int:
    return len(x[0]) if isinstance(x, (tuple, list)) else len(x)


def estimate_flops_per_sample(model: DonkeyModel) -> float:
    """Forward+backward FLOPs per training sample.

    Uses the model's exact per-layer forward FLOP count and the
    standard 3x rule (1 forward + 2 backward passes of equivalent
    cost).  Feeds the testbed GPU cost model (experiment E2).
    """
    try:
        forward = model.flops_per_sample()
    except NotImplementedError:
        h, w, _ = model.input_shape
        spatial_reuse = max(1.0, (h * w) / 256.0)
        forward = 2.0 * model.n_params * spatial_reuse
    return 3.0 * forward


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epochs: int = 0
    stopped_early: bool = False
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    samples_seen: int = 0

    def improved(self, val: float, min_delta: float = 0.0) -> bool:
        """Record an epoch's val loss; True if it beat the best so far."""
        if val < self.best_val_loss - min_delta:
            self.best_val_loss = val
            self.best_epoch = self.epochs
            return True
        return False


@dataclass
class EarlyStopping:
    """Stop after ``patience`` epochs without val-loss improvement."""

    patience: int = 5
    min_delta: float = 0.0
    _stale: int = 0

    def update(self, improved: bool) -> bool:
        """Feed one epoch's result; returns True if training should stop."""
        if improved:
            self._stale = 0
            return False
        self._stale += 1
        return self._stale >= self.patience


class Trainer:
    """Fits a :class:`DonkeyModel` on an :class:`ArraySplit`."""

    def __init__(
        self,
        optimizer: Optimizer | None = None,
        batch_size: int = 64,
        epochs: int = 20,
        early_stopping: EarlyStopping | None = None,
        restore_best_weights: bool = True,
        shuffle_seed: int | np.random.Generator | None = None,
        verbose: bool = False,
    ) -> None:
        if batch_size <= 0 or epochs <= 0:
            raise MLError("batch_size and epochs must be positive")
        self.optimizer = optimizer or Adam()
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.early_stopping = early_stopping
        self.restore_best_weights = restore_best_weights
        self._rng = ensure_rng(shuffle_seed)
        self.verbose = verbose

    # ------------------------------------------------------------- fit

    def fit(self, model: DonkeyModel, split: ArraySplit) -> History:
        """Train; returns the history (best weights restored if asked)."""
        history = History()
        best_weights: list[np.ndarray] | None = None
        for _epoch in range(self.epochs):
            train_loss = self._run_epoch(model, split.x_train, split.y_train)
            val_loss = self.evaluate(model, split.x_val, split.y_val)
            history.train_loss.append(train_loss)
            history.val_loss.append(val_loss)
            improved = history.improved(
                val_loss,
                self.early_stopping.min_delta if self.early_stopping else 0.0,
            )
            history.epochs += 1
            history.samples_seen += _x_len(split.x_train)
            if improved and self.restore_best_weights:
                best_weights = model.get_weights()
            if self.verbose:  # pragma: no cover - console output
                print(
                    f"epoch {history.epochs:3d}  train={train_loss:.5f}  "
                    f"val={val_loss:.5f}{'  *' if improved else ''}"
                )
            if self.early_stopping and self.early_stopping.update(improved):
                history.stopped_early = True
                break
        if self.restore_best_weights and best_weights is not None:
            model.set_weights(best_weights)
        return history

    def _run_epoch(self, model: DonkeyModel, x, y: np.ndarray) -> float:
        total, count = 0.0, 0
        for xb, yb in TubDataset.batches(x, y, self.batch_size, rng=self._rng):
            pred = model.forward(xb, training=True)
            loss, grad = model.compute_loss(pred, yb)
            model.backward(grad)
            self.optimizer.step(model.params, model.grads)
            n = len(yb)
            total += loss * n
            count += n
        if count == 0:
            raise MLError("empty training set")
        return total / count

    # ------------------------------------------------------- evaluate

    def evaluate(self, model: DonkeyModel, x, y: np.ndarray) -> float:
        """Mean loss over a dataset (inference mode).

        Runs on the compiled inference plans when the model compiles
        (allclose to the reference forward, not bitwise).
        """
        fast = model.compile_plans()
        total, count = 0.0, 0
        for xb, yb in TubDataset.batches(
            x, y, self.batch_size, shuffle=False
        ):
            if fast:
                pred = model.fast_forward(xb)
            else:
                pred = model.forward(xb, training=False)
            loss, _ = model.compute_loss(pred, yb)
            n = len(yb)
            total += loss * n
            count += n
        if count == 0:
            raise MLError("empty evaluation set")
        return total / count
