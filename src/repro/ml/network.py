"""Sequential network container.

The layer-stack equivalent of ``keras.Sequential``: builds layers for a
given input shape, runs forward/backward through the stack, and exposes
flattened parameter/gradient lists for the optimizer.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import PlanError, ShapeError
from repro.common.rng import ensure_rng
from repro.ml.layers import Layer
from repro.ml.plan import InferencePlan

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers with a fixed input shape."""

    def __init__(
        self,
        layers: list[Layer],
        input_shape: tuple[int, ...],
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not layers:
            raise ShapeError("Sequential needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        rng = ensure_rng(seed)
        shape = self.input_shape
        for layer in self.layers:
            if not layer.built:
                layer.build(shape, rng)
            shape = layer.output_shape(shape)
        self.output_shape = shape
        self._plan: InferencePlan | None = None

    # ------------------------------------------------------------- plan

    def plan(self) -> InferencePlan:
        """Compiled inference fast path (cached; raises ``PlanError``
        when the stack contains a layer without a compiled kernel)."""
        if self._plan is None:
            self._plan = InferencePlan(self.layers, self.input_shape)
        return self._plan

    # ------------------------------------------------------------ pass

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the stack; input must match ``input_shape`` (plus batch)."""
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"expected input shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        out = np.ascontiguousarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate the loss gradient; returns grad w.r.t. input."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Inference in mini-batches (no dropout, bounded memory).

        Runs through the compiled :meth:`plan` when the stack supports
        it (falling back to the reference layers otherwise) and always
        returns a fresh array the caller owns.
        """
        try:
            plan = self.plan()
        except PlanError:
            outputs = [
                self.forward(x[lo : lo + batch_size], training=False)
                for lo in range(0, len(x), batch_size)
            ]
            return np.concatenate(outputs) if len(outputs) > 1 else outputs[0]
        n = len(x)
        result = np.empty((n, *self.output_shape), dtype=np.float32)
        for lo in range(0, n, batch_size):
            chunk = plan.run(x[lo : lo + batch_size])
            result[lo : lo + len(chunk)] = chunk
        return result

    # ------------------------------------------------------ parameters

    @property
    def params(self) -> list[np.ndarray]:
        """Flattened trainable parameters (layer order)."""
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        """Gradients aligned with :attr:`params`."""
        return [g for layer in self.layers for g in layer.grads]

    @property
    def n_params(self) -> int:
        """Total trainable scalar count."""
        return sum(p.size for p in self.params)

    def get_weights(self) -> list[np.ndarray]:
        """Copies of all parameters (for checkpointing)."""
        return [p.copy() for p in self.params]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameters in place (shapes must match)."""
        params = self.params
        if len(weights) != len(params):
            raise ShapeError(
                f"weight count mismatch: model has {len(params)}, got {len(weights)}"
            )
        for param, weight in zip(params, weights):
            if param.shape != weight.shape:
                raise ShapeError(
                    f"weight shape mismatch: {param.shape} vs {weight.shape}"
                )
            param[...] = weight

    def flops_per_sample(self) -> float:
        """Forward-pass FLOPs for one sample (per-layer accounting)."""
        total = 0.0
        shape = self.input_shape
        for layer in self.layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def summary(self) -> str:
        """Human-readable stack description."""
        lines = [f"Sequential(input={self.input_shape})"]
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(
                f"  {type(layer).__name__:<16} out={shape} params={layer.n_params}"
            )
        lines.append(f"  total params: {self.n_params}")
        return "\n".join(lines)
