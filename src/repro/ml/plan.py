"""Compiled inference plan: the serving fast path for a built ``Sequential``.

The layer stack in :mod:`repro.ml.layers` is the *reference*
implementation and the only training path — readable,
allocation-happy, one Python call per layer per batch.  This module
compiles a built :class:`Sequential` into a flat forward-only step
program, :class:`InferencePlan`, that runs a whole pass with minimal
Python dispatch.  Activation buffers are preallocated per batch size
(re-keyed transparently when the batch size changes), convolutions run
as a single im2col GEMM over an ``as_strided`` patch view copied into a
cached column buffer, affine + activation kernels are fused in place,
and every op is an ``out=``-style float32 numpy call.  Output parity
with the reference stack is *allclose* at float32 tolerances (the GEMM
changes the accumulation order).

Plans hold *views* of the layer parameters, so in-place weight updates
(``Sequential.set_weights``, optimizer steps) are visible without
recompiling.  Compiling a stack that contains an unsupported (custom)
layer type raises :class:`~repro.common.errors.PlanError`; callers fall
back to the reference stack.

Arrays returned by ``run`` are workspace buffers owned by the plan:
they are overwritten by the next call at the same batch size.  Copy
them if they must outlive the next pass.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

try:  # BLAS with beta-accumulation: fuses the conv bias into the GEMM.
    from scipy.linalg.blas import sgemm as _sgemm
except ImportError:  # pragma: no cover - scipy is optional
    _sgemm = None

from repro.common.errors import PlanError, ShapeError
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

__all__ = ["InferencePlan", "MAX_BATCH_KEYS"]

#: Distinct batch sizes whose workspaces a plan keeps alive (LRU).
MAX_BATCH_KEYS = 16

_F32 = np.float32


# ------------------------------------------------------- activations


def _activate_inplace(name: str, buf: np.ndarray) -> None:
    """Fast fused activation, in place (inference: allclose parity)."""
    if name == "relu":
        np.maximum(buf, 0.0, out=buf)
    elif name == "tanh":
        np.tanh(buf, out=buf)
    elif name == "sigmoid":
        # Stable without the piecewise split: clip first (exp(60) is
        # finite in float64 scratch, the result rounds to 0/1 anyway).
        np.clip(buf, -60.0, 60.0, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        buf += 1.0
        np.divide(1.0, buf, out=buf)
    elif name == "softmax":
        m = buf.max(axis=-1, keepdims=True)
        np.subtract(buf, m, out=buf)
        np.exp(buf, out=buf)
        s = buf.sum(axis=-1, keepdims=True)
        np.divide(buf, s, out=buf)
    # linear: nothing to do


def _affine_gemm(cols2: np.ndarray, k2: np.ndarray, b: np.ndarray, out2: np.ndarray) -> None:
    """``out2 = cols2 @ k2 + b`` with the bias fused into the GEMM.

    With scipy's BLAS the broadcast bias becomes the GEMM's ``beta=1``
    accumulator (written via the F-contiguous transpose views), saving
    one full pass over the output.  Falls back to matmul + add.
    """
    if _sgemm is not None and len(cols2):
        out2[:] = b
        _sgemm(1.0, k2.T, cols2.T, beta=1.0, c=out2.T, overwrite_c=1)
    else:
        np.matmul(cols2, k2, out=out2)
        out2 += b


# -------------------------------------------------------------- steps


class _Step:
    """One compiled layer: workspace allocation + inference kernel."""

    #: Batchless output shape, filled by the compiler.
    out_shape: tuple[int, ...]

    def alloc(self, n: int) -> dict:
        return {}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        raise NotImplementedError


class _DenseStep(_Step):
    def __init__(self, layer: Dense) -> None:
        self.layer = layer
        self.act = layer.activation.name if layer.activation is not None else None

    def alloc(self, n: int) -> dict:
        return {"out": np.empty((n, self.layer.units), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.matmul(x, self.layer.w, out=out)
        out += self.layer.b
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out


class _Conv2DStep(_Step):
    def __init__(self, layer: Conv2D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.cin = in_shape[2]
        self.oh, self.ow = layer._out_hw(in_shape[0], in_shape[1])
        self.act = layer.activation.name if layer.activation is not None else None
        # Flat (KH*KW*Cin, F) view of the kernel for the im2col GEMM;
        # stays live across in-place weight updates.
        self.k2 = layer.k.reshape(-1, layer.filters)

    def _patch_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.oh, self.ow, lay.kh, lay.kw, self.cin),
            strides=(sn, lay.sh * sh, lay.sw * sw, sh, sw, sc),
        )

    def alloc(self, n: int) -> dict:
        lay = self.layer
        cols = np.empty((n, self.oh, self.ow, lay.kh, lay.kw, self.cin), _F32)
        out = np.empty((n, self.oh, self.ow, lay.filters), _F32)
        return {
            "cols": cols,
            "cols2": cols.reshape(n * self.oh * self.ow, -1),
            "out": out,
            "out2": out.reshape(n * self.oh * self.ow, lay.filters),
        }

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.copyto(ws["cols"], self._patch_view(x))
        _affine_gemm(ws["cols2"], self.k2, self.layer.b, ws["out2"])
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out


class _Conv3DStep(_Step):
    def __init__(self, layer: Conv3D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.cin = in_shape[3]
        self.ot, self.oh, self.ow = layer._out_thw(*in_shape[:3])
        self.act = layer.activation.name if layer.activation is not None else None
        self.k2 = layer.k.reshape(-1, layer.filters)

    def _patch_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, st, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.ot, self.oh, self.ow, lay.kt, lay.kh, lay.kw, self.cin),
            strides=(sn, lay.st * st, lay.sh * sh, lay.sw * sw, st, sh, sw, sc),
        )

    def alloc(self, n: int) -> dict:
        lay = self.layer
        rows = n * self.ot * self.oh * self.ow
        cols = np.empty(
            (n, self.ot, self.oh, self.ow, lay.kt, lay.kh, lay.kw, self.cin), _F32
        )
        out = np.empty((n, self.ot, self.oh, self.ow, lay.filters), _F32)
        return {
            "cols": cols,
            "cols2": cols.reshape(rows, -1),
            "out": out,
            "out2": out.reshape(rows, lay.filters),
        }

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.copyto(ws["cols"], self._patch_view(x))
        _affine_gemm(ws["cols2"], self.k2, self.layer.b, ws["out2"])
        if self.act is not None:
            _activate_inplace(self.act, out)
        return out


class _MaxPool2DStep(_Step):
    def __init__(self, layer: MaxPool2D, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        h, w, c = in_shape
        self.oh, self.ow, self.c = h // layer.ph, w // layer.pw, c

    def _blocks_view(self, x: np.ndarray) -> np.ndarray:
        lay = self.layer
        sn, sh, sw, sc = x.strides
        return as_strided(
            x,
            shape=(len(x), self.oh, lay.ph, self.ow, lay.pw, self.c),
            strides=(sn, lay.ph * sh, sh, lay.pw * sw, sw, sc),
        )

    def alloc(self, n: int) -> dict:
        return {"out": np.empty((n, self.oh, self.ow, self.c), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        out = ws["out"]
        np.amax(self._blocks_view(x), axis=(2, 4), out=out)
        return out


class _FlattenStep(_Step):
    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        return x.reshape(len(x), -1)


class _DropoutStep(_Step):
    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        return x


class _ActivationStep(_Step):
    def __init__(self, layer: Activation) -> None:
        self.layer = layer
        self.name = layer.name

    def alloc(self, n: int) -> dict:
        if self.name == "linear":
            return {}
        return {"out": np.empty((n, *self.out_shape), _F32)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        if self.name == "linear":
            return x
        out = ws["out"]
        np.copyto(out, x)
        _activate_inplace(self.name, out)
        return out


class _TimeDistributedStep(_Step):
    def __init__(self, layer: TimeDistributed, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.t = in_shape[0]
        self.inner = _compile_layer(layer.inner, in_shape[1:])

    def alloc(self, n: int) -> dict:
        return {"inner": self.inner.alloc(n * self.t)}

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        n = len(x)
        flat = x.reshape(n * self.t, *x.shape[2:])
        out = self.inner.infer(flat, ws["inner"])
        return out.reshape(n, self.t, *out.shape[1:])


class _LSTMStep(_Step):
    def __init__(self, layer: LSTM, in_shape: tuple[int, ...]) -> None:
        self.layer = layer
        self.t, self.d = in_shape

    def alloc(self, n: int) -> dict:
        u = self.layer.units
        ws = {
            "zx": np.empty((n * self.t, 4 * u), _F32),
            "z": np.empty((n, 4 * u), _F32),
            "h": np.empty((n, u), _F32),
            "c": np.empty((n, u), _F32),
            "tmp": np.empty((n, u), _F32),
        }
        if self.layer.return_sequences:
            ws["hs"] = np.empty((n, self.t, u), _F32)
        return ws

    def infer(self, x: np.ndarray, ws: dict) -> np.ndarray:
        lay = self.layer
        n = len(x)
        u = lay.units
        zx = ws["zx"]
        np.matmul(x.reshape(n * self.t, self.d), lay.wx, out=zx)
        zx3 = zx.reshape(n, self.t, 4 * u)
        h, c, z, tmp = ws["h"], ws["c"], ws["z"], ws["tmp"]
        h[...] = 0.0
        c[...] = 0.0
        for step in range(self.t):
            np.matmul(h, lay.wh, out=z)
            z += zx3[:, step]
            z += lay.b
            i, f = z[:, :u], z[:, u : 2 * u]
            g, o = z[:, 2 * u : 3 * u], z[:, 3 * u :]
            _activate_inplace("sigmoid", i)
            _activate_inplace("sigmoid", f)
            np.tanh(g, out=g)
            _activate_inplace("sigmoid", o)
            c *= f
            np.multiply(i, g, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o, tmp, out=h)
            if lay.return_sequences:
                ws["hs"][:, step] = h
        return ws["hs"] if lay.return_sequences else h


# ----------------------------------------------------------- compiler


def _compile_layer(layer: Layer, in_shape: tuple[int, ...]) -> _Step:
    if not layer.built:
        raise PlanError(f"cannot compile unbuilt layer {type(layer).__name__}")
    if isinstance(layer, Dense):
        step: _Step = _DenseStep(layer)
    elif isinstance(layer, Conv2D):
        step = _Conv2DStep(layer, in_shape)
    elif isinstance(layer, Conv3D):
        step = _Conv3DStep(layer, in_shape)
    elif isinstance(layer, MaxPool2D):
        step = _MaxPool2DStep(layer, in_shape)
    elif isinstance(layer, Flatten):
        step = _FlattenStep()
    elif isinstance(layer, Dropout):
        step = _DropoutStep()
    elif isinstance(layer, TimeDistributed):
        step = _TimeDistributedStep(layer, in_shape)
    elif isinstance(layer, LSTM):
        step = _LSTMStep(layer, in_shape)
    elif isinstance(layer, Activation):
        step = _ActivationStep(layer)
    else:
        raise PlanError(
            f"no compiled kernel for layer type {type(layer).__name__}; "
            "use the reference Sequential stack"
        )
    step.out_shape = layer.output_shape(in_shape)
    return step


def _compile_steps(
    layers: list[Layer], input_shape: tuple[int, ...]
) -> tuple[list[_Step], tuple[int, ...]]:
    steps = []
    shape = tuple(input_shape)
    for layer in layers:
        step = _compile_layer(layer, shape)
        steps.append(step)
        shape = step.out_shape
    return steps, shape


class InferencePlan:
    """Forward-only compiled program for a built ``Sequential``.

    Workspaces are allocated per batch size and kept for the
    :data:`MAX_BATCH_KEYS` most recently used sizes.  ``run`` returns a
    workspace buffer owned by the plan — it is overwritten by the next
    ``run`` at the same batch size.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]) -> None:
        self.input_shape = tuple(int(d) for d in input_shape)
        self.steps, self.output_shape = _compile_steps(layers, self.input_shape)
        self._ws: dict[int, list[dict]] = {}

    def _workspaces(self, n: int) -> list[dict]:
        ws = self._ws.pop(n, None)
        if ws is None:
            ws = [step.alloc(n) for step in self.steps]
            while len(self._ws) >= MAX_BATCH_KEYS:
                del self._ws[next(iter(self._ws))]
        self._ws[n] = ws  # re-insert: dict order doubles as LRU order
        return ws

    @property
    def batch_keys(self) -> tuple[int, ...]:
        """Batch sizes with live workspaces (oldest first)."""
        return tuple(self._ws)

    def run(self, x: np.ndarray) -> np.ndarray:
        """One whole forward pass with minimal Python dispatch."""
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"expected input shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        out = np.ascontiguousarray(x, dtype=np.float32)
        for step, ws in zip(self.steps, self._workspaces(len(out))):
            out = step.infer(out, ws)
        return out
