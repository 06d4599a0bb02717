"""Trainable layers: linear, layer norm, PReLU, spatial convolution, LSTM.

Each forward function runs its :mod:`dllrnn.kernels` kernel and records a
backward rule on the ambient tape, so layers compose into a differentiable
graph through :mod:`dllrnn.tensor`.

Parameter containers are thin dataclasses of Tensors; the ``init_*``
constructors draw weights uniformly in ±1/sqrt(fan_in) from a caller-provided
generator and zero the biases. The LSTM is a deliberate exception: its
forget-gate bias slice is set to 1.0 after initialization so the gate starts
open, which keeps early training from washing out the cell state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .errors import DimensionError
from .tensor import Tensor, from_op

LN_EPS = 1e-5


@dataclass
class AffineParams:
    """weight out×in plus bias out; doubles as (gain, bias) for layer norm."""

    weight: Tensor
    bias: Tensor


@dataclass
class SpatialConvParams:
    """Per-hidden-unit channel mixing: weight F×S_out×S_in, bias S_out×F."""

    weight: Tensor
    bias: Tensor

    @property
    def n_hidden(self):
        return self.weight.shape[0]

    @property
    def s_out(self):
        return self.weight.shape[1]

    @property
    def s_in(self):
        return self.weight.shape[2]


@dataclass
class LstmParams:
    """Gate weights in (input, forget, cell, output) row order.

    wx: 4F×F input weights, wh: 4F×F recurrent weights, bias: 4F.
    """

    wx: Tensor
    wh: Tensor
    bias: Tensor

    @property
    def n_hidden(self):
        return self.wx.shape[1]


def _contig(a):
    return np.ascontiguousarray(a)


def linear(x: Tensor, p: AffineParams) -> Tensor:
    """x·Wᵀ + b over the last axis; leading axes are batched."""
    w, b = p.weight, p.bias
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise DimensionError(f"linear: input extent {x.shape[-1]} != weight fan-in {n_in}")
    lead = x.shape[:-1]
    x2 = _contig(x.data.reshape(-1, n_in))
    y2 = K.linear_forward(x2, w.data, b.data)

    def backward(g):
        dx, dw, db = K.linear_backward(_contig(g.reshape(-1, n_out)), x2, w.data)
        return dx.reshape(x.shape), dw, db

    return from_op(y2.reshape(lead + (n_out,)), (x, w, b), backward)


def layer_norm(x: Tensor, p: AffineParams, eps: float = LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then gain·x̂ + bias."""
    gain, bias = p.weight, p.bias
    f = gain.shape[0]
    if f == 0 or x.shape[-1] != f:
        raise DimensionError(f"layer_norm: last extent {x.shape[-1]} != width {f}")
    x2 = _contig(x.data.reshape(-1, f))
    y2, xhat, inv_std = K.layer_norm_forward(x2, gain.data, bias.data, x.data.dtype.type(eps))

    def backward(g):
        dx, dgain, dbias = K.layer_norm_backward(_contig(g.reshape(-1, f)), xhat, inv_std, gain.data)
        return dx.reshape(x.shape), dgain, dbias

    return from_op(y2.reshape(x.shape), (x, gain, bias), backward)


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """x where x >= 0, slope·x otherwise; slope is a trainable scalar."""
    a = slope.data.reshape(())
    neg = x.data < 0
    out = np.where(neg, a * x.data, x.data)

    def backward(g):
        dx = np.where(neg, a, x.data.dtype.type(1.0)) * g
        da = np.asarray((g * np.where(neg, x.data, 0.0)).sum(), dtype=slope.data.dtype)
        return dx, da.reshape(slope.shape)

    return from_op(out, (x, slope), backward)


def spatial_conv(x: Tensor, p: SpatialConvParams) -> Tensor:
    """Apply F independent S_out×S_in matrices across the channel axis.

    x is S_in×T×F; output channel o at (t, f) is W[f][o, :]·x[:, t, f] + b[o, f].
    """
    w, b = p.weight, p.bias
    f, s_out, s_in = w.shape
    if x.data.ndim != 3 or x.shape[0] != s_in or x.shape[2] != f:
        raise DimensionError(
            f"spatial_conv: input {x.shape} incompatible with weight (F={f}, "
            f"S_out={s_out}, S_in={s_in})"
        )
    xd = _contig(x.data)
    y = K.spatial_conv_forward(xd, w.data, b.data)

    def backward(g):
        return K.spatial_conv_backward(_contig(g), xd, w.data)

    return from_op(y, (x, w, b), backward)


def lstm(x: Tensor, p: LstmParams, state0=None):
    """Causal LSTM over a T×F sequence; returns (outputs T×F, (h_T, c_T)).

    ``state0`` is an (h, c) pair of plain F-vectors, zeros by default at the
    start of an utterance. The returned final state is detached: gradients
    do not flow across session boundaries.
    """
    wx, wh, b = p.wx, p.wh, p.bias
    f = p.n_hidden
    if x.data.ndim != 2 or x.shape[1] != f:
        raise DimensionError(f"lstm: input {x.shape} incompatible with hidden size {f}")
    if state0 is None:
        h0 = np.zeros(f, dtype=x.data.dtype)
        c0 = np.zeros(f, dtype=x.data.dtype)
    else:
        h0 = np.asarray(state0[0], dtype=x.data.dtype)
        c0 = np.asarray(state0[1], dtype=x.data.dtype)
    xd = _contig(x.data)
    h, gates, c, tanh_c = K.lstm_forward(xd, wx.data, wh.data, b.data, h0, c0)

    def backward(g):
        return K.lstm_backward(_contig(g), xd, wx.data, wh.data, gates, c, tanh_c, h, h0, c0)

    out = from_op(h, (x, wx, wh, b), backward)
    return out, (h[-1].copy(), c[-1].copy())


# ---------------------------------------------------------------------------
# Initialization
#
# Weights ~ uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases zero; layer-norm
# gain one; PReLU slope 0.25. Everything is drawn from the generator passed
# in, so a given seed reproduces parameters bit-for-bit.
# ---------------------------------------------------------------------------

def uniform_init(rng, shape, fan_in: int, dtype=np.float32):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_affine(rng, n_out, n_in, dtype=np.float32) -> AffineParams:
    return AffineParams(
        weight=Tensor(uniform_init(rng, (n_out, n_in), n_in, dtype), requires_grad=True),
        bias=Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True),
    )


def init_layer_norm(n, dtype=np.float32) -> AffineParams:
    return AffineParams(
        weight=Tensor(np.ones(n, dtype=dtype), requires_grad=True),
        bias=Tensor(np.zeros(n, dtype=dtype), requires_grad=True),
    )


def init_prelu(slope: float = 0.25, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(slope, dtype=dtype), requires_grad=True)


def init_spatial_conv(rng, n_hidden, s_out, s_in, dtype=np.float32) -> SpatialConvParams:
    return SpatialConvParams(
        weight=Tensor(uniform_init(rng, (n_hidden, s_out, s_in), s_in, dtype), requires_grad=True),
        bias=Tensor(np.zeros((s_out, n_hidden), dtype=dtype), requires_grad=True),
    )


def init_lstm(rng, n_hidden, forget_bias: float = 1.0, dtype=np.float32) -> LstmParams:
    bias = np.zeros(4 * n_hidden, dtype=dtype)
    bias[n_hidden:2 * n_hidden] = forget_bias
    return LstmParams(
        wx=Tensor(uniform_init(rng, (4 * n_hidden, n_hidden), n_hidden, dtype), requires_grad=True),
        wh=Tensor(uniform_init(rng, (4 * n_hidden, n_hidden), n_hidden, dtype), requires_grad=True),
        bias=Tensor(bias, requires_grad=True),
    )
