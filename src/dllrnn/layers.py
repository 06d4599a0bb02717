"""Trainable parameters of the layers: linear, layer norm, PReLU, spatial
convolution, LSTM.

The layers' arithmetic lives in :mod:`dllrnn.kernels` and their assembly in
:mod:`dllrnn.model`. Parameter containers are thin dataclasses of Tensors;
the ``init_*`` constructors draw weights uniformly in ±1/sqrt(fan_in) from a
caller-provided generator and zero the biases. The LSTM is a deliberate
exception: its forget-gate bias slice is set to 1.0 after initialization so
the gate starts open, which keeps early training from washing out the cell
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

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
