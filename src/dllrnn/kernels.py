"""Hot numeric kernels, in numpy: every layer's forward and backward
arithmetic, and RIR tap placement.

Callers reach every kernel through this module's attributes
(``K.lstm_forward`` etc.), so a tracer or a test can wrap them in one place.
No kernel calls another of these attributes, which a tracer would count
twice. Positional arguments come first in a fixed order (input, weight,
...), which the tracer reads for its cost counts. Layer norm, PReLU and
their backwards take an optional ``out=`` buffer, which may be their own
input. They write the allocating form's bits into it and write nothing
else the caller passed.

The forward kernels are row-stable: each output frame is computed by a
product whose summation order does not depend on how many frames share the
call (Demmel & Nguyen, "Fast Reproducible Floating-Point Summation", ARITH
2013). The linear and spatial-conv forwards are therefore stacks of
one-row matrix products rather than one 2-D product, which BLAS would block
differently for one frame than for a thousand. Layer norm reduces each row
on its own and the LSTM steps one frame at a time. That is what makes the
streaming enhancer (one frame per call) bit-identical to the whole-utterance
path (all frames in one call). The backward kernels only run in training,
over whole utterances, and use plain BLAS products.

The LSTM follows Appleyard, Kočiský & Blunsom, "Optimizing Performance of
Recurrent Neural Networks on GPUs" (arXiv 1604.01946). The forward takes
the input product and bias for every step at once, as the linear forward's
stacked product (§3); each step adds its recurrent product into its gate
row, applies the gate nonlinearities in place and writes c, tanh(c) and h
straight into their rows. The sigmoids are written as
0.5 + 0.5·tanh(v/2), so one ``np.tanh`` covers all four gates and the
module needs numpy alone. It returns the hidden and cell states as T+1
rows, row 0 being the state before the run, so the backward reads each
step's previous state as a view of the forward's own arrays. The backward
is one reverse recursion that carries only ``dh`` and ``dc`` from step to
step and stacks each step's gate gradient ``dz``; the input,
input-weight, recurrent-weight and bias gradients are then single GEMMs (or
a sum) over the stacked ``dz``.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Linear layer: rows (M, K) x weight (O, K) + bias (O,) -> (M, O)
# ---------------------------------------------------------------------------

def linear_forward(x, w, b):
    out = np.matmul(x[:, None, :], w.T)[:, 0]
    out += b
    return out


def linear_backward(dout, x, w):
    dx = dout @ w
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Per-hidden-unit spatial filtering: x (D, T, F), w (F, O, D), b (O, F).
# Batched matmuls over F; the forward one is also stacked over T. The model
# stores x with D innermost (F×T×D memory, read through a D×T×F view), so
# each (t, f) product reads its D inputs contiguously and the output comes
# back O-innermost. The backward adds its input gradient, the
# (F,T,O)@(F,O,D) product, into the caller's accumulator dx, laid out like x.
# It does so a few hidden units at a time, so no full D×T×F temporary is
# formed: each unit's product is the same BLAS call however many units share
# the batch, so the sum is the one a full product would give. dw contracts
# over T.
# ---------------------------------------------------------------------------

DX_CHUNK_BYTES = 1 << 20


def spatial_conv_forward(x, w, b):
    out = np.matmul(x.transpose(2, 1, 0)[:, :, None, :],
                    w.transpose(0, 2, 1)[:, None])[:, :, 0, :].transpose(2, 1, 0)
    out += b[:, None, :]
    return out


def spatial_conv_backward(dout, x, w, dx):
    dout_f, dx_f = dout.transpose(2, 1, 0), dx.transpose(2, 1, 0)
    step = max(1, DX_CHUNK_BYTES // dx_f[0].nbytes)
    for lo in range(0, len(dx_f), step):
        dx_f[lo:lo + step] += np.matmul(dout_f[lo:lo + step], w[lo:lo + step])
    dw = np.matmul(dout.transpose(2, 0, 1), x.transpose(2, 1, 0))
    db = dout.sum(axis=1)
    return dw, db


# ---------------------------------------------------------------------------
# Layer normalization over the trailing axis: rows (M, F)
# ---------------------------------------------------------------------------

def layer_norm_forward(x, gain, bias, eps, out=None):
    """Rows normalized to zero mean and unit variance, then scaled and shifted.

    Returns ``(y, xhat, inv_std)``. ``xhat`` is written to ``out`` when it is
    given, which may be ``x`` itself; the squared deviations are formed in
    the buffer that then becomes ``y``, so the call allocates only ``y`` (and
    ``xhat`` when ``out`` is None).
    """
    f = x.shape[1]
    xhat = np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / f, out=out)
    y = np.multiply(xhat, xhat)
    var = np.add.reduce(y, axis=1, keepdims=True) / f
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv_std[:, 0]


def layer_norm_affine(xhat, gain, bias):
    """The layer norm's output from its normalized rows; the backward rebuilds it with this."""
    return xhat * gain + bias


def layer_norm_backward(dout, xhat, inv_std, gain, out=None):
    """``(dx, dgain, dbias)``; ``dx`` is written to ``out`` when it is given,
    which may be ``dout`` itself (its sums are taken first)."""
    f = xhat.shape[1]
    dbias = dout.sum(axis=0)
    scratch = dout * xhat
    dgain = scratch.sum(axis=0)
    g = np.multiply(dout, gain, out=out)
    s1 = g.sum(axis=1, keepdims=True)
    s2 = np.multiply(g, xhat, out=scratch).sum(axis=1, keepdims=True)
    # dx = (g - s1/f - xhat·s2/f)·inv_std, with the full-size terms in g and scratch
    g -= s1 / f
    np.multiply(xhat, s2, out=scratch)
    scratch /= f
    g -= scratch
    g *= inv_std[:, None]
    return g, dgain, dbias


# ---------------------------------------------------------------------------
# PReLU with one scalar slope a: x where x >= 0, a·x otherwise. Both
# directions are branch-free products and sums, not np.where selects: a
# select branches per element, and on activations of random sign that costs
# about four times the arithmetic. Each gives the select's values, except
# that a zero may come out +0 where the select gives -0.
# ---------------------------------------------------------------------------

def prelu_forward(x, a, out=None):
    """PReLU of x, written to ``out`` when it is given, which may be ``x`` itself."""
    neg = np.minimum(x, 0)
    neg *= a
    out = np.maximum(x, 0, out=out)
    out += neg
    return out


def prelu_backward(dout, x, a, out=None):
    """``(dx, da)``; ``dx`` is written to ``out`` when it is given, which may
    be ``dout`` itself (``da`` is taken first)."""
    scratch = np.minimum(x, 0)
    scratch *= dout
    da = np.asarray(scratch.sum(), dtype=x.dtype).reshape(np.shape(a))
    neg = x < 0
    np.multiply(neg, a, out=scratch)
    scratch += ~neg                          # the slope: exactly a where x < 0, else 1
    return np.multiply(scratch, dout, out=out), da


# ---------------------------------------------------------------------------
# LSTM over time: x (T, F), gate order input/forget/cell/output.
# Forward returns the hidden and cell states h, c as (T+1, F), row 0 holding
# the state before the run (h0, c0) and row t+1 the state after frame t,
# plus the T-row gate and tanh(c) caches that the backward pass replays.
# The gate rows start as the input product plus bias and become the gate
# activations in place, all four through one tanh over the row:
# sigmoid(v) = 0.5 + 0.5·tanh(v/2) on the i/f/o rows, and on the g row the
# scale 1 and shift 0 leave tanh(v) itself.
# The backward reads the previous states as the views h[:-1] and c[:-1].
# ---------------------------------------------------------------------------

_GATE_AFFINE = {}  # (F, dtype) -> (scale, shift) over a 4F gate row, read-only


def _gate_affine(f, dtype):
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), f)
    shift = np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype), f)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_forward(x, wx, wh, b, h0, c0):
    t_len, f = x.shape
    # looked up by subscript, not a call, so a one-frame call makes no extra Python-level call
    try:
        scale, shift = _GATE_AFFINE[f, x.dtype]
    except KeyError:
        scale, shift = _GATE_AFFINE[f, x.dtype] = _gate_affine(f, x.dtype)
    # every step's input term and bias at once, as linear_forward's
    # row-stable product; each step then adds its recurrent term in place
    gates = np.matmul(x[:, None, :], wx.T)[:, 0]
    gates += b
    h = np.empty((t_len + 1, f), x.dtype)
    c = np.empty((t_len + 1, f), x.dtype)
    h[0], c[0] = h0, c0
    tanh_c = np.empty((t_len, f), x.dtype)
    h_prev, c_prev = h0, c0
    steps = zip(gates, gates[:, :f], gates[:, f:2 * f], gates[:, 2 * f:3 * f], gates[:, 3 * f:],
                h[1:], c[1:], tanh_c)
    for z, gi, gf, gg, go, h_next, c_next, tc in steps:
        z += wh @ h_prev
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(gi, gg, out=c_next)
        np.multiply(gf, c_prev, out=tc)   # tc as scratch for f·c_prev
        c_next += tc
        np.tanh(c_next, out=tc)
        np.multiply(go, tc, out=h_next)
        h_prev, c_prev = h_next, c_next
    return h, gates, c, tanh_c


def lstm_backward(dh_out, x, wx, wh, gates, c, tanh_c, h):
    t_len, f = x.shape
    g4 = gates.reshape(t_len, 4, f)
    gi, gf, gg, go = g4[:, 0], g4[:, 1], g4[:, 2], g4[:, 3]
    h_prev, c_prev = h[:-1], c[:-1]
    # every factor that does not depend on the recursion, for all steps at once:
    # dcv = dhk·dcv_per_dh + dc; dz starts as the gate multipliers, and the
    # loop scales its i/f/g rows by dcv and its o row by dhk
    dcv_per_dh = go * (1.0 - tanh_c * tanh_c)
    dz = np.empty((t_len, 4, f), x.dtype)
    dz[:, 0] = gg * gi * (1.0 - gi)
    dz[:, 1] = c_prev * gf * (1.0 - gf)
    dz[:, 2] = gi * (1.0 - gg * gg)
    dz[:, 3] = tanh_c * go * (1.0 - go)
    dz_rows = dz.reshape(t_len, 4 * f)
    # the reverse recursion: only dh and dc carry from step t+1 to step t
    dhk = np.empty(f, x.dtype)
    dcv = np.empty(f, x.dtype)
    dh = np.zeros(f, x.dtype)
    dc = np.zeros(f, x.dtype)
    steps = zip(dh_out[::-1], dcv_per_dh[::-1], gf[::-1], dz[::-1, :3], dz[::-1, 3], dz_rows[::-1])
    for dh_t, dcv_per_dh_t, gf_t, dz_ifg_t, dz_o_t, dz_t in steps:
        np.add(dh_t, dh, out=dhk)
        np.multiply(dhk, dcv_per_dh_t, out=dcv)
        dcv += dc
        dz_ifg_t *= dcv
        dz_o_t *= dhk
        np.matmul(dz_t, wh, out=dh)
        np.multiply(dcv, gf_t, out=dc)
    # weight and input gradients as single products over the stacked dz
    dx = dz_rows @ wx
    dwx = dz_rows.T @ x
    dwh = dz_rows.T @ h_prev
    db = dz_rows.sum(axis=0)
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Fractional-delay tap placement for impulse responses: an 81-tap
# Hann-tapered truncated sinc centered on each (possibly fractional) delay.
# Row i of the M×81 sample-index matrix holds the samples nearest delay i;
# those outside the buffer are dropped, and one bincount adds the rest in
# row-major order, so each sample sums its taps in delay order from 0.0.
# ---------------------------------------------------------------------------

SINC_HALF_WIDTH = 40


def place_taps(delays, amps, length):
    delays = np.asarray(delays, np.float64)
    offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    n = np.floor(delays + 0.5).astype(np.int64)[:, None] + offsets
    td = n - delays[:, None]
    taps = np.asarray(amps)[:, None] * np.sinc(td) * 0.5 * (1.0 + np.cos(2.0 * np.pi * td / 81.0))
    keep = (n >= 0) & (n < length)
    out = np.bincount(n[keep], weights=taps[keep], minlength=length)
    return out.astype(np.float64, copy=False)  # int zeros when no tap lands inside
