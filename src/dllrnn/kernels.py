"""Hot numeric kernels, in numpy: every layer's forward and backward
arithmetic, and RIR tap placement.

Callers reach every kernel through this module's attributes
(``K.lstm_forward`` etc.), so a tracer or a test can wrap them in one place.

The forward kernels are row-stable: each output frame is computed by a
product whose summation order does not depend on how many frames share the
call (Demmel & Nguyen, "Fast Reproducible Floating-Point Summation", ARITH
2013). The linear and spatial-conv forwards are therefore stacks of
one-row matrix products rather than one 2-D product, which BLAS would block
differently for one frame than for a thousand. Layer norm reduces each row
on its own and the LSTM steps one frame at a time. That is what makes the
streaming enhancer (one frame per call) bit-identical to the whole-utterance
path (all frames in one call). The backward kernels only run in training,
over whole utterances, and use plain BLAS products. The LSTM forward writes
its hidden and cell states as T+1 rows, row 0 being the state before the
run, so the backward reads each step's previous state as a view of the
forward's own arrays. The LSTM backward is one reverse recursion that
carries only ``dh`` and ``dc`` from step to step and stacks each step's gate
gradient ``dz``; the input, input-weight, recurrent-weight and bias
gradients are then single GEMMs (or a sum) over the stacked ``dz``
(Appleyard, Kočiský & Blunsom, "Optimizing Performance of Recurrent Neural
Networks on GPUs", arXiv 1604.01946).
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
# back O-innermost. The backward's dx is the (F,T,O)@(F,O,D) product, which
# leaves it D-innermost like x, and dw contracts over T.
# ---------------------------------------------------------------------------

def spatial_conv_forward(x, w, b):
    out = np.matmul(x.transpose(2, 1, 0)[:, :, None, :],
                    w.transpose(0, 2, 1)[:, None])[:, :, 0, :].transpose(2, 1, 0)
    out += b[:, None, :]
    return out


def spatial_conv_backward(dout, x, w):
    dx = np.matmul(dout.transpose(2, 1, 0), w).transpose(2, 1, 0)
    dw = np.matmul(dout.transpose(2, 0, 1), x.transpose(2, 1, 0))
    db = dout.sum(axis=1)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer normalization over the trailing axis: rows (M, F)
# ---------------------------------------------------------------------------

def layer_norm_forward(x, gain, bias, eps):
    f = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / f
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / f
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    return xhat * gain + bias, xhat, inv_std[:, 0]


def layer_norm_backward(dout, xhat, inv_std, gain):
    f = xhat.shape[1]
    g = dout * gain
    s1 = g.sum(axis=1, keepdims=True)
    s2 = (g * xhat).sum(axis=1, keepdims=True)
    dx = (g - s1 / f - xhat * s2 / f) * inv_std[:, None]
    dgain = (dout * xhat).sum(axis=0)
    dbias = dout.sum(axis=0)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# PReLU with one scalar slope a: x where x >= 0, a·x otherwise. Both
# directions are branch-free products and sums, not np.where selects: a
# select branches per element, and on activations of random sign that costs
# about four times the arithmetic. Each gives the select's values, except
# that a zero may come out +0 where the select gives -0.
# ---------------------------------------------------------------------------

def prelu_forward(x, a):
    return np.maximum(x, 0) + a * np.minimum(x, 0)


def prelu_backward(dout, x, a):
    neg = x < 0
    slope = neg * a + ~neg                   # exactly a where x < 0, else 1
    dx = slope * dout
    da = np.asarray((dout * np.minimum(x, 0)).sum(), dtype=x.dtype).reshape(np.shape(a))
    return dx, da


# ---------------------------------------------------------------------------
# LSTM over time: x (T, F), gate order input/forget/cell/output.
# Forward returns the hidden and cell states h, c as (T+1, F), row 0 holding
# the state before the run (h0, c0) and row t+1 the state after frame t,
# plus the T-row gate and tanh(c) caches that the backward pass replays.
# The backward reads the previous states as the views h[:-1] and c[:-1].
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_forward(x, wx, wh, b, h0, c0):
    t_len, f = x.shape
    h = np.empty((t_len + 1, f), x.dtype)
    c = np.empty((t_len + 1, f), x.dtype)
    h[0], c[0] = h0, c0
    gates = np.empty((t_len, 4 * f), x.dtype)
    tanh_c = np.empty((t_len, f), x.dtype)
    cp = c[0]
    for t in range(t_len):
        z = wx @ x[t] + wh @ h[t] + b
        gates[t] = _sigmoid(z)
        gates[t, 2 * f:3 * f] = np.tanh(z[2 * f:3 * f])
        gi, gf, gg, go = gates[t, :f], gates[t, f:2 * f], gates[t, 2 * f:3 * f], gates[t, 3 * f:]
        cv = gf * cp + gi * gg
        tc = np.tanh(cv)
        c[t + 1] = cv
        tanh_c[t] = tc
        h[t + 1] = go * tc
        cp = cv
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
