"""Hot numeric kernels, in numpy: every layer's forward and backward
arithmetic, and RIR tap placement.

Callers reach every kernel through this module's attributes
(``K.lstm_forward`` etc.), so a tracer or a test can wrap them in one place.
No kernel calls another of these attributes, which a tracer would count
twice. Positional arguments come first in a fixed order (input, weight,
...), which the tracer reads for its cost counts. The layer norm, its affine
and the PReLU after it are one forward and one backward kernel (and a
rebuild of the forward's output for the backward). The pair works in place:
each writes its output over its first argument and writes nothing else the
caller passed.

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
row, applies the gate nonlinearities in place and writes c and h straight
into their rows, with tanh(c) in one rolling row. The sigmoids are written
as 0.5 + 0.5·tanh(v/2), so one ``np.tanh`` covers all four gates and the
module needs numpy alone. It returns the hidden and cell states as T+1
rows, row 0 being the state before the run, so the backward reads each
step's previous state as a view of the forward's own arrays and takes
tanh(c) again from the cell rows. The backward is one reverse recursion
that carries only ``dh`` and ``dc`` from step to step and stacks each
step's gate gradient ``dz``; the input, input-weight, recurrent-weight and
bias gradients are then single GEMMs (or a sum) over the stacked ``dz``.
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
# back O-innermost. The backward takes the weight and bias gradients: dw
# contracts over T, and db is one numpy reduction over T of dout's F×T×O
# storage, walked in that order. The input gradient has its own kernel,
# which forms only the stack rows its caller reads: rows lo..lo+n summed
# over the later blocks' (F,T,O)@(F,O,n) products, in the order given, so
# no whole-stack gradient is ever held.
# ---------------------------------------------------------------------------

def spatial_conv_forward(x, w, b):
    out = np.matmul(x.T[:, :, None, :], w.transpose(0, 2, 1)[:, None])[:, :, 0, :].T
    out += b[:, None, :]
    return out


def spatial_conv_backward(dout, x, w):
    """``(dw, db)``; ``dw`` has ``w``'s layout and dtype."""
    dw = np.matmul(dout.transpose(2, 0, 1), x.transpose(2, 1, 0), out=np.empty_like(w))
    db = np.einsum("fto->of", dout.transpose(2, 1, 0))
    return dw, db


def spatial_conv_input_grad(pairs, lo, n):
    """The gradient of input rows ``lo..lo+n`` of the convs in ``pairs``.

    ``pairs`` holds ``(dout, w)`` per conv that read those rows: its output
    gradient (O×T×F) and its weight (F, O, D). Returns the sum of
    ``dout @ w[:, :, lo:lo + n]`` over the pairs, added in their order, as
    n×T×F stored F×T×n.
    """
    dout, w = pairs[0]
    acc = np.matmul(dout.transpose(2, 1, 0), w[:, :, lo:lo + n])
    scratch = np.empty_like(acc)
    for dout, w in pairs[1:]:
        acc += np.matmul(dout.transpose(2, 1, 0), w[:, :, lo:lo + n], out=scratch)
    return acc.transpose(2, 1, 0)


# ---------------------------------------------------------------------------
# Layer normalization over the trailing axis of rows (M, F), with its affine
# and a PReLU of one scalar slope a: PReLU(v) = v where v >= 0, a·v otherwise.
# The PReLU is branch-free products and sums in both directions, not an
# np.where select: a select branches per element, and on activations of
# random sign that costs about four times the arithmetic. It gives the
# select's values, except that a zero may come out +0 where the select gives
# -0. The affine and the PReLU are written once, in _affine_prelu, which the
# forward runs over its input and the rebuild over a new buffer, so the
# rebuilt rows have the forward's bits. The backward forms the PReLU's input,
# xhat·gain + bias, from the cached xhat with the same expressions.
# ---------------------------------------------------------------------------

# Rows are rectified in blocks of about this many elements, walked in memory
# order: the PReLU temporaries stay small beside xhat and r, and in cache.
# With no tape the caller drops xhat on return, so the layer norm then needs
# two block-size buffers, not three.
_PRELU_BLOCK = 32768


def _affine_prelu(xhat, gain, bias, a, r):
    """``xhat·gain + bias`` rectified by a PReLU of slope ``a``, written to
    ``r`` a block of rows at a time. Private, so no tracer wraps it."""
    np.multiply(xhat, gain, out=r)
    r += bias
    v = r.T if r.flags.f_contiguous else r  # rows in memory order
    step = _PRELU_BLOCK // v.shape[1] or 1
    for lo in range(0, v.shape[0], step):
        part = v[lo:lo + step]
        neg = np.minimum(part, 0) * a
        np.add(np.maximum(part, 0, out=part), neg, out=part)
    return r


def layer_norm_forward(x, gain, bias, a, eps):
    """Rows normalized to zero mean and unit variance, scaled by ``gain``,
    shifted by ``bias`` and rectified by a PReLU of slope ``a``.

    Returns ``(r, xhat, inv_std)``: the rectified rows, written over ``x``,
    the normalized rows and each row's 1/std. The squared deviations are
    formed in ``x`` first, so the call allocates ``xhat`` and PReLU
    temporaries of about ``_PRELU_BLOCK`` elements each.
    """
    f = x.shape[1]
    xhat = np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / f)
    r = np.multiply(xhat, xhat, out=x)
    var = np.add.reduce(r, axis=1, keepdims=True) / f
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    return _affine_prelu(xhat, gain, bias, a, r), xhat, inv_std[:, 0]


def layer_norm_output(xhat, gain, bias, a):
    """The forward's rectified rows again, from its ``xhat``, with its
    expressions; the backward rebuilds a block's streams with this."""
    return _affine_prelu(xhat, gain, bias, a, np.empty_like(xhat))


def layer_norm_backward(dout, xhat, inv_std, gain, bias, a):
    """``(dx, dgain, dbias, da)`` from the gradient ``dout`` of the rectified
    rows; ``dx`` is written over ``dout`` (the slope's gradient is taken
    first). The PReLU's input is rebuilt into the one full-size scratch,
    beside one bool mask."""
    f = xhat.shape[1]
    scratch = np.multiply(xhat, gain)
    scratch += bias
    neg = scratch < 0
    np.minimum(scratch, 0, out=scratch)
    scratch *= dout
    da = np.asarray(scratch.sum(), dtype=xhat.dtype).reshape(np.shape(a))
    # the slope: exactly a where the input is < 0, else 1; the mask is negated in place
    np.multiply(neg, a, out=scratch)
    scratch += np.logical_not(neg, out=neg)
    del neg
    g = np.multiply(scratch, dout, out=dout)
    # the layer norm's backward, from g = the PReLU's input gradient
    dbias = g.sum(axis=0)
    dgain = np.multiply(g, xhat, out=scratch).sum(axis=0)
    g *= gain
    s1 = g.sum(axis=1, keepdims=True)
    s2 = np.multiply(g, xhat, out=scratch).sum(axis=1, keepdims=True)
    # dx = (g - s1/f - xhat·s2/f)·inv_std, with the full-size terms in g and scratch
    g -= s1 / f
    np.multiply(xhat, s2, out=scratch)
    scratch /= f
    g -= scratch
    g *= inv_std[:, None]
    return g, dgain, dbias, da


# ---------------------------------------------------------------------------
# LSTM over time: x (T, F), gate order input/forget/cell/output.
# Forward returns the hidden and cell states h, c as (T+1, F), row 0 holding
# the state before the run (h0, c0) and row t+1 the state after frame t,
# plus the T-row gate cache that the backward pass replays. tanh(c) lives in
# one rolling row; the backward takes np.tanh of c's rows 1..T again, which
# gives the forward's bits, as a tanh of a row does not depend on how many
# rows share the call.
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
    tc = np.empty(f, x.dtype)  # tanh(c) of the current step
    h_prev, c_prev = h0, c0
    steps = zip(gates, gates[:, :f], gates[:, f:2 * f], gates[:, 2 * f:3 * f], gates[:, 3 * f:],
                h[1:], c[1:])
    for z, gi, gf, gg, go, h_next, c_next in steps:
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
    return h, gates, c


def lstm_backward(dh_out, x, wx, wh, gates, c, h):
    t_len, f = x.shape
    g4 = gates.reshape(t_len, 4, f)
    gi, gf, gg, go = g4[:, 0], g4[:, 1], g4[:, 2], g4[:, 3]
    h_prev, c_prev = h[:-1], c[:-1]
    # every factor that does not depend on the recursion, for all steps at once:
    # dcv = dhk·dcv_per_dh + dc; dz starts as the gate multipliers, and the
    # loop scales its i/f/g rows by dcv and its o row by dhk
    tanh_c = np.tanh(c[1:])
    dz = np.empty((t_len, 4, f), x.dtype)
    dz[:, 0] = gg * gi * (1.0 - gi)
    dz[:, 1] = c_prev * gf * (1.0 - gf)
    dz[:, 2] = gi * (1.0 - gg * gg)
    dz[:, 3] = tanh_c * go * (1.0 - go)
    dcv_per_dh = go * (1.0 - tanh_c * tanh_c)
    del tanh_c
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
# Image i's delay tau splits into its nearest sample c = floor(tau + 0.5)
# and d = tau - c; its tap k in [-40, 40] lands at c + k, at td = k - d.
# By the angle-addition identities sin(pi·td) = -(-1)^k sin(pi·d) and
# cos(2pi·td/81) = cos(2pi·k/81) cos(2pi·d/81) + sin(2pi·k/81) sin(2pi·d/81),
# so each image needs three transcendentals of d, and every tap only the
# 81-entry constants below, products, sums and one division by td.
# Indices outside the buffer are clipped into two discard bins, one either
# side, and one bincount over the whole M×81 matrix adds the taps in
# row-major order, so each sample sums its taps in image order from 0.0.
# ---------------------------------------------------------------------------

SINC_HALF_WIDTH = 40
_TAP_OFFSETS = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
_TAP_ANGLES = 2.0 * np.pi * _TAP_OFFSETS / len(_TAP_OFFSETS)
# Rows cos(2pi·k/81), sin(2pi·k/81) and 1, each times -(-1)^k / 2: the Hann
# window's three terms, carrying the window's 1/2 and the sign of sin(pi·td).
_TAP_SIGN = np.where(_TAP_OFFSETS % 2 == 0, -0.5, 0.5)
_TAP_TERMS = _TAP_SIGN * np.stack([np.cos(_TAP_ANGLES), np.sin(_TAP_ANGLES),
                                   np.ones(len(_TAP_OFFSETS))])


def place_taps(delays, amps, length):
    delays = np.asarray(delays, np.float64)
    amps = np.asarray(amps, np.float64)
    center = np.floor(delays + 0.5)
    frac = delays - center
    angle = (2.0 * np.pi / len(_TAP_OFFSETS)) * frac
    # a·sin(pi·d)/pi times each window term of d, then summed over the terms
    scale = amps * np.sin(np.pi * frac) / np.pi
    terms = scale[:, None] * np.stack([np.cos(angle), np.sin(angle), np.ones_like(angle)], axis=1)
    taps = np.einsum("mi,ik->mk", terms, _TAP_TERMS)
    td = _TAP_OFFSETS - frac[:, None]
    exact = np.flatnonzero(frac == 0.0)  # tap k = 0 of an integer delay is 0/0
    td[exact, SINC_HALF_WIDTH] = 1.0
    taps /= td
    del td  # two M×81 arrays at a time, not three
    taps[exact, SINC_HALF_WIDTH] = amps[exact]
    # sample n goes to bin n + 1; bins 0 and length + 1 take what falls outside
    bins = center.astype(np.int64)[:, None] + (_TAP_OFFSETS + 1)
    np.clip(bins, 0, length + 1, out=bins)
    out = np.bincount(bins.ravel(), weights=taps.ravel(), minlength=length + 2)[1:length + 1]
    return out.astype(np.float64, copy=False)  # int zeros when there is no image
