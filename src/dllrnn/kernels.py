"""Hot numeric kernels: explicit-loop versions compiled with numba, plus
vectorized numpy fallbacks.

Set ``DLLRNN_NO_NUMBA=1`` (or uninstall numba) to select the numpy path.
The module-level names without a suffix (``lstm_forward`` etc.) are the
active variants; callers go through those names, so the set in use can be
swapped or wrapped in one place. The ``*_loops`` / ``*_numpy`` pairs stay
importable for the tests that hold them to each other.

The loop kernels deliberately avoid BLAS calls: a scalar accumulation loop
produces bit-identical results for a frame whether it is processed alone or
as part of a batch, which is what makes the streaming path byte-identical
to the batch path and lets the latency check assert bit-exact causality.
"""

import math
import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    numba = None
    HAVE_NUMBA = False

_DISABLED = os.environ.get("DLLRNN_NO_NUMBA", "").strip().lower() in ("1", "true", "yes")
USE_NUMBA = HAVE_NUMBA and not _DISABLED


def _jit(fn):
    if USE_NUMBA:
        return numba.njit(cache=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# Linear layer: rows (M, K) x weight (O, K) + bias (O,) -> (M, O)
# ---------------------------------------------------------------------------

def _linear_forward_src(x, w, b):
    m, k = x.shape
    o = w.shape[0]
    out = np.empty((m, o), x.dtype)
    for i in range(m):
        for j in range(o):
            acc = b[j]
            for kk in range(k):
                acc += x[i, kk] * w[j, kk]
            out[i, j] = acc
    return out


def _linear_backward_src(dout, x, w):
    m, k = x.shape
    o = w.shape[0]
    dx = np.empty((m, k), x.dtype)
    dw = np.zeros((o, k), x.dtype)
    db = np.zeros(o, x.dtype)
    for i in range(m):
        for j in range(o):
            g = dout[i, j]
            db[j] += g
            for kk in range(k):
                dw[j, kk] += g * x[i, kk]
        for kk in range(k):
            acc = 0.0
            for j in range(o):
                acc += dout[i, j] * w[j, kk]
            dx[i, kk] = acc
    return dx, dw, db


linear_forward_loops = _jit(_linear_forward_src)
linear_backward_loops = _jit(_linear_backward_src)


def linear_forward_numpy(x, w, b):
    return x @ w.T + b


def linear_backward_numpy(dout, x, w):
    dx = dout @ w
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Per-hidden-unit spatial filtering: x (D, T, F), w (F, O, D), b (O, F)
# ---------------------------------------------------------------------------

def _spatial_conv_forward_src(x, w, b):
    d, t, f = x.shape
    o = w.shape[1]
    out = np.empty((o, t, f), x.dtype)
    for ti in range(t):
        for fi in range(f):
            for oi in range(o):
                acc = b[oi, fi]
                for di in range(d):
                    acc += w[fi, oi, di] * x[di, ti, fi]
                out[oi, ti, fi] = acc
    return out


def _spatial_conv_backward_src(dout, x, w):
    d, t, f = x.shape
    o = w.shape[1]
    dx = np.empty((d, t, f), x.dtype)
    dw = np.zeros((f, o, d), x.dtype)
    db = np.zeros((o, f), x.dtype)
    for ti in range(t):
        for fi in range(f):
            for oi in range(o):
                g = dout[oi, ti, fi]
                db[oi, fi] += g
                for di in range(d):
                    dw[fi, oi, di] += g * x[di, ti, fi]
            for di in range(d):
                acc = 0.0
                for oi in range(o):
                    acc += w[fi, oi, di] * dout[oi, ti, fi]
                dx[di, ti, fi] = acc
    return dx, dw, db


spatial_conv_forward_loops = _jit(_spatial_conv_forward_src)
spatial_conv_backward_loops = _jit(_spatial_conv_backward_src)


# The three contractions are the batched matmuls (batch over F) that
# ``einsum(..., optimize=True)`` dispatches to, written out so that a T=1
# call does not pay for a contraction-path search.

def spatial_conv_forward_numpy(x, w, b):
    out = np.matmul(x.transpose(2, 1, 0), w.transpose(0, 2, 1)).transpose(2, 1, 0)
    out += b[:, None, :]
    return out


def spatial_conv_backward_numpy(dout, x, w):
    dx = np.matmul(w.transpose(0, 2, 1), dout.transpose(2, 0, 1)).transpose(1, 2, 0)
    dw = np.matmul(dout.transpose(2, 0, 1), x.transpose(2, 1, 0))
    db = dout.sum(axis=1)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer normalization over the trailing axis: rows (M, F)
# ---------------------------------------------------------------------------

def _layer_norm_forward_src(x, gain, bias, eps):
    m, f = x.shape
    y = np.empty((m, f), x.dtype)
    xhat = np.empty((m, f), x.dtype)
    inv_std = np.empty(m, x.dtype)
    for i in range(m):
        s = 0.0
        for k in range(f):
            s += x[i, k]
        mean = s / f
        v = 0.0
        for k in range(f):
            d = x[i, k] - mean
            v += d * d
        inv = 1.0 / math.sqrt(v / f + eps)
        inv_std[i] = inv
        for k in range(f):
            h = (x[i, k] - mean) * inv
            xhat[i, k] = h
            y[i, k] = h * gain[k] + bias[k]
    return y, xhat, inv_std


def _layer_norm_backward_src(dout, xhat, inv_std, gain):
    m, f = xhat.shape
    dx = np.empty((m, f), xhat.dtype)
    dgain = np.zeros(f, xhat.dtype)
    dbias = np.zeros(f, xhat.dtype)
    for i in range(m):
        s1 = 0.0
        s2 = 0.0
        for k in range(f):
            g = dout[i, k] * gain[k]
            s1 += g
            s2 += g * xhat[i, k]
            dgain[k] += dout[i, k] * xhat[i, k]
            dbias[k] += dout[i, k]
        for k in range(f):
            g = dout[i, k] * gain[k]
            dx[i, k] = (g - s1 / f - xhat[i, k] * s2 / f) * inv_std[i]
    return dx, dgain, dbias


layer_norm_forward_loops = _jit(_layer_norm_forward_src)
layer_norm_backward_loops = _jit(_layer_norm_backward_src)


def layer_norm_forward_numpy(x, gain, bias, eps):
    f = x.shape[1]
    xc = x - np.add.reduce(x, axis=1, keepdims=True) / f
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / f
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    return xhat * gain + bias, xhat, inv_std[:, 0]


def layer_norm_backward_numpy(dout, xhat, inv_std, gain):
    f = xhat.shape[1]
    g = dout * gain
    s1 = g.sum(axis=1, keepdims=True)
    s2 = (g * xhat).sum(axis=1, keepdims=True)
    dx = (g - s1 / f - xhat * s2 / f) * inv_std[:, None]
    dgain = (dout * xhat).sum(axis=0)
    dbias = dout.sum(axis=0)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# LSTM over time: x (T, F), gate order input/forget/cell/output.
# Forward returns the hidden sequence plus the activation caches that the
# backward pass replays.
# ---------------------------------------------------------------------------

def _lstm_forward_src(x, wx, wh, b, h0, c0):
    t_len, f = x.shape
    n4 = 4 * f
    h = np.empty((t_len, f), x.dtype)
    c = np.empty((t_len, f), x.dtype)
    gates = np.empty((t_len, n4), x.dtype)
    tanh_c = np.empty((t_len, f), x.dtype)
    hp = h0.copy()
    cp = c0.copy()
    z = np.empty(n4, x.dtype)
    for t in range(t_len):
        for j in range(n4):
            acc = b[j]
            for k in range(f):
                acc += wx[j, k] * x[t, k]
            for k in range(f):
                acc += wh[j, k] * hp[k]
            z[j] = acc
        for k in range(f):
            gi = 1.0 / (1.0 + math.exp(-z[k]))
            gf = 1.0 / (1.0 + math.exp(-z[f + k]))
            gg = math.tanh(z[2 * f + k])
            go = 1.0 / (1.0 + math.exp(-z[3 * f + k]))
            cv = gf * cp[k] + gi * gg
            tc = math.tanh(cv)
            gates[t, k] = gi
            gates[t, f + k] = gf
            gates[t, 2 * f + k] = gg
            gates[t, 3 * f + k] = go
            c[t, k] = cv
            tanh_c[t, k] = tc
            h[t, k] = go * tc
        for k in range(f):
            hp[k] = h[t, k]
            cp[k] = c[t, k]
    return h, gates, c, tanh_c


def _lstm_backward_src(dh_out, x, wx, wh, gates, c, tanh_c, h, h0, c0):
    t_len, f = x.shape
    n4 = 4 * f
    dx = np.empty((t_len, f), x.dtype)
    dwx = np.zeros((n4, f), x.dtype)
    dwh = np.zeros((n4, f), x.dtype)
    db = np.zeros(n4, x.dtype)
    dh = np.zeros(f, x.dtype)
    dc = np.zeros(f, x.dtype)
    dz = np.empty(n4, x.dtype)
    for t in range(t_len - 1, -1, -1):
        for k in range(f):
            gi = gates[t, k]
            gf = gates[t, f + k]
            gg = gates[t, 2 * f + k]
            go = gates[t, 3 * f + k]
            tc = tanh_c[t, k]
            dhk = dh_out[t, k] + dh[k]
            dcv = dhk * go * (1.0 - tc * tc) + dc[k]
            cp = c[t - 1, k] if t > 0 else c0[k]
            dz[k] = dcv * gg * gi * (1.0 - gi)
            dz[f + k] = dcv * cp * gf * (1.0 - gf)
            dz[2 * f + k] = dcv * gi * (1.0 - gg * gg)
            dz[3 * f + k] = dhk * tc * go * (1.0 - go)
            dc[k] = dcv * gf
        hp = h[t - 1] if t > 0 else h0
        for j in range(n4):
            g = dz[j]
            db[j] += g
            for k in range(f):
                dwx[j, k] += g * x[t, k]
                dwh[j, k] += g * hp[k]
        for k in range(f):
            ax = 0.0
            ah = 0.0
            for j in range(n4):
                ax += wx[j, k] * dz[j]
                ah += wh[j, k] * dz[j]
            dx[t, k] = ax
            dh[k] = ah
    return dx, dwx, dwh, db


lstm_forward_loops = _jit(_lstm_forward_src)
lstm_backward_loops = _jit(_lstm_backward_src)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def lstm_forward_numpy(x, wx, wh, b, h0, c0):
    t_len, f = x.shape
    h = np.empty((t_len, f), x.dtype)
    c = np.empty((t_len, f), x.dtype)
    gates = np.empty((t_len, 4 * f), x.dtype)
    tanh_c = np.empty((t_len, f), x.dtype)
    hp = h0
    cp = c0
    for t in range(t_len):
        z = wx @ x[t] + wh @ hp + b
        gi = _sigmoid(z[:f])
        gf = _sigmoid(z[f:2 * f])
        gg = np.tanh(z[2 * f:3 * f])
        go = _sigmoid(z[3 * f:])
        cv = gf * cp + gi * gg
        tc = np.tanh(cv)
        gates[t, :f] = gi
        gates[t, f:2 * f] = gf
        gates[t, 2 * f:3 * f] = gg
        gates[t, 3 * f:] = go
        c[t] = cv
        tanh_c[t] = tc
        h[t] = go * tc
        hp = h[t]
        cp = cv
    return h, gates, c, tanh_c


def lstm_backward_numpy(dh_out, x, wx, wh, gates, c, tanh_c, h, h0, c0):
    t_len, f = x.shape
    dx = np.empty((t_len, f), x.dtype)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * f, x.dtype)
    dh = np.zeros(f, x.dtype)
    dc = np.zeros(f, x.dtype)
    for t in range(t_len - 1, -1, -1):
        gi = gates[t, :f]
        gf = gates[t, f:2 * f]
        gg = gates[t, 2 * f:3 * f]
        go = gates[t, 3 * f:]
        tc = tanh_c[t]
        cp = c[t - 1] if t > 0 else c0
        hp = h[t - 1] if t > 0 else h0
        dhk = dh_out[t] + dh
        dcv = dhk * go * (1.0 - tc * tc) + dc
        dz = np.concatenate([
            dcv * gg * gi * (1.0 - gi),
            dcv * cp * gf * (1.0 - gf),
            dcv * gi * (1.0 - gg * gg),
            dhk * tc * go * (1.0 - go),
        ])
        db += dz
        dwx += np.outer(dz, x[t])
        dwh += np.outer(dz, hp)
        dx[t] = wx.T @ dz
        dh = wh.T @ dz
        dc = dcv * gf
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# Fractional-delay tap placement for impulse responses: an 81-tap
# Hann-tapered truncated sinc centered on each (possibly fractional) delay.
# ---------------------------------------------------------------------------

SINC_HALF_WIDTH = 40
SINC_TAPS = 2 * SINC_HALF_WIDTH + 1


def _place_taps_src(delays, amps, length):
    out = np.zeros(length, np.float64)
    for m in range(delays.shape[0]):
        tau = delays[m]
        a = amps[m]
        center = int(math.floor(tau + 0.5))
        for j in range(-40, 41):
            n = center + j
            if n < 0 or n >= length:
                continue
            td = n - tau
            if td == 0.0:
                s = 1.0
            else:
                s = math.sin(math.pi * td) / (math.pi * td)
            taper = 0.5 * (1.0 + math.cos(2.0 * math.pi * td / 81.0))
            out[n] += a * s * taper
    return out


place_taps_loops = _jit(_place_taps_src)


def place_taps_numpy(delays, amps, length):
    out = np.zeros(length, np.float64)
    offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    for tau, a in zip(delays, amps):
        center = int(math.floor(tau + 0.5))
        n = center + offsets
        keep = (n >= 0) & (n < length)
        td = n[keep] - tau
        taps = a * np.sinc(td) * 0.5 * (1.0 + np.cos(2.0 * np.pi * td / 81.0))
        np.add.at(out, n[keep], taps)
    return out


if USE_NUMBA:
    linear_forward = linear_forward_loops
    linear_backward = linear_backward_loops
    spatial_conv_forward = spatial_conv_forward_loops
    spatial_conv_backward = spatial_conv_backward_loops
    layer_norm_forward = layer_norm_forward_loops
    layer_norm_backward = layer_norm_backward_loops
    lstm_forward = lstm_forward_loops
    lstm_backward = lstm_backward_loops
    place_taps = place_taps_loops
else:
    linear_forward = linear_forward_numpy
    linear_backward = linear_backward_numpy
    spatial_conv_forward = spatial_conv_forward_numpy
    spatial_conv_backward = spatial_conv_backward_numpy
    layer_norm_forward = layer_norm_forward_numpy
    layer_norm_backward = layer_norm_backward_numpy
    lstm_forward = lstm_forward_numpy
    lstm_backward = lstm_backward_numpy
    place_taps = place_taps_numpy
