"""Kernel-level checks: forward rows do not depend on how many rows share the
call, backwards match finite differences, and the sinc tap placer matches its
formula and behaves like an interpolator."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import dllrnn.kernels as K
from dllrnn import simulate
from conftest import fd_grad, rel_err


def _rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# forward rows: one frame alone == the same frame inside a T-frame call, bit
# for bit, at the 64-8-8 model's shapes (what makes streaming == batch)
# ---------------------------------------------------------------------------

def _f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _d_innermost(x):
    """A copy of a D×T×F array stored F×T×D, the model's dense-stack order."""
    return np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)


def _stream_rows(x):
    """The T·O rows of F that the model's layer norm reads from an O×T×F block."""
    return x.transpose(1, 0, 2).reshape(-1, x.shape[2])


def test_forward_rows_are_independent_of_row_count():
    rng = np.random.default_rng(10)
    t_len, f = 40, 64
    # encoder 256->64 over 8 channels, post-LSTM 64->64, decoder 64->32
    for m, k, o in ((8 * t_len, 256, 64), (t_len, 64, 64), (t_len, 64, 32)):
        x, w, b = _f32(rng, m, k), _f32(rng, o, k), _f32(rng, o)
        full = K.linear_forward(x, w, b)
        for i in range(m):
            npt.assert_array_equal(K.linear_forward(x[i:i + 1].copy(), w, b)[0], full[i])
    # spatial conv of blocks 1..8: D = 8..64, 8 streams + the temporal one, or 1 + 1
    for d in range(8, 65, 8):
        o = 2 if d == 64 else 9
        x, w, b = _f32(rng, d, t_len, f), _f32(rng, f, o, d), _f32(rng, o, f)
        full = K.spatial_conv_forward(x, w, b)
        for t in range(t_len):
            npt.assert_array_equal(K.spatial_conv_forward(x[:, t:t + 1].copy(), w, b)[:, 0],
                                   full[:, t])
    x, gain, bias = _f32(rng, 8 * t_len, f), _f32(rng, f), _f32(rng, f)
    a, eps = np.float32(0.25), np.float32(1e-5)
    full = K.layer_norm_forward(x.copy(), gain, bias, a, eps)
    for i in range(x.shape[0]):
        for got, want in zip(K.layer_norm_forward(x[i:i + 1].copy(), gain, bias, a, eps), full):
            npt.assert_array_equal(got[0], want[i])
    # the same kernels at the strides the model passes them, T=40 against the
    # one-frame buffers a push builds: numpy picks its matmul and reduce loops
    # by stride, so C-order copies do not stand in for these
    stack = _d_innermost(_f32(rng, 65, t_len, f))  # the 64-8-8 dense stack, F×T×65
    frame_stacks = [_d_innermost(stack[:, t:t + 1]) for t in range(t_len)]
    for d in range(8, 65, 8):
        o = 2 if d == 64 else 9
        w, b = _f32(rng, f, o, d), _f32(rng, o, f)
        full = K.spatial_conv_forward(stack[:d], w, b)
        for t in range(t_len):
            npt.assert_array_equal(K.spatial_conv_forward(frame_stacks[t][:d], w, b)[:, 0],
                                   full[:, t])
    # the decoder reads the stack's last row, a T×F view with no unit stride
    w, b = _f32(rng, 32, f), _f32(rng, 32)
    full = K.linear_forward(stack[-1], w, b)
    for t in range(t_len):
        npt.assert_array_equal(K.linear_forward(frame_stacks[t][-1], w, b)[0], full[t])
    # block layer norm: the T·O rows of a conv output stored F×T×O
    for o in (9, 2):
        conv = _d_innermost(_f32(rng, o, t_len, f))
        rows = _stream_rows(conv)
        assert rows.strides[0] == rows.itemsize and np.shares_memory(rows, conv)
        full = K.layer_norm_forward(rows.copy(order="K"), gain, bias, a, eps)
        for t in range(t_len):
            one = K.layer_norm_forward(_stream_rows(_d_innermost(conv[:, t:t + 1])),
                                       gain, bias, a, eps)
            for got, want in zip(one, full):
                npt.assert_array_equal(got, want[t * o:(t + 1) * o])
    # the LSTM one step per call with carried state, as a streaming session
    # runs it: a step's h and c are rows t..t+1 of the full run's (row 0 is
    # the carried state), its gates row t
    x, wx, wh, b = _f32(rng, t_len, f), _f32(rng, 4 * f, f), _f32(rng, 4 * f, f), _f32(rng, 4 * f)
    h0, c0 = _f32(rng, f), _f32(rng, f)
    full = K.lstm_forward(x, wx, wh, b, h0, c0)
    for t in range(t_len):
        step = K.lstm_forward(x[t:t + 1].copy(), wx, wh, b, h0, c0)
        for got, want in zip(step, full):
            npt.assert_array_equal(got, want[t:t + len(got)])
        h0, c0 = step[0][-1], step[2][-1]


# ---------------------------------------------------------------------------
# the layer-norm pair works in place: each writes over its first argument
# the bits of the same expressions evaluated into new arrays, and leaves
# every other argument as it was
# ---------------------------------------------------------------------------

def _like(rng, array):
    """Random float32 values in an array laid out like ``array``."""
    out = np.empty_like(array)
    out[...] = _f32(rng, *array.shape)
    return out


def _layer_norm_reference(x, gain, bias, a, eps, dout):
    """The pair's forward ``(r, xhat, inv_std)`` and backward ``(dx, dgain,
    dbias, da)``, in the kernels' order of operations, every step into a new
    array laid out like ``x``."""
    f = x.shape[1]
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / f
    inv_std = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=1, keepdims=True) / f + eps)
    xhat = xhat * inv_std
    y = xhat * gain + bias
    r = np.maximum(y, 0) + np.minimum(y, 0) * a
    neg = y < 0
    da = np.asarray((np.minimum(y, 0) * dout).sum(), dtype=x.dtype)
    g = (neg * a + ~neg) * dout
    dbias, dgain = g.sum(axis=0), (g * xhat).sum(axis=0)
    g = g * gain
    s1, s2 = g.sum(axis=1, keepdims=True), (g * xhat).sum(axis=1, keepdims=True)
    dx = (g - s1 / f - xhat * s2 / f) * inv_std
    return (r, xhat, inv_std[:, 0]), (dx, dgain, dbias, da)


@pytest.mark.parametrize("layout", ["C", "stream rows"])
def test_layer_norm_in_place_gives_reference_bits(layout):
    # both layouts the model passes: the encoder's C-ordered rows and a
    # block's T·O stream rows of an F×T×O buffer, whose reductions numpy
    # runs in another order
    rng = np.random.default_rng(21)
    f = 64
    x = _f32(rng, 40, f) if layout == "C" else _stream_rows(_d_innermost(_f32(rng, 9, 40, f)))
    gain, bias, eps, a = _f32(rng, f), _f32(rng, f), np.float32(1e-5), np.float32(0.25)
    dout = _like(rng, x)
    want_fwd, want_bwd = _layer_norm_reference(x, gain, bias, a, eps, dout)
    kept = [v.copy() for v in (gain, bias)]

    def bytes_of(*arrays):
        return [np.asarray(v).tobytes() for v in arrays]

    buf = x.copy(order="K")
    got = K.layer_norm_forward(buf, gain, bias, a, eps)
    assert got[0] is buf and bytes_of(*got) == bytes_of(*want_fwd)
    r, xhat, inv_std = got
    r_bytes = bytes_of(r)
    # the backward's rebuild of the rectified rows gives the forward's bits
    assert bytes_of(K.layer_norm_output(xhat, gain, bias, a)) == r_bytes

    buf = dout.copy(order="K")
    got = K.layer_norm_backward(buf, xhat, inv_std, gain, bias, a)
    assert got[0] is buf and bytes_of(*got) == bytes_of(*want_bwd)
    # nothing but the first argument was written
    assert bytes_of(r, xhat, inv_std, gain, bias) == r_bytes + bytes_of(*want_fwd[1:], *kept)


# ---------------------------------------------------------------------------
# backward == central finite differences (double precision on the raw kernels)
# ---------------------------------------------------------------------------

def test_linear_backward_fd():
    rng = np.random.default_rng(5)
    x, w, b = _rand(rng, 3, 4), _rand(rng, 2, 4), _rand(rng, 2)
    dout = np.ones((3, 2))
    dx, dw, db = K.linear_backward(dout, x, w)
    assert rel_err(dx, fd_grad(lambda v: K.linear_forward(v, w, b).sum(), x)) < 1e-7
    assert rel_err(dw, fd_grad(lambda v: K.linear_forward(x, v, b).sum(), w)) < 1e-7
    assert rel_err(db, fd_grad(lambda v: K.linear_forward(x, w, v).sum(), b)) < 1e-7


def test_spatial_conv_backward_fd():
    rng = np.random.default_rng(6)
    x, w, b = _rand(rng, 3, 2, 4), _rand(rng, 4, 2, 3), _rand(rng, 2, 4)
    dout = np.ones((2, 2, 4))
    dw, db = K.spatial_conv_backward(dout, x, w)
    dx = K.spatial_conv_input_grad([(dout, w)], 0, 3)
    assert rel_err(dx, fd_grad(lambda v: K.spatial_conv_forward(v, w, b).sum(), x)) < 1e-7
    assert rel_err(dw, fd_grad(lambda v: K.spatial_conv_forward(x, v, b).sum(), w)) < 1e-7
    assert rel_err(db, fd_grad(lambda v: K.spatial_conv_forward(x, w, v).sum(), b)) < 1e-7


def test_spatial_conv_backward_at_stack_strides():
    # x as block 3 of a 4-block model reads it: the leading D rows of a wider
    # D-innermost stack; dout in the conv output's own F×T×O order
    rng = np.random.default_rng(16)
    d, t_len, f, o, width = 5, 3, 4, 3, 8
    w = _rand(rng, f, o, d)

    def stacked(v):
        buf = np.zeros((width, t_len, f))
        buf[:d] = v
        return _d_innermost(buf)[:d]

    x_c, dout_c = _rand(rng, d, t_len, f), _rand(rng, o, t_len, f)
    x, dout = stacked(x_c), _d_innermost(dout_c)
    assert x.strides[0] == dout.strides[0] == x.itemsize
    got = K.spatial_conv_backward(dout, x, w)
    want = K.spatial_conv_backward(dout_c, x_c, w)
    for g, r in zip(got, want):
        assert rel_err(g, r) < 1e-6
    # the input gradient of all D rows, from dout at the conv output's
    # strides, is the full (F,T,O)@(F,O,D) product bit for bit, D-innermost
    dx = K.spatial_conv_input_grad([(dout, w)], 0, d)
    assert dx.strides[0] == dx.itemsize
    npt.assert_array_equal(dx, np.matmul(dout.transpose(2, 1, 0), w).transpose(2, 1, 0))
    assert rel_err(dx, K.spatial_conv_input_grad([(dout_c, w)], 0, d)) < 1e-6
    b = np.zeros((o, f))
    dw, db = got
    assert rel_err(dx, fd_grad(lambda v: (K.spatial_conv_forward(stacked(v), w, b)
                                          * dout).sum(), x_c)) < 1e-7
    assert rel_err(dw, fd_grad(lambda v: (K.spatial_conv_forward(x, v, b) * dout).sum(),
                               w)) < 1e-7
    assert rel_err(db, fd_grad(lambda v: (K.spatial_conv_forward(x, w, v) * dout).sum(),
                               b)) < 1e-7


def test_spatial_conv_input_grad_fd():
    # A 4-block dense stack with C = 3 encoder rows and S = 2, stored
    # D-innermost: block k reads the leading D_k = 3 + 2(k-1) rows and writes
    # its streams after them, the last block one stream. The gradient of the
    # encoder rows and of each block's output rows, gathered from the convs
    # that read them (last block first), matches finite differences of all
    # four convs' outputs weighted by their output gradients, and is their
    # products added in that order, bit for bit.
    rng = np.random.default_rng(17)
    c, s, t_len, f = 3, 2, 3, 4
    widths = [c + s * k for k in range(4)]
    outs = [s + 1, s + 1, s + 1, 2]
    ws = [_rand(rng, f, o, d) for o, d in zip(outs, widths)]
    douts = [_d_innermost(_rand(rng, o, t_len, f)) for o in outs]
    stack = _rand(rng, widths[-1] + 1, t_len, f)

    def loss(v):
        v = _d_innermost(v)
        return sum((K.spatial_conv_forward(v[:d], w, np.zeros((len(dout), f))) * dout).sum()
                   for d, w, dout in zip(widths, ws, douts))

    want = fd_grad(loss, stack)
    for lo, n in [(0, c)] + [(d, s) for d in widths[:-1]]:
        readers = [(dout, w) for d, w, dout in zip(widths, ws, douts) if d > lo][::-1]
        got = K.spatial_conv_input_grad(readers, lo, n)
        assert got.shape == (n, t_len, f) and got.strides[0] == got.itemsize
        assert rel_err(got, want[lo:lo + n]) < 1e-7
        acc = 0.0
        for dout, w in readers:
            acc = acc + np.matmul(dout.transpose(2, 1, 0), w[:, :, lo:lo + n])
        npt.assert_array_equal(got, acc.transpose(2, 1, 0))


def test_layer_norm_backward_fd():
    # x, gain, bias and the PReLU slope, with every PReLU input clear of the kink at 0
    rng = np.random.default_rng(7)
    x, gain, bias = _rand(rng, 4, 5), _rand(rng, 5), _rand(rng, 5)
    a = np.float64(0.25)
    dout = _rand(rng, 4, 5)

    def loss(xv, gv, bv, av):
        return float((K.layer_norm_forward(xv.copy(), gv, bv, av, 1e-5)[0] * dout).sum())

    _, xhat, inv_std = K.layer_norm_forward(x.copy(), gain, bias, a, 1e-5)
    assert np.abs(xhat * gain + bias).min() > 0.01
    dx, dgain, dbias, da = K.layer_norm_backward(dout.copy(), xhat, inv_std, gain, bias, a)
    assert da.shape == ()
    assert rel_err(dx, fd_grad(lambda v: loss(v, gain, bias, a), x)) < 1e-6
    assert rel_err(dgain, fd_grad(lambda v: loss(x, v, bias, a), gain)) < 1e-6
    assert rel_err(dbias, fd_grad(lambda v: loss(x, gain, v, a), bias)) < 1e-6
    assert rel_err(da, fd_grad(lambda v: loss(x, gain, bias, v), a)) < 1e-8


def test_prelu_backward_fd():
    # the PReLU alone: with unit gain and zero bias the rebuild is the PReLU of
    # its input rows, and for one row the bias gradient is its input gradient
    rng = np.random.default_rng(5)
    y = _rand(rng, 1, 12)
    y += np.copysign(0.05, y)  # keep clear of the kink at 0
    a = np.float64(0.25)
    dout = _rand(rng, 1, 12)
    one, zero = np.ones(12), np.zeros(12)

    def loss(yv, av):
        return float((K.layer_norm_output(yv, one, zero, av) * dout).sum())

    _, _, dy, da = K.layer_norm_backward(dout.copy(), y, np.ones(1), one, zero, a)
    assert da.shape == ()
    assert rel_err(dy, fd_grad(lambda v: loss(v, a), y)[0]) < 1e-8
    assert rel_err(da, fd_grad(lambda v: loss(y, v), a)) < 1e-8


def test_prelu_matches_select():
    # the branch-free PReLU gives np.where's values, zeros and both slopes
    # included: forward, rebuild, and the slope's and the input's gradients
    rng = np.random.default_rng(17)
    x = _f32(rng, 50, 64)
    gain, bias, eps = _f32(rng, 64), _f32(rng, 64), np.float32(1e-5)
    dout = _f32(rng, 50, 64)
    one, zero = np.ones(64, np.float32), np.zeros(64, np.float32)
    for a in (np.float32(0.25), np.float32(-0.5), np.float32(0.0)):
        r, xhat, inv_std = K.layer_norm_forward(x.copy(), gain, bias, a, eps)
        y = xhat * gain + bias
        neg = y < 0
        npt.assert_array_equal(r, np.where(neg, a * y, y))
        # with unit gain and zero bias the rebuild is the PReLU of its input rows
        rows = x.copy()
        rows[::7, ::5] = 0.0
        npt.assert_array_equal(K.layer_norm_output(rows, one, zero, a),
                               np.where(rows < 0, a * rows, rows))
        # the backward at the same rows taken as one row, so that its bias
        # gradient is the PReLU's input gradient element by element
        flat, d_flat = rows.reshape(1, -1), dout.reshape(1, -1)
        ones, zeros = np.ones(flat.shape[1], np.float32), np.zeros(flat.shape[1], np.float32)
        _, _, d, da0 = K.layer_norm_backward(d_flat.copy(), flat, np.ones(1, np.float32), ones,
                                             zeros, a)
        npt.assert_array_equal(d, np.where(flat[0] < 0, a, np.float32(1.0)) * d_flat[0])
        npt.assert_array_equal(da0, (d_flat * np.where(flat < 0, flat, 0)).sum())
        _, dgain, dbias, da = K.layer_norm_backward(dout.copy(), xhat, inv_std, gain, bias, a)
        d_y = np.where(neg, a, np.float32(1.0)) * dout  # the PReLU's input gradient
        npt.assert_array_equal(dbias, d_y.sum(axis=0))
        npt.assert_array_equal(dgain, (d_y * xhat).sum(axis=0))
        npt.assert_array_equal(da, (dout * np.where(neg, y, 0.0)).sum())
        assert dgain.dtype == dbias.dtype == da.dtype == np.float32


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_layer_norm_in_place_peak(direction):
    # writing its output over its input, the forward allocates xhat and
    # PReLU temporaries of at most three blocks of _PRELU_BLOCK elements; the
    # backward a float32 scratch and one bool mask: 5 bytes per element. Each
    # also holds a few per-row vectors, and numpy casts the bool mask through
    # a ~34 KB buffer.
    rng = np.random.default_rng(3)
    x, gain, bias, dout = _f32(rng, 9000, 64), _f32(rng, 64), _f32(rng, 64), _f32(rng, 9000, 64)
    a = np.float32(0.25)
    _, xhat, inv_std = K.layer_norm_forward(x.copy(), gain, bias, a, np.float32(1e-5))
    if direction == "forward":
        call, full_size = (lambda: K.layer_norm_forward(x, gain, bias, a, np.float32(1e-5)),
                           x.nbytes + 3 * 4 * K._PRELU_BLOCK)
    else:
        call, full_size = (lambda: K.layer_norm_backward(dout, xhat, inv_std, gain, bias, a),
                           5 * x.size)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full_size + 16 * x.shape[0] + 65536


def test_lstm_backward_fd():
    # nonzero initial state and a random upstream gradient, so that reading
    # the wrong h/c row as the previous state shows up
    rng = np.random.default_rng(8)
    t, f = 6, 3
    x = _rand(rng, t, f)
    wx, wh, b = 0.5 * _rand(rng, 4 * f, f), 0.5 * _rand(rng, 4 * f, f), 0.1 * _rand(rng, 4 * f)
    h0, c0 = 0.5 * _rand(rng, f), 0.5 * _rand(rng, f)
    dh = _rand(rng, t, f)

    def loss(xv, wxv, whv, bv):
        return float((K.lstm_forward(xv, wxv, whv, bv, h0, c0)[0][1:] * dh).sum())

    h, gates, c = K.lstm_forward(x, wx, wh, b, h0, c0)
    dx, dwx, dwh, db = K.lstm_backward(dh, x, wx, wh, gates, c, h)
    assert rel_err(dx, fd_grad(lambda v: loss(v, wx, wh, b), x)) < 1e-4
    assert rel_err(dwx, fd_grad(lambda v: loss(x, v, wh, b), wx)) < 1e-4
    assert rel_err(dwh, fd_grad(lambda v: loss(x, wx, v, b), wh)) < 1e-4
    assert rel_err(db, fd_grad(lambda v: loss(x, wx, wh, v), b)) < 1e-4


def _lstm_backward_oracle(dh_out, x, wx, wh, gates, c, h):
    """The LSTM backward one frame at a time: each step forms its gate
    gradient dz and adds its outer products to the weight gradients. Row t
    of ``h`` and ``c`` is the state before frame t."""
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
        tc = np.tanh(c[t + 1])
        cp = c[t]
        hp = h[t]
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


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-10), (np.float32, 1e-5)])
def test_lstm_backward_matches_per_step_recursion(dtype, rtol):
    rng = np.random.default_rng(11)
    t_len, f = 300, 64
    x = _rand(rng, t_len, f).astype(dtype)
    wx, wh = (0.2 * _rand(rng, 4 * f, f)).astype(dtype), (0.2 * _rand(rng, 4 * f, f)).astype(dtype)
    b = (0.1 * _rand(rng, 4 * f)).astype(dtype)
    h0, c0 = (0.5 * _rand(rng, f)).astype(dtype), (0.5 * _rand(rng, f)).astype(dtype)
    dh = _rand(rng, t_len, f).astype(dtype)
    h, gates, c = K.lstm_forward(x, wx, wh, b, h0, c0)
    args = (dh, x, wx, wh, gates, c, h)
    got = K.lstm_backward(*args)
    # summation order differs, so entries near zero are held to rtol of the
    # output's scale rather than of themselves
    for name, g, want in zip(("dx", "dwx", "dwh", "db"), got, _lstm_backward_oracle(*args)):
        assert g.dtype == dtype and g.shape == want.shape, name
        npt.assert_allclose(g, want, rtol=rtol, atol=rtol * np.abs(want).max(), err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_backward_recomputes_the_forwards_tanh_rows(dtype):
    # The forward keeps tanh(c) in one rolling row and the backward takes
    # np.tanh of the cell rows 1..T in one call. Each row of that call is the
    # forward's one-row tanh bit for bit, and the output gate times it is the
    # forward's h, so the backward reads the values the forward used.
    rng = np.random.default_rng(13)
    t_len, f = 300, 64
    x = (3.0 * _rand(rng, t_len, f)).astype(dtype)
    wx, wh = (0.5 * _rand(rng, 4 * f, f)).astype(dtype), (0.5 * _rand(rng, 4 * f, f)).astype(dtype)
    b = _rand(rng, 4 * f).astype(dtype)
    h0, c0 = _rand(rng, f).astype(dtype), _rand(rng, f).astype(dtype)
    h, gates, c = K.lstm_forward(x, wx, wh, b, h0, c0)
    assert np.abs(c).max() > 4.0  # cells where tanh(c) is within 1e-3 of ±1 are covered
    whole = np.tanh(c[1:])
    for t in range(t_len):
        npt.assert_array_equal(np.tanh(c[t + 1]), whole[t])
    npt.assert_array_equal(gates[:, 3 * f:] * whole, h[1:])


@pytest.mark.parametrize("dtype, ulps", [(np.float32, 2), (np.float64, 2)])
def test_lstm_gate_rows_match_float64_reference(dtype, ulps):
    # The forward's gates come from one tanh over the row: 0.5 + 0.5·tanh(v/2)
    # on the i/f/o rows, tanh(v) itself on the g row. Against sigmoid and
    # tanh in float64 of the same pre-activations, every gate is within a
    # few ulp of 1.0 in the working dtype, and the g row is that dtype's tanh.
    rng = np.random.default_rng(12)
    t_len, f = 200, 64
    x = (3.0 * _rand(rng, t_len, f)).astype(dtype)
    wx, wh = (0.5 * _rand(rng, 4 * f, f)).astype(dtype), (0.5 * _rand(rng, 4 * f, f)).astype(dtype)
    b = _rand(rng, 4 * f).astype(dtype)
    h0, c0 = _rand(rng, f).astype(dtype), _rand(rng, f).astype(dtype)
    h, gates, c = K.lstm_forward(x, wx, wh, b, h0, c0)
    # the pre-activations, formed as the kernel forms them
    z = np.matmul(x[:, None, :], wx.T)[:, 0]
    z += b
    for t in range(t_len):
        z[t] += wh @ h[t]
    z64 = z.astype(np.float64)
    want = 1.0 / (1.0 + np.exp(-z64))
    want[:, 2 * f:3 * f] = np.tanh(z64[:, 2 * f:3 * f])
    assert np.abs(z64).max() > 20.0  # saturated gates are covered
    assert gates.dtype == dtype
    npt.assert_allclose(gates, want, rtol=0, atol=ulps * np.finfo(dtype).eps)
    npt.assert_array_equal(gates[:, 2 * f:3 * f], np.tanh(z[:, 2 * f:3 * f]))


# ---------------------------------------------------------------------------
# tap placement semantics
# ---------------------------------------------------------------------------

def _place_taps_oracle(delays, amps, length):
    """Each delay tau adds a·sinc(n - tau)·Hann(n - tau) at the 81 samples n
    nearest tau that fall inside the buffer."""
    out = np.zeros(length)
    for tau, a in zip(delays, amps):
        center = math.floor(tau + 0.5)
        for n in range(max(center - 40, 0), min(center + 41, length)):
            td = n - tau
            sinc = 1.0 if td == 0.0 else math.sin(math.pi * td) / (math.pi * td)
            out[n] += a * sinc * 0.5 * (1.0 + math.cos(2.0 * math.pi * td / 81.0))
    return out


def test_place_taps_matches_sinc_hann_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_taps = int(rng.integers(1, 8))
        length = int(rng.integers(100, 300))
        # fractional delays, some close enough together to overlap and some
        # close enough to either end to be clipped
        delays = rng.uniform(0.0, length - 1.0, n_taps)
        delays[0] = rng.uniform(0.0, 10.0) + 0.37
        delays[-1] = length - 1.21 - rng.uniform(0.0, 10.0)
        amps = rng.uniform(-1.0, 1.0, n_taps)
        npt.assert_allclose(K.place_taps(delays, amps, length),
                            _place_taps_oracle(delays, amps, length), rtol=1e-12, atol=1e-14)


def _place_taps_loop(delays, amps, length):
    """One image at a time with ``np.add.at``, in image order: the summation
    order ``place_taps`` keeps, and its bit-exact reference. Each image's taps
    are the closed form the kernel evaluates: with d = tau - floor(tau + 0.5)
    and td = k - d, sin(pi·td) = -(-1)^k sin(pi·d) and cos(2pi·td/81) =
    cos(2pi·k/81) cos(2pi·d/81) + sin(2pi·k/81) sin(2pi·d/81), so a tap is
    a·sin(pi·d)/pi times a signed sum of three window terms, over td."""
    out = np.zeros(length, np.float64)
    k = np.arange(-40, 41)
    signed = np.where(k % 2 == 0, -0.5, 0.5)
    rows = signed * np.stack([np.cos(2.0 * np.pi * k / 81), np.sin(2.0 * np.pi * k / 81),
                              np.ones(81)])
    delays = np.asarray(delays, np.float64)
    d = delays - np.floor(delays + 0.5)
    angle = (2.0 * np.pi / 81) * d
    scale = np.asarray(amps, np.float64) * np.sin(np.pi * d) / np.pi
    cos_d, sin_d = np.cos(angle), np.sin(angle)
    for i, tau in enumerate(delays):
        n = int(math.floor(tau + 0.5)) + k
        terms = scale[i] * np.array([[cos_d[i], sin_d[i], 1.0]])
        taps = np.einsum("mi,ik->mk", terms, rows)[0]
        td = k - d[i]
        # the 0/0 tap k = 0 of an integer delay is the amplitude
        taps = np.divide(taps, td, out=np.full(81, float(amps[i])), where=td != 0.0)
        keep = (n >= 0) & (n < length)
        np.add.at(out, n[keep], taps[keep])
    return out


def test_place_taps_bit_equal_to_loop_reference():
    rng = np.random.default_rng(21)
    cases = [(np.array([]), np.array([]), 50),           # zero images
             (np.array([17.3]), np.array([0.7]), 60),      # one image
             (np.array([-90.0, 500.5]), np.array([1.0, 2.0]), 60),  # no tap inside
             (np.array([-41.0, -3.5, 12.0, 12.0, 99.0, 140.0]), rng.standard_normal(6), 100)]
    for _ in range(40):
        m = int(rng.integers(1, 400))
        length = int(rng.integers(50, 1200))
        spread = rng.choice([3.0, float(length)])   # heavily overlapping, or spread out
        delays = rng.uniform(-60.0, 0.0) + rng.uniform(0.0, spread + 120.0, m)
        cases.append((delays, rng.standard_normal(m), length))
        cases.append((np.floor(delays), rng.standard_normal(m), length))  # integer delays
    for _ in range(10):
        # many images, none with a tap outside the buffer: the discard bins
        # stay empty and every tap goes through the one bincount
        m = int(rng.integers(200, 800))
        length = int(rng.integers(200, 1200))
        delays = rng.uniform(40.5, length - 41.5, m)
        cases.append((delays, rng.standard_normal(m), length))
    for delays, amps, length in cases:
        got = K.place_taps(delays, amps, length)
        assert got.dtype == np.float64 and got.shape == (length,)
        assert np.array_equal(got, _place_taps_loop(delays, amps, length)), (delays, length)


def _place_taps_direct(delays, amps, length):
    """Each tap's own sinc and Hann window, a·sinc(td)·0.5·(1 + cos(2pi·td/81)),
    summed by one bincount over the taps inside the buffer."""
    n = np.floor(delays + 0.5).astype(np.int64)[:, None] + np.arange(-40, 41)
    td = n - delays[:, None]
    taps = amps[:, None] * np.sinc(td) * 0.5 * (1.0 + np.cos(2.0 * np.pi * td / 81.0))
    keep = (n >= 0) & (n < length)
    return np.bincount(n[keep], weights=taps[keep], minlength=length)


def test_place_taps_within_rounding_of_per_tap_sinc_hann():
    # the angle-addition form moves each sample by rounding alone: within
    # 2e-15 of the largest amplitude, on synthetic delays and on image sets
    rng = np.random.default_rng(29)
    length = 400
    base = rng.uniform(-30.0, length + 30.0, 300)
    cases = [(np.round(base) + rng.choice([-1e-12, 1e-12], 300), "near-integer"),
             (np.round(base), "integer"),
             (np.round(base) + 0.5, "half-integer"),
             (-rng.uniform(0.0, 60.0, 300), "negative"),
             (np.concatenate([rng.uniform(-40.0, 40.0, 150),
                              rng.uniform(length - 40.0, length + 40.0, 150)]), "clipped"),
             (base, "fractional")]
    cases = [(delays, rng.standard_normal(len(delays)), length, what) for delays, what in cases]
    for order in (6, 12):
        scene = simulate.draw_scene(rng, n_mics=2)
        positions, reflections = simulate.image_sources(scene.room, scene.speech_pos, order)
        gains = np.sqrt(1.0 - scene.room.absorption) ** reflections
        for mic in scene.mics:
            dist = np.linalg.norm(positions - mic, axis=1)
            delays = dist * simulate.SAMPLE_RATE / simulate.SPEED_OF_SOUND
            cases.append((delays, gains / (4.0 * np.pi * dist),
                          int(np.ceil(delays.max())) + 42, f"order {order}"))
    for delays, amps, length, what in cases:
        got = K.place_taps(delays, amps, length)
        want = _place_taps_direct(delays, amps, length)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(amps).max(), what


def test_place_taps_integer_delay_is_exact():
    # sinc vanishes at nonzero integers, so an integer delay is a single tap
    out = K.place_taps(np.array([10.0]), np.array([2.0]), 64)
    assert out[10] == 2.0
    others = np.delete(out, 10)
    npt.assert_allclose(others, 0.0, atol=1e-15)


def test_place_taps_linear_in_amplitude():
    rng = np.random.default_rng(9)
    delays = rng.uniform(5.0, 90.0, 4)
    a1, a2 = rng.standard_normal(4), rng.standard_normal(4)
    combined = K.place_taps(delays, a1 + a2, 128)
    split = K.place_taps(delays, a1, 128) + K.place_taps(delays, a2, 128)
    npt.assert_allclose(combined, split, rtol=1e-12, atol=1e-14)


def test_place_taps_clips_at_edges():
    # taps whose kernels overrun either end are truncated, not wrapped
    out = K.place_taps(np.array([1.5, 98.5]), np.array([1.0, 1.0]), 100)
    assert out.shape == (100,)
    assert np.isfinite(out).all()
    assert abs(out[2]) > 0.1 and abs(out[98]) > 0.1
