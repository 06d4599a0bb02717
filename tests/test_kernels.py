"""Kernel-level checks: forward rows do not depend on how many rows share the
call, backwards match finite differences, and the sinc tap placer matches its
formula and behaves like an interpolator."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import dllrnn.kernels as K
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
    eps = np.float32(1e-5)
    full = K.layer_norm_forward(x, gain, bias, eps)
    for i in range(x.shape[0]):
        for got, want in zip(K.layer_norm_forward(x[i:i + 1].copy(), gain, bias, eps), full):
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
        full = K.layer_norm_forward(rows, gain, bias, eps)
        for t in range(t_len):
            one = K.layer_norm_forward(_stream_rows(_d_innermost(conv[:, t:t + 1])),
                                       gain, bias, eps)
            for got, want in zip(one, full):
                npt.assert_array_equal(got, want[t * o:(t + 1) * o])
    # the LSTM one step per call with carried state, as a streaming session
    # runs it: a step's h and c are rows t..t+1 of the full run's (row 0 is
    # the carried state), its gates and tanh(c) row t
    x, wx, wh, b = _f32(rng, t_len, f), _f32(rng, 4 * f, f), _f32(rng, 4 * f, f), _f32(rng, 4 * f)
    h0, c0 = _f32(rng, f), _f32(rng, f)
    full = K.lstm_forward(x, wx, wh, b, h0, c0)
    for t in range(t_len):
        step = K.lstm_forward(x[t:t + 1].copy(), wx, wh, b, h0, c0)
        for got, want in zip(step, full):
            npt.assert_array_equal(got, want[t:t + len(got)])
        h0, c0 = step[0][-1], step[2][-1]


# ---------------------------------------------------------------------------
# the kernels that take an out= buffer: the allocating form's bits, written
# into the buffer, with every other argument left as it was
# ---------------------------------------------------------------------------

def _like(rng, array):
    """Random float32 values in an array laid out like ``array``."""
    out = np.empty_like(array)
    out[...] = _f32(rng, *array.shape)
    return out


@pytest.mark.parametrize("layout", ["C", "stream rows"])
def test_out_buffers_give_the_allocating_forms_bits(layout):
    # both layouts the model passes: the encoder's C-ordered rows and a
    # block's T·O stream rows of an F×T×O buffer, whose reductions numpy
    # runs in another order
    rng = np.random.default_rng(21)
    f = 64
    x = _f32(rng, 40, f) if layout == "C" else _stream_rows(_d_innermost(_f32(rng, 9, 40, f)))
    gain, bias, eps, a = _f32(rng, f), _f32(rng, f), np.float32(1e-5), np.float32(0.25)
    dout = _like(rng, x)
    kept = {"x": x.copy(order="K"), "dout": dout.copy(order="K")}

    def bytes_of(*arrays):
        return [np.asarray(v).tobytes() for v in arrays]

    want = K.layer_norm_forward(x, gain, bias, eps)
    buf = x.copy(order="K")
    got = K.layer_norm_forward(buf, gain, bias, eps, out=buf)
    assert got[1] is buf and bytes_of(*got) == bytes_of(*want)
    y, xhat, inv_std = want

    want = K.prelu_forward(y, a)
    buf = y.copy(order="K")
    assert K.prelu_forward(buf, a, out=buf) is buf and bytes_of(buf) == bytes_of(want)

    want = K.prelu_backward(dout, y, a)
    buf = dout.copy(order="K")
    got = K.prelu_backward(buf, y, a, out=buf)
    assert got[0] is buf and bytes_of(*got) == bytes_of(*want)

    want = K.layer_norm_backward(dout, xhat, inv_std, gain)
    buf = dout.copy(order="K")
    got = K.layer_norm_backward(buf, xhat, inv_std, gain, out=buf)
    assert got[0] is buf and bytes_of(*got) == bytes_of(*want)
    # nothing but the buffers handed over was written
    assert bytes_of(x, dout) == bytes_of(kept["x"], kept["dout"])
    assert bytes_of(*K.layer_norm_forward(kept["x"], gain, bias, eps)) == bytes_of(y, xhat, inv_std)


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
    dx = np.zeros_like(x)
    dw, db = K.spatial_conv_backward(dout, x, w, dx)
    assert rel_err(dx, fd_grad(lambda v: K.spatial_conv_forward(v, w, b).sum(), x)) < 1e-7
    assert rel_err(dw, fd_grad(lambda v: K.spatial_conv_forward(x, v, b).sum(), w)) < 1e-7
    assert rel_err(db, fd_grad(lambda v: K.spatial_conv_forward(x, w, v).sum(), b)) < 1e-7


def test_spatial_conv_backward_at_stack_strides(monkeypatch):
    # x as block 3 of a 4-block model reads it: the leading D rows of a wider
    # D-innermost stack; dout in the conv output's own F×T×O order; dx the
    # same rows of the stack's gradient, already holding later blocks' terms
    rng = np.random.default_rng(16)
    d, t_len, f, o, width = 5, 3, 4, 3, 8
    w = _rand(rng, f, o, d)

    def stacked(v):
        buf = np.zeros((width, t_len, f))
        buf[:d] = v
        return _d_innermost(buf)[:d]

    x_c, dout_c = _rand(rng, d, t_len, f), _rand(rng, o, t_len, f)
    x, dout = stacked(x_c), _d_innermost(dout_c)
    base = _rand(rng, d, t_len, f)
    acc, dx_c = stacked(base), np.zeros((d, t_len, f))
    assert x.strides[0] == dout.strides[0] == acc.strides[0] == x.itemsize
    got = K.spatial_conv_backward(dout, x, w, acc)
    want = K.spatial_conv_backward(dout_c, x_c, w, dx_c)
    for g, r in zip(got, want):
        assert rel_err(g, r) < 1e-6
    # the input gradient is added onto the accumulator, not written over it,
    # and is the full (F,T,O)@(F,O,D) product bit for bit
    full = np.matmul(dout.transpose(2, 1, 0), w).transpose(2, 1, 0)
    npt.assert_array_equal(acc, base + full)
    assert rel_err(dx_c, full) < 1e-6
    # one hidden unit per chunk gives the same sum as one chunk for all
    monkeypatch.setattr(K, "DX_CHUNK_BYTES", 1)
    one_by_one = stacked(base)
    K.spatial_conv_backward(dout, x, w, one_by_one)
    npt.assert_array_equal(one_by_one, acc)
    b = np.zeros((o, f))
    dw, db = got
    dx = acc - base
    assert rel_err(dx, fd_grad(lambda v: (K.spatial_conv_forward(stacked(v), w, b)
                                          * dout).sum(), x_c)) < 1e-7
    assert rel_err(dw, fd_grad(lambda v: (K.spatial_conv_forward(x, v, b) * dout).sum(),
                               w)) < 1e-7
    assert rel_err(db, fd_grad(lambda v: (K.spatial_conv_forward(x, w, v) * dout).sum(),
                               b)) < 1e-7


def test_layer_norm_backward_fd():
    rng = np.random.default_rng(7)
    x, gain, bias = _rand(rng, 4, 5), _rand(rng, 5), _rand(rng, 5)
    dout = _rand(rng, 4, 5)

    def loss(xv, gv, bv):
        return float((K.layer_norm_forward(xv, gv, bv, 1e-5)[0] * dout).sum())

    _, xhat, inv_std = K.layer_norm_forward(x, gain, bias, 1e-5)
    dx, dgain, dbias = K.layer_norm_backward(dout, xhat, inv_std, gain)
    assert rel_err(dx, fd_grad(lambda v: loss(v, gain, bias), x)) < 1e-6
    assert rel_err(dgain, fd_grad(lambda v: loss(x, v, bias), gain)) < 1e-6
    assert rel_err(dbias, fd_grad(lambda v: loss(x, gain, v), bias)) < 1e-6


def test_prelu_backward_fd():
    rng = np.random.default_rng(5)
    x = _rand(rng, 3, 4) + 0.05  # keep clear of the kink at 0
    a = np.float64(0.25)
    dout = _rand(rng, 3, 4)

    def loss(xv, av):
        return float((K.prelu_forward(xv, av) * dout).sum())

    dx, da = K.prelu_backward(dout, x, a)
    assert da.shape == ()
    assert rel_err(dx, fd_grad(lambda v: loss(v, a), x)) < 1e-8
    assert rel_err(da, fd_grad(lambda v: loss(x, v), a)) < 1e-8


def test_prelu_matches_select():
    # the branch-free forms give np.where's values, zeros and both slopes included
    rng = np.random.default_rng(17)
    x = _f32(rng, 50, 64)
    x[::7, ::5] = 0.0
    dout = _f32(rng, 50, 64)
    for a in (np.float32(0.25), np.float32(-0.5), np.float32(0.0)):
        neg = x < 0
        npt.assert_array_equal(K.prelu_forward(x, a), np.where(neg, a * x, x))
        dx, da = K.prelu_backward(dout, x, a)
        npt.assert_array_equal(dx, np.where(neg, a, np.float32(1.0)) * dout)
        npt.assert_array_equal(da, (dout * np.where(neg, x, 0.0)).sum())
        assert dx.dtype == da.dtype == np.float32


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

    h, gates, c, tanh_c = K.lstm_forward(x, wx, wh, b, h0, c0)
    dx, dwx, dwh, db = K.lstm_backward(dh, x, wx, wh, gates, c, tanh_c, h)
    assert rel_err(dx, fd_grad(lambda v: loss(v, wx, wh, b), x)) < 1e-4
    assert rel_err(dwx, fd_grad(lambda v: loss(x, v, wh, b), wx)) < 1e-4
    assert rel_err(dwh, fd_grad(lambda v: loss(x, wx, v, b), wh)) < 1e-4
    assert rel_err(db, fd_grad(lambda v: loss(x, wx, wh, v), b)) < 1e-4


def _lstm_backward_oracle(dh_out, x, wx, wh, gates, c, tanh_c, h):
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
        tc = tanh_c[t]
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
    h, gates, c, tanh_c = K.lstm_forward(x, wx, wh, b, h0, c0)
    args = (dh, x, wx, wh, gates, c, tanh_c, h)
    got = K.lstm_backward(*args)
    # summation order differs, so entries near zero are held to rtol of the
    # output's scale rather than of themselves
    for name, g, want in zip(("dx", "dwx", "dwh", "db"), got, _lstm_backward_oracle(*args)):
        assert g.dtype == dtype and g.shape == want.shape, name
        npt.assert_allclose(g, want, rtol=rtol, atol=rtol * np.abs(want).max(), err_msg=name)


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
    h, gates, c, tanh_c = K.lstm_forward(x, wx, wh, b, h0, c0)
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
    """The per-image ``np.add.at`` loop that ``place_taps`` replaces, kept as its
    bit-exact reference: the same taps, added to each sample in image order."""
    out = np.zeros(length, np.float64)
    offsets = np.arange(-40, 41)
    for tau, a in zip(delays, amps):
        center = int(math.floor(tau + 0.5))
        n = center + offsets
        keep = (n >= 0) & (n < length)
        td = n[keep] - tau
        taps = a * np.sinc(td) * 0.5 * (1.0 + np.cos(2.0 * np.pi * td / 81.0))
        np.add.at(out, n[keep], taps)
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
    for delays, amps, length in cases:
        got = K.place_taps(delays, amps, length)
        assert got.dtype == np.float64 and got.shape == (length,)
        assert np.array_equal(got, _place_taps_loop(delays, amps, length)), (delays, length)


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
