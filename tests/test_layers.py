"""Layer math against hand oracles, through the kernels the model assembly
calls, and the seeded initialization's contracts. The kernels' gradients are
checked against finite differences in test_kernels."""

import math

import numpy as np
import numpy.testing as npt

import dllrnn.kernels as K
from dllrnn.framing import FrameSpec
from dllrnn.model import ModelConfig, build_params


def _rows(a):
    return np.asarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_hand_cases():
    out = K.linear_forward(_rows([[3.0, 1.0]]), _rows([[1.0, -1.0]]), _rows([0.5]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.5
    x = np.random.default_rng(0).standard_normal((2, 3, 4))
    npt.assert_array_equal(K.linear_forward(x.reshape(-1, 4), np.eye(4), np.zeros(4)),
                           x.reshape(-1, 4))


def test_linear_batches_leading_axes():
    # leading axes fold into rows, as the assembly passes C×T frames
    rng = np.random.default_rng(1)
    w, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    x = rng.standard_normal((2, 4, 3))
    out = K.linear_forward(x.reshape(-1, 3), w, b).reshape(2, 4, 5)
    npt.assert_allclose(out, x @ w.T + b, rtol=1e-12)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def _layer_norm(x, gain, bias):
    return K.layer_norm_forward(_rows(x), _rows(gain), _rows(bias), 1e-5)[0]


def test_layer_norm_hand_cases():
    out = _layer_norm([[1.0, 2.0, 3.0]], np.ones(3), np.zeros(3))
    npt.assert_allclose(out, [[-1.2247, 0.0, 1.2247]], atol=1e-4)
    # constant vector collapses to the bias
    out = _layer_norm(np.full((2, 3), 5.0), np.ones(3), np.full(3, 0.7))
    npt.assert_allclose(out, 0.7, atol=1e-2)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = 10.0 * rng.standard_normal((50, 8))
    out = _layer_norm(x, np.ones(8), np.zeros(8))
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# prelu
# ---------------------------------------------------------------------------

def test_prelu_values():
    slope = np.float64(0.25)
    x = np.array([-2.0, -0.5, 0.0, 3.0])
    npt.assert_array_equal(K.prelu_forward(x, slope), [-0.5, -0.125, 0.0, 3.0])
    npt.assert_array_equal(K.prelu_forward(x, np.float64(0.0)), [0.0, 0.0, 0.0, 3.0])
    pos = np.array([0.1, 5.0])
    npt.assert_array_equal(K.prelu_forward(pos, slope), pos)


# ---------------------------------------------------------------------------
# spatial convolution
# ---------------------------------------------------------------------------

def test_spatial_conv_hand_case():
    # two hidden units with weights [[1,2]] and [[3,4]] against (1,1) and (1,-1)
    w = np.zeros((2, 1, 2))
    w[0] = [[1.0, 2.0]]
    w[1] = [[3.0, 4.0]]
    x = np.zeros((2, 1, 2))
    x[:, 0, 0] = [1.0, 1.0]
    x[:, 0, 1] = [1.0, -1.0]
    out = K.spatial_conv_forward(x, w, np.zeros((1, 2)))
    assert out.shape == (1, 1, 2)
    assert out[0, 0, 0] == 3.0
    assert out[0, 0, 1] == -1.0


def test_spatial_conv_identity_and_shapes():
    f, t = 3, 4
    w = np.stack([np.eye(2)] * f)  # every hidden unit mixes with I2
    x = np.random.default_rng(6).standard_normal((2, t, f))
    npt.assert_array_equal(K.spatial_conv_forward(x, w, np.zeros((2, f))), x)
    big = build_params(ModelConfig(), dtype=np.float64)   # block 1: F=64, 9 streams, D=8
    out = K.spatial_conv_forward(np.zeros((8, 5, 64)), big["block1.conv.weight"].data,
                                 big["block1.conv.bias"].data)
    assert out.shape == (9, 5, 64)


def test_spatial_conv_linear_in_input():
    rng = np.random.default_rng(7)
    w, b = rng.standard_normal((3, 2, 4)), np.zeros((2, 3))
    x, y = rng.standard_normal((4, 2, 3)), rng.standard_normal((4, 2, 3))
    lhs = K.spatial_conv_forward(2.0 * x + 3.0 * y, w, b)
    rhs = 2.0 * K.spatial_conv_forward(x, w, b) + 3.0 * K.spatial_conv_forward(y, w, b)
    npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def _lstm(x, wx, wh, b, state=None):
    """Hidden sequence and final (h, c) of one run from ``state`` (zeros by default)."""
    f = wx.shape[1]
    h0, c0 = state if state is not None else (np.zeros(f), np.zeros(f))
    h, _, c, _ = K.lstm_forward(x, wx, wh, b, h0, c0)
    return h[1:], (h[-1], c[-1])


def test_lstm_zero_params_zero_output():
    f = 3
    x = np.random.default_rng(9).standard_normal((5, f))
    out, (h, c) = _lstm(x, np.zeros((4 * f, f)), np.zeros((4 * f, f)), np.zeros(4 * f))
    npt.assert_array_equal(out, np.zeros((5, f)))
    npt.assert_array_equal(h, np.zeros(f))
    npt.assert_array_equal(c, np.zeros(f))


def test_lstm_scalar_oracle():
    # F=1, T=1, gate order (input, forget, cell, output): evaluate by hand
    wi, wf, wg, wo = 0.5, 0.4, 0.3, 0.2
    bi, bf, bg, bo = 0.1, 0.2, 0.3, 0.4
    x0 = 1.0
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    i = sig(wi * x0 + bi)
    f = sig(wf * x0 + bf)
    g = math.tanh(wg * x0 + bg)
    o = sig(wo * x0 + bo)
    c = f * 0.0 + i * g
    h = o * math.tanh(c)
    out, (_, c_T) = _lstm(np.array([[x0]]), np.array([[wi], [wf], [wg], [wo]]),
                          np.zeros((4, 1)), np.array([bi, bf, bg, bo]))
    npt.assert_allclose(out, [[h]], rtol=1e-12)
    npt.assert_allclose(c_T, [c], rtol=1e-12)


def _random_lstm(rng, f, scale):
    return (scale * rng.standard_normal((4 * f, f)), scale * rng.standard_normal((4 * f, f)),
            0.1 * rng.standard_normal(4 * f))


def test_lstm_causality_prefix_bit_exact():
    rng = np.random.default_rng(10)
    f, t = 4, 7
    p = _random_lstm(rng, f, 0.3)
    x = rng.standard_normal((t, f))
    full, _ = _lstm(x, *p)
    for k in (1, 3, 5):
        prefix, _ = _lstm(x[:k], *p)
        npt.assert_array_equal(prefix, full[:k])


def test_lstm_state_carry_matches_full_run():
    rng = np.random.default_rng(11)
    f, t = 3, 6
    p = _random_lstm(rng, f, 0.4)
    x = rng.standard_normal((t, f))
    full, _ = _lstm(x, *p)
    first, state = _lstm(x[:2], *p)
    second, _ = _lstm(x[2:], *p, state=state)
    npt.assert_array_equal(np.concatenate([first, second]), full)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_determinism_and_bounds():
    # encoder linear 16×64 (fan_in 64 -> bound 0.125); block-1 conv over D=4 (bound 0.5)
    cfg = ModelConfig(channels=4, hidden=16, spatial=1, blocks=1,
                      frame=FrameSpec(l_in=64, l_out=16, hop=8))
    a = build_params(cfg, seed=7)
    b = build_params(cfg, seed=7)
    for name in a.names():
        npt.assert_array_equal(a[name].data, b[name].data)
    assert a["encoder.linear.weight"].shape == (16, 64)
    assert np.abs(a["encoder.linear.weight"].data).max() <= 1.0 / 8.0
    npt.assert_array_equal(a["encoder.linear.bias"].data, 0.0)
    conv = a["block1.conv.weight"].data
    assert conv.shape[-1] == 4 and conv.size >= 100
    assert np.abs(conv).max() <= 0.5


def test_init_layer_norm_prelu():
    store = build_params(ModelConfig(channels=2, hidden=5, spatial=1, blocks=2,
                                     frame=FrameSpec(l_in=8, l_out=4, hop=2)))
    for prefix in ("encoder", "block1", "block2"):
        npt.assert_array_equal(store[f"{prefix}.norm.weight"].data, np.ones(5))
        npt.assert_array_equal(store[f"{prefix}.norm.bias"].data, np.zeros(5))
        assert store[f"{prefix}.prelu"].data == np.float32(0.25)
        assert store[f"{prefix}.prelu"].shape == ()


def test_init_lstm_biases():
    f = 6
    store = build_params(ModelConfig(channels=2, hidden=f, spatial=1, blocks=2,
                                     frame=FrameSpec(l_in=8, l_out=4, hop=2)), seed=0)
    for b in (1, 2):
        bias, wx, wh = (store[f"block{b}.lstm.{n}"] for n in ("bias", "wx", "wh"))
        # zero biases except the forget-gate slice, which starts at 1.0 so the
        # gate is open from the first step
        npt.assert_array_equal(bias.data[:f], 0.0)
        npt.assert_array_equal(bias.data[f:2 * f], 1.0)
        npt.assert_array_equal(bias.data[2 * f:], 0.0)
        assert wx.shape == (4 * f, f) and wh.shape == (4 * f, f)
        assert np.abs(wx.data).max() <= 1.0 / np.sqrt(f)


def test_init_spatial_conv_shapes():
    # block 1 of a two-block model: F=8, S_out+1 = 3 streams, D = C = 5
    store = build_params(ModelConfig(channels=5, hidden=8, spatial=2, blocks=2,
                                     frame=FrameSpec(l_in=8, l_out=4, hop=2)), seed=1)
    weight, bias = store["block1.conv.weight"], store["block1.conv.bias"]
    assert weight.shape == (8, 3, 5)
    assert bias.shape == (3, 8)
    npt.assert_array_equal(bias.data, 0.0)
