"""Model assembly: block wiring, resource accounting against the published
table, full-model gradients, and streaming/batch equivalence."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

import dllrnn.kernels as K
from dllrnn.errors import ConfigError, ContractError, DimensionError
from dllrnn.framing import FrameSpec
from dllrnn.losses import pcm_loss
from dllrnn.model import (ModelConfig, ParamStore, StreamingEnhancer, _forward, build_params, count_flops, count_macs_per_frame, count_params,
                          enhance_waveform, model_forward, param_table)
from dllrnn.tensor import Tape, Tensor

TINY = ModelConfig(channels=2, hidden=2, spatial=1, blocks=2,
                   frame=FrameSpec(l_in=4, l_out=2, hop=1))

# Published resource table: (F, S, B) -> (params in M, GFLOPs per second of
# 8-channel 16 kHz audio), tolerances +-10% / +-15%.
TABLE = {
    (64, 1, 8): (0.34, 0.90),
    (64, 8, 8): (0.49, 1.25),
    (64, 8, 4): (0.22, 0.69),
    (32, 8, 8): (0.17, 0.48),
    (128, 8, 8): (1.57, 3.67),
    (256, 8, 8): (5.50, 12.06),
}


def test_config_validation_and_naming():
    cfg = ModelConfig()
    assert (cfg.channels, cfg.hidden, cfg.spatial, cfg.blocks) == (8, 64, 8, 8)
    assert cfg.name == "D-LL-RNN-64-8-8"
    assert cfg.block_in_width(1) == 8
    assert cfg.block_in_width(3) == 8 + 2 * 8
    assert cfg.block_out_width(7) == 8
    assert cfg.block_out_width(8) == 1
    with pytest.raises(ConfigError):
        ModelConfig(channels=0)
    with pytest.raises(ConfigError):
        ModelConfig(blocks=-1)


def test_param_store_contracts():
    store = ParamStore()
    t = store.add("a", Tensor(np.zeros(3), requires_grad=True))
    assert store["a"] is t
    with pytest.raises(ContractError):
        store.add("a", Tensor(np.zeros(3)))
    store.add("b", Tensor(np.zeros((2, 2))))
    assert store.names() == ["a", "b"]
    assert sum(t.size for t in store.tensors()) == 7
    with pytest.raises(ContractError):
        store.load_arrays({"a": np.zeros(3)})  # "b" missing
    with pytest.raises(DimensionError):
        store.load_arrays({"a": np.zeros(4), "b": np.zeros((2, 2))})
    with pytest.raises(ContractError):
        store.load_arrays({"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(1)})


def test_build_params_matches_count_params():
    for cfg in (TINY,
                ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                            frame=FrameSpec(l_in=32, l_out=8, hop=4)),
                ModelConfig(channels=8, hidden=64, spatial=8, blocks=8),
                ModelConfig(channels=3, hidden=16, spatial=1, blocks=1,
                            frame=FrameSpec(l_in=16, l_out=4, hop=2))):
        store = build_params(cfg, seed=0)
        assert sum(t.size for t in store.tensors()) == count_params(cfg)
        assert [(n, s) for n, s, _ in param_table(cfg)] == [
            (name, t.shape) for name, t in store.items()]
    # the table holds no arrays, so counting a huge model allocates nothing
    assert count_params(ModelConfig(hidden=2**30)) > 2**60


def test_build_params_deterministic():
    a = build_params(TINY, seed=5)
    b = build_params(TINY, seed=5)
    c = build_params(TINY, seed=6)
    for name in a.names():
        npt.assert_array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[name].data, c[name].data) for name in a.names())


def test_build_params_seed0_digest():
    # sha256 over (name, bytes) in store order pins names, order, shapes,
    # dtypes and every drawn value of the default model's parameters
    want = {np.float32: "ee5f585f81dab2bb0ea1669ad25062f36c1db274f5d4b41626fe9224b4c94a38",
            np.float64: "0b13ed5ee335943b197d6d67fe60a43d451fb423a61b73538d309b4514288641"}
    for dtype, digest in want.items():
        h = hashlib.sha256()
        for name, tensor in build_params(ModelConfig(), seed=0, dtype=dtype).items():
            h.update(name.encode())
            h.update(tensor.data.tobytes())
        assert h.hexdigest() == digest


def test_count_params_tiny_hand_enumeration():
    # C=2, F=2, S=1, B=2, L_i=4, L_o=2 — every layer's shapes enumerated by hand:
    #   encoder: linear 2x4+2 = 10, norm 2+2 = 4, prelu 1          -> 15
    #   block1 (D=2, streams 2): conv 2*2*2+2*2 = 12, norm+prelu 5,
    #           lstm 2*(4*2*2)+4*2 = 40, linear 2*2+2 = 6          -> 63
    #   block2 (D=3, streams 2): conv 2*2*3+2*2 = 16, 5, 40, 6     -> 67
    #   decoder: 2*2+2                                             -> 6
    assert count_params(TINY) == 15 + 63 + 67 + 6 == 151
    assert sum(t.size for t in build_params(TINY, seed=0).tensors()) == 151


def test_count_macs_tiny_hand_enumeration():
    # encoder 2*2*4=16; block1 conv 2*2*2=8, lstm 8*4=32, linear 4;
    # block2 conv 2*2*3=12, lstm 32, linear 4; decoder 2*2=4
    assert count_macs_per_frame(TINY) == 16 + 8 + 32 + 4 + 12 + 32 + 4 + 4 == 112
    assert count_flops(TINY) == 2.0 * 112 * 16000.0


def test_table_parameter_reproduction():
    for (f, s, b), (params_m, _) in TABLE.items():
        got = count_params(ModelConfig(channels=8, hidden=f, spatial=s, blocks=b)) / 1e6
        assert abs(got - params_m) / params_m <= 0.10, (f, s, b, got)


def test_table_flop_reproduction():
    for (f, s, b), (_, gflops) in TABLE.items():
        got = count_flops(ModelConfig(channels=8, hidden=f, spatial=s, blocks=b)) / 1e9
        assert abs(got - gflops) / gflops <= 0.15, (f, s, b, got)


def test_count_params_monotone_and_published_delta():
    base = ModelConfig(channels=8, hidden=64, spatial=1, blocks=8)
    wide = ModelConfig(channels=8, hidden=64, spatial=8, blocks=8)
    for s in range(1, 8):
        assert (count_params(ModelConfig(channels=8, hidden=64, spatial=s + 1, blocks=8))
                > count_params(ModelConfig(channels=8, hidden=64, spatial=s, blocks=8)))
    for f in (32, 64, 128):
        assert (count_params(ModelConfig(channels=8, hidden=2 * f, spatial=8, blocks=8))
                > count_params(ModelConfig(channels=8, hidden=f, spatial=8, blocks=8)))
    # widening S from 1 to 8 adds 0.15M parameters, +-30%
    delta = (count_params(wide) - count_params(base)) / 1e6
    assert 0.7 * 0.15 <= delta <= 1.3 * 0.15


def _run_forward(cfg, store, frames):
    """_forward from zero LSTM states with caches; returns (output, caches)."""
    zeros = np.zeros(cfg.hidden, frames.dtype)
    caches = []
    params = [t.data for t in store.tensors()]
    out = _forward(cfg, params, frames, [(zeros, zeros)] * cfg.blocks, caches)
    return out, caches


def test_st_block_shapes_at_defaults():
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    frames = np.random.default_rng(0).standard_normal((8, 3, 256)).astype(np.float32)
    out, caches = _run_forward(cfg, store, frames)
    assert out.shape == (3, 32)
    dense = caches[-1]
    assert dense.shape == (cfg.block_in_width(8) + 1, 3, 64)
    for b in range(1, 9):
        mixed = caches[b][3]  # S_out + 1 streams after conv, norm and PReLU
        assert mixed.shape == (cfg.block_out_width(b) + 1, 3, 64)
    # block 1 writes its 8 gated streams after the 8 encoder rows; block 8
    # writes its single stream, the decoder's input, to the last row
    for b, rows in ((1, slice(8, 16)), (8, slice(cfg.block_in_width(8), None))):
        mixed, gate = caches[b][3], caches[b][5]
        npt.assert_array_equal(dense[rows], mixed[1:] * gate)
    with pytest.raises(DimensionError):
        StreamingEnhancer(cfg, store).push(np.zeros((5, cfg.frame.hop), np.float32))


def test_block_tensors_keep_the_stream_axis_innermost(monkeypatch):
    # The dense stack, each block's tensors and their gradients are stored
    # with the stream axis at unit stride, on the training path and in a push;
    # a strided fallback would still compute the same numbers, only slower.
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    item = np.dtype(np.float32).itemsize
    frames = np.random.default_rng(0).standard_normal((8, 3, 256)).astype(np.float32)
    _, caches = _run_forward(cfg, store, frames)
    assert caches[-1].strides[0] == item
    for b in range(1, 9):
        y, xhat, _, mixed, _, _ = caches[b]
        # layer norm and PReLU ran on T·O rows of F whose row axis is the stream axis
        assert mixed.strides[0] == y.strides[0] == xhat.strides[0] == item
    strides = {"spatial_conv_forward": [], "spatial_conv_backward": []}

    def recording(name, kernel):
        def wrapper(*args):
            out = kernel(*args)
            # forward: x; backward: dout, x and the returned dx
            arrays = args[:1] if name == "spatial_conv_forward" else (*args[:2], out[0])
            strides[name] += [a.strides[0] for a in arrays]
            return out
        return wrapper

    for name in strides:
        monkeypatch.setattr(K, name, recording(name, getattr(K, name)))
    y = np.random.default_rng(1).standard_normal((8, 400)).astype(np.float32)
    with Tape() as tape:
        tape.backward(pcm_loss(model_forward(y, cfg, store), y[0], y[0]))
    assert strides["spatial_conv_backward"] == [item] * 3 * cfg.blocks
    assert strides["spatial_conv_forward"] == [item] * cfg.blocks
    enhance_waveform(y[:, :64], cfg, store, scale=1.0)  # T=1 forwards, one per push
    assert len(strides["spatial_conv_forward"]) > cfg.blocks
    assert set(strides["spatial_conv_forward"]) == {item}


def _force_gate(store, b, weight_value, bias_value):
    """Zero block b's LSTM and pin its post-LSTM linear to a constant."""
    for name in ("lstm.wx", "lstm.wh", "lstm.bias"):
        store[f"block{b}.{name}"].data[...] = 0.0
    store[f"block{b}.linear.weight"].data[...] = weight_value
    store[f"block{b}.linear.bias"].data[...] = bias_value


def test_st_block_forced_gate_identity_and_annihilator():
    cfg = ModelConfig(channels=3, hidden=4, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=8, l_out=4, hop=2))
    frames = np.random.default_rng(1).standard_normal((3, 5, 8)).astype(np.float32)
    lo, hi = cfg.block_in_width(1), cfg.block_in_width(2)

    store = build_params(cfg, seed=0)
    _force_gate(store, 1, 0.0, 1.0)  # gate branch emits ones
    _, caches = _run_forward(cfg, store, frames)
    dense = caches[-1]
    conv = K.spatial_conv_forward(dense[:lo], store["block1.conv.weight"].data,
                                  store["block1.conv.bias"].data)
    normed = K.layer_norm_forward(np.ascontiguousarray(conv.reshape(-1, cfg.hidden)),
                                  store["block1.norm.weight"].data,
                                  store["block1.norm.bias"].data, np.float32(1e-5))[0]
    mixed = K.prelu_forward(normed.reshape(conv.shape), store["block1.prelu"].data)
    npt.assert_array_equal(dense[lo:hi], mixed[1:])

    store = build_params(cfg, seed=0)
    _force_gate(store, 1, 0.0, 0.0)  # gate branch emits zeros
    _, caches = _run_forward(cfg, store, frames)
    npt.assert_array_equal(caches[-1][lo:hi], np.zeros((hi - lo, 5, cfg.hidden)))


def test_model_forward_shapes_and_errors():
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(2).standard_normal((8, 16000)).astype(np.float32)
    out = model_forward(y, cfg, store)
    assert out.shape == (1, 16000)
    assert np.isfinite(out.data).all()
    with pytest.raises(DimensionError):
        model_forward(y[:5], cfg, store)


def test_model_forward_finite_over_100_seeds():
    cfg = ModelConfig(channels=2, hidden=4, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=16, l_out=4, hop=2))
    store = build_params(cfg, seed=0)
    for seed in range(100):
        y = np.random.default_rng(seed).standard_normal((2, 200)).astype(np.float32)
        out = model_forward(y, cfg, store)
        assert np.isfinite(out.data).all(), seed


def test_model_forward_output_at_input_level():
    # the normalization scale is inverted on the way out: scaling the input
    # by a power of two scales the output by the same factor exactly
    cfg = TINY
    store = build_params(cfg, seed=3)
    y = np.random.default_rng(3).standard_normal((2, 300)).astype(np.float32)
    a = model_forward(y, cfg, store).data
    b = model_forward(4.0 * y, cfg, store).data
    npt.assert_allclose(b, 4.0 * a, rtol=1e-5)


GRAD_CHECK_CONFIGS = (
    ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                frame=FrameSpec(l_in=32, l_out=8, hop=4)),
    # block 1's output feeds block 2, which is not the final block
    ModelConfig(channels=2, hidden=8, spatial=3, blocks=3,
                frame=FrameSpec(l_in=32, l_out=8, hop=4)),
)


def full_model_grad_check(n_params=50, seed=0):
    """Max relative FD error over the parameters of the full pipeline.

    Double precision, tiny configs, spectral loss against a synthetic target —
    the end-to-end version of the per-kernel gradient checks. For each config,
    one element of every parameter is checked, then ``n_params`` more drawn at
    random, so every gradient the network's backward returns is checked.
    """
    return max(_grad_check(cfg, n_params, seed) for cfg in GRAD_CHECK_CONFIGS)


def _grad_check(cfg, n_params, seed):
    store = build_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = 256
    y = rng.standard_normal((2, n))
    target = rng.standard_normal(n) * 0.5

    def loss_value():
        return pcm_loss(model_forward(y, cfg, store), target, y[0]).item()

    store.zero_grad()
    with Tape() as tape:
        tape.backward(pcm_loss(model_forward(y, cfg, store), target, y[0]))

    names = store.names()
    draws = names + [names[int(rng.integers(len(names)))] for _ in range(n_params)]
    worst = 0.0
    eps = 1e-5
    for name in draws:
        tensor = store[name]
        flat = tensor.data.reshape(-1)
        i = int(rng.integers(flat.size))
        keep = flat[i]
        flat[i] = keep + eps
        up = loss_value()
        flat[i] = keep - eps
        down = loss_value()
        flat[i] = keep
        fd = (up - down) / (2.0 * eps)
        got = tensor.grad.reshape(-1)[i]
        denom = max(abs(fd) + abs(got), 1e-8)
        worst = max(worst, abs(fd - got) / denom)
    return worst


def test_full_model_gradients_match_fd():
    assert full_model_grad_check() < 1e-4


def test_model_forward_is_one_tape_op():
    # the network, its overlap-add and the rescale are one recorded op
    cfg = ModelConfig(channels=2, hidden=8, spatial=3, blocks=3,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(8).standard_normal((2, 100)).astype(np.float32)
    with Tape() as tape:
        model_forward(y, cfg, store)
    assert len(tape) == 1


def test_pcm_loss_is_one_tape_op():
    # the STFTs, both spectral L1 terms and their sum are one recorded op
    rng = np.random.default_rng(9)
    x_hat, x, y = (rng.standard_normal(1000).astype(np.float32) for _ in range(3))
    with Tape() as tape:
        pcm_loss(Tensor(x_hat, requires_grad=True), x, y)
    assert len(tape) == 1


def _check_streaming_matches_batch(cfg):
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(4).standard_normal((cfg.channels, 400)).astype(np.float32)
    batch = model_forward(y, cfg, store, scale=1.0).data
    npt.assert_array_equal(enhance_waveform(y, cfg, store, scale=1.0), batch)


def test_streaming_matches_batch():
    _check_streaming_matches_batch(ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                                               frame=FrameSpec(l_in=32, l_out=8, hop=4)))


@pytest.mark.parametrize("cfg", [
    # no block reads an earlier block's output
    ModelConfig(channels=2, hidden=8, spatial=2, blocks=1,
                frame=FrameSpec(l_in=32, l_out=8, hop=4)),
    # a single encoder row under the block outputs
    ModelConfig(channels=1, hidden=8, spatial=2, blocks=3,
                frame=FrameSpec(l_in=32, l_out=8, hop=4)),
    # block outputs wider than the encoder's rows
    ModelConfig(channels=2, hidden=8, spatial=3, blocks=3,
                frame=FrameSpec(l_in=32, l_out=8, hop=4)),
], ids=lambda cfg: f"C{cfg.channels}-S{cfg.spatial}-B{cfg.blocks}")
def test_streaming_matches_batch_at_dense_stack_edges(cfg):
    _check_streaming_matches_batch(cfg)


def _stream(session, y, hop):
    pieces = [session.push(y[:, k:k + hop]) for k in range(0, y.shape[1], hop)]
    return np.concatenate([p for p in pieces if p is not None], axis=1)


def test_streaming_session_sees_later_load_arrays():
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    y = np.random.default_rng(6).standard_normal((2, 200)).astype(np.float32)
    trained = build_params(cfg, seed=1)
    store = build_params(cfg, seed=0)
    session = StreamingEnhancer(cfg, store)
    store.load_arrays({name: t.data for name, t in trained.items()})
    npt.assert_array_equal(_stream(session, y, cfg.frame.hop),
                           _stream(StreamingEnhancer(cfg, trained), y, cfg.frame.hop))


def test_streaming_push_runs_through_the_kernel_module(monkeypatch):
    # One primed 64-8-8 push: every forward kernel is reached through the
    # dllrnn.kernels attributes, and the products it computes, counted from
    # the call shapes, are exactly the model's per-frame MACs.
    cfg = ModelConfig()
    macs_of = {
        "linear_forward": lambda x, w, *_: x.shape[0] * w.size,
        "spatial_conv_forward": lambda x, w, *_: x.shape[1] * w.size,
        "layer_norm_forward": lambda *_: 0,
        "lstm_forward": lambda x, wx, wh, *_: x.shape[0] * (wx.size + wh.size),
    }
    calls = dict.fromkeys(macs_of, 0)
    macs = [0]

    def counting(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            macs[0] += macs_of[name](*args)
            return kernel(*args)
        return wrapper

    session = StreamingEnhancer(cfg, build_params(cfg, seed=0))
    block = np.random.default_rng(7).standard_normal((8, cfg.frame.hop)).astype(np.float32)
    for _ in range(cfg.frame.l_out // cfg.frame.hop - 1):
        assert session.push(block) is None
    for name in macs_of:
        monkeypatch.setattr(K, name, counting(name, getattr(K, name)))
    assert session.push(block).shape == (1, cfg.frame.hop)
    assert calls == {"linear_forward": 10, "spatial_conv_forward": 8,
                     "layer_norm_forward": 9, "lstm_forward": 8}
    assert macs[0] == count_macs_per_frame(cfg) == 565_248


def test_streaming_matches_batch_with_normalization():
    cfg = TINY
    store = build_params(cfg, seed=1)
    y = np.random.default_rng(5).standard_normal((2, 250)).astype(np.float32)
    batch = model_forward(y, cfg, store).data  # scale drawn internally
    npt.assert_array_equal(enhance_waveform(y, cfg, store), batch)


def test_streaming_session_priming_and_validation():
    cfg = ModelConfig(channels=2, hidden=4, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=16, l_out=4, hop=2))
    session = StreamingEnhancer(cfg, build_params(cfg, seed=0))
    ratio = cfg.frame.l_out // cfg.frame.hop
    block = np.zeros((2, cfg.frame.hop), np.float32)
    for _ in range(ratio - 1):
        assert session.push(block) is None  # priming pushes emit nothing
    out = session.push(block)
    assert out.shape == (1, cfg.frame.hop)
    with pytest.raises(DimensionError):
        session.push(np.zeros((2, 3), np.float32))
    with pytest.raises(DimensionError):
        session.push(np.zeros((3, cfg.frame.hop), np.float32))


def test_dense_widths_consistent():
    cfg = ModelConfig(channels=5, hidden=4, spatial=3, blocks=4,
                      frame=FrameSpec(l_in=8, l_out=4, hop=2))
    store = build_params(cfg, seed=0)
    block = ("conv.weight", "conv.bias", "norm.weight", "norm.bias", "prelu",
             "lstm.wx", "lstm.wh", "lstm.bias", "linear.weight", "linear.bias")
    assert store.names() == (
        ["encoder.linear.weight", "encoder.linear.bias", "encoder.norm.weight",
         "encoder.norm.bias", "encoder.prelu"]
        + [f"block{b}.{name}" for b in range(1, cfg.blocks + 1) for name in block]
        + ["decoder.linear.weight", "decoder.linear.bias"])
    for b in range(1, cfg.blocks + 1):
        n_hidden, s_out, s_in = store[f"block{b}.conv.weight"].shape
        assert n_hidden == cfg.hidden
        assert s_in == cfg.block_in_width(b) == 5 + (b - 1) * 3
        assert s_out == cfg.block_out_width(b) + 1
