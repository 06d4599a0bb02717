"""Model assembly: block wiring, resource accounting against the published
table, full-model gradients, and streaming/batch equivalence."""

import cProfile
import hashlib
import pstats
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import dllrnn.kernels as K
from dllrnn.errors import ConfigError, ContractError, DegenerateInputError, DimensionError
from dllrnn.framing import FrameSpec, frame_signal
from dllrnn.losses import pcm_loss
from dllrnn.model import (_BLOCK_HOPS, ModelConfig, ParamStore, StreamingEnhancer, _backward,
                          _forward, _streams, build_params, count_flops, count_macs_per_frame,
                          count_params, enhance_waveform, model_forward, param_table)
from dllrnn.tensor import Tape, Tensor
from dllrnn.train import OptState, adam_step

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
    assert cfg.block_widths[0] == (8, 8)
    assert cfg.block_widths[2] == (8 + 2 * 8, 8)
    assert cfg.block_widths[6] == (8 + 6 * 8, 8)
    assert cfg.block_widths[7] == (8 + 7 * 8, 1)
    assert len(cfg.block_widths) == 8
    with pytest.raises(ConfigError):
        ModelConfig(channels=0)
    with pytest.raises(ConfigError):
        ModelConfig(blocks=-1)


def test_param_store_contracts():
    store = ParamStore([("a", np.zeros(3)), ("b", np.zeros((2, 2)))])
    t = store["a"]
    assert store["a"] is t and t.requires_grad
    with pytest.raises(ContractError, match="duplicate parameter name 'a'"):
        ParamStore([("a", np.zeros(3)), ("a", np.zeros(3))])
    assert store.names() == ["a", "b"]
    assert sum(t.size for t in store.tensors()) == 7
    with pytest.raises(ContractError):
        store.load_arrays({"a": np.zeros(3)})  # "b" missing
    with pytest.raises(DimensionError):
        store.load_arrays({"a": np.zeros(4), "b": np.zeros((2, 2))})
    with pytest.raises(ContractError):
        store.load_arrays({"a": np.zeros(3), "b": np.zeros((2, 2)), "c": np.zeros(1)})


def test_param_store_is_views_of_two_flat_buffers():
    store = build_params(TINY, seed=0)
    assert store.data.shape == store.grad.shape == (count_params(TINY),)
    for name, tensor in store.items():
        assert np.shares_memory(tensor.data, store.data), name
        assert np.shares_memory(tensor.grad, store.grad), name
        assert tensor.grad.shape == tensor.shape and not tensor.grad.any()
    views = store.views(np.arange(store.data.size, dtype=np.float32))
    assert [(n, v.shape) for n, v in views.items()] == [(n, t.shape) for n, t in store.items()]
    assert np.concatenate([v.reshape(-1) for v in views.values()]).tolist() == list(
        range(store.data.size))
    with pytest.raises(ContractError, match="one float dtype"):
        ParamStore([("a", np.zeros(3, np.float32)), ("b", np.zeros(2))])
    with pytest.raises(ContractError, match="one float dtype"):
        ParamStore([("a", np.arange(3))])


def test_rejected_load_arrays_leaves_the_store_unchanged():
    store = build_params(TINY, seed=0)

    def snapshot():
        return b"".join(t.data.tobytes() for t in store.tensors())

    kept = snapshot()
    good = {name: t.data + 1 for name, t in store.items()}
    last = store.names()[-1]
    for bad, error in (({**good, last: np.zeros(7)}, DimensionError),
                       ({**good, "extra": np.zeros(1)}, ContractError),
                       ({n: a for n, a in good.items() if n != last}, ContractError)):
        with pytest.raises(error):
            store.load_arrays(bad)
        assert snapshot() == kept
    store.load_arrays(good)
    for name, tensor in store.items():
        npt.assert_array_equal(tensor.data, good[name])


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
    caches = []
    params = [t.data for t in store.tensors()]
    out = _forward(cfg, params, frames, np.zeros((cfg.blocks, 2, cfg.hidden), frames.dtype), caches)
    return out, caches


def _rebuilt_mixed(cfg, store, caches, b):
    """Block b's S_out + 1 streams after conv, norm and PReLU, rebuilt from
    its cached ``xhat`` with the forward's expressions, as the backward does."""
    rows = K.layer_norm_output(caches[b][0], *(store[f"block{b}.{name}"].data
                                               for name in ("norm.weight", "norm.bias", "prelu")))
    return _streams(rows, cfg.block_widths[b - 1][1] + 1)


def test_st_block_shapes_at_defaults():
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    frames = np.random.default_rng(0).standard_normal((8, 3, 256)).astype(np.float32)
    out, caches = _run_forward(cfg, store, frames)
    assert out.shape == (3, 32)
    dense = caches[-1]
    assert dense.shape == (cfg.block_widths[7][0] + 1, 3, 64)
    zeros = np.zeros(cfg.hidden, np.float32)
    for b in range(1, 9):
        xhat, inv_std, (h, gates, cell), gate = caches[b]
        n_streams = cfg.block_widths[b - 1][1] + 1
        assert xhat.shape == (3 * n_streams, 64) and inv_std.shape == (3 * n_streams,)
        assert h.shape == cell.shape == (4, 64) and gate.shape == (3, 64)
        assert gates.shape == (3, 4 * 64)
        mixed = _rebuilt_mixed(cfg, store, caches, b)
        assert mixed.shape == (n_streams, 3, 64)
        # the rebuilt temporal stream is the LSTM input the forward used
        params = [store[f"block{b}.lstm.{name}"].data for name in ("wx", "wh", "bias")]
        for got, want in zip(K.lstm_forward(np.ascontiguousarray(mixed[0]), *params, zeros, zeros),
                             (h, gates, cell)):
            npt.assert_array_equal(got, want)
    # block 1 writes its 8 gated streams after the 8 encoder rows; block 8
    # writes its single stream, the decoder's input, to the last row; the
    # rebuilt streams give the forward's stack rows bit for bit
    for b, rows in ((1, slice(8, 16)), (8, slice(cfg.block_widths[7][0], None))):
        gate = caches[b][3]
        npt.assert_array_equal(dense[rows], _rebuilt_mixed(cfg, store, caches, b)[1:] * gate)
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
        # layer norm and PReLU ran on T·O rows of F whose row axis is the
        # stream axis; what the backward rebuilds keeps that order
        assert caches[b][0].strides[0] == _rebuilt_mixed(cfg, store, caches, b).strides[0] == item
    strides = {"spatial_conv_forward": [], "spatial_conv_backward": [],
               "spatial_conv_input_grad": [], "layer_norm_backward": []}

    def recording(name, kernel):
        def wrapper(*args, **kwargs):
            out = kernel(*args, **kwargs)
            # forward: x; backward: dout and x; input gradient: each reading
            # block's dout and the gathered rows; layer norm backward: dout
            # and the cached xhat
            if name == "spatial_conv_input_grad":
                arrays = [dout for dout, _ in args[0]] + [out]
            else:
                arrays = args[:1] if name == "spatial_conv_forward" else args[:2]
            strides[name] += [a.strides[0] for a in arrays]
            return out
        return wrapper

    for name in strides:
        monkeypatch.setattr(K, name, recording(name, getattr(K, name)))
    y = np.random.default_rng(1).standard_normal((8, 400)).astype(np.float32)
    with Tape() as tape:
        tape.backward(pcm_loss(model_forward(y, cfg, store), y[0], y[0]))
    assert strides["spatial_conv_backward"] == [item] * 2 * cfg.blocks
    # one call per block but the last, reading every later block's dout, and
    # one for the encoder rows, reading all of them
    n_reads = cfg.blocks * (cfg.blocks - 1) // 2 + cfg.blocks
    assert strides["spatial_conv_input_grad"] == [item] * (n_reads + cfg.blocks)
    assert strides["spatial_conv_forward"] == [item] * cfg.blocks
    # the blocks' layer norm backwards run first; the encoder's rows are not stream rows
    assert strides["layer_norm_backward"][:2 * cfg.blocks] == [item] * 2 * cfg.blocks
    session = StreamingEnhancer(cfg, store)
    for k in range(0, 64, cfg.frame.hop):
        session.push(y[:, k:k + cfg.frame.hop])  # T=1 forwards, one per primed push
    assert len(strides["spatial_conv_forward"]) > cfg.blocks
    assert set(strides["spatial_conv_forward"]) == {item}


def _cached_arrays(caches):
    out = []
    for entry in caches:
        out += _cached_arrays(entry) if isinstance(entry, tuple) else [entry]
    return out


def _training_example_peak(cfg, store, n):
    """Traced peak of one n-sample example's model_forward -> pcm_loss -> backward."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((cfg.channels, n)).astype(np.float32)
    x = rng.standard_normal(n).astype(np.float32)

    def example():
        with Tape() as tape:
            tape.backward(pcm_loss(model_forward(y, cfg, store), x, y[0]))

    example()  # builds the loss's cached STFT basis outside the measurement
    store.zero_grad()
    tracemalloc.start()
    try:
        example()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_example_memory():
    # A training example keeps one tensor per layer, not the layer norm's
    # output, the PReLU's streams or the 16x-redundant encoder input frames;
    # its forward, loss and backward together stay under 14 MiB at 0.25 s.
    # 13.7 MiB are measured (14.3 when the block backward held the rebuilt
    # layer-norm output through the LSTM backward and the PReLU backward had
    # a scratch of its own, 18.6 with a whole-stack gradient buffer and a
    # cached tanh(c) per block, 20.9 before layer norm and PReLU wrote in
    # place and the frames were freed after the encoder, 38.0 when every
    # block also kept `y` and `mixed`).
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    n, t_len, f = 4000, cfg.frame.n_frames(4000), cfg.hidden
    _, caches = _run_forward(cfg, store, np.zeros((8, t_len, cfg.frame.l_in), np.float32))
    want = [(8 * t_len, f), (8 * t_len,)]
    for b in range(1, cfg.blocks + 1):
        rows = (cfg.block_widths[b - 1][1] + 1) * t_len
        want += [(rows, f), (rows,), (t_len + 1, f), (t_len, 4 * f), (t_len + 1, f), (t_len, f)]
    want.append((cfg.block_widths[-1][0] + 1, t_len, f))
    assert [a.shape for a in _cached_arrays(caches)] == want
    peak = _training_example_peak(cfg, store, n)
    assert peak <= 14 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_training_backward_holds_no_stack_gradient():
    # One 1 s example of 8-channel 64-8-8 input. The sweep keeps each
    # finished block's conv-output gradient and gathers a block's output
    # gradient when it reads it, so no gradient of the whole 16.6 MB stack
    # is alive while every block's cache still is, and the LSTM caches no
    # T×F tanh(c), nor the rebuilt layer-norm output through the LSTM
    # backward. 54.2 MiB are measured; 56.4 when the block held that output
    # and the PReLU backward had a scratch of its own, 73.6 with the zeroed
    # stack gradient and the cached tanh(c).
    cfg = ModelConfig()
    peak = _training_example_peak(cfg, build_params(cfg, seed=0), 16000)
    assert peak <= 55 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


def test_inference_forward_holds_one_block_working_set():
    # model_forward with no tape, 8-channel 64-8-8 input: the peak is one
    # 1 s span's dense stack (15.9 MiB) plus one block's buffers (its conv
    # output, rectified in place, its normalized rows, and the LSTM's
    # arrays) and the input's copies. At 2 s 22.9 MiB are measured; 42.9
    # when the whole utterance went through one call and its 31.7 MiB stack,
    # 42.8 when the PReLU was a kernel of its own, 93.0 when the input
    # frames lived through every block and each layer norm and PReLU
    # allocated its output and temporaries.
    # From 2 s to 10 s only the whole-input copies grow: the scaled input
    # and its padded copy (C float32 per sample each) and the decoder frames
    # (l_out/hop float32 per sample), 72 bytes per sample here. 8.8 MiB are
    # measured; +171.2 MiB (42.9 -> 214.1) with the one whole-utterance call.
    cfg = ModelConfig()
    store = build_params(cfg, seed=0)
    peaks = []
    for seconds in (2, 10):
        y = np.random.default_rng(0).standard_normal((8, 16000 * seconds)).astype(np.float32)
        model_forward(y, cfg, store)
        tracemalloc.start()
        try:
            model_forward(y, cfg, store)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 25 * 2 ** 20, f"{peaks[0] / 2 ** 20:.1f} MiB"
    per_sample = (2 * cfg.channels + cfg.frame.l_out // cfg.frame.hop) * 4
    growth = peaks[1] - peaks[0]
    assert growth <= 1.1 * per_sample * 16000 * 8, f"{growth / 2 ** 20:.1f} MiB"


def test_forward_and_backward_write_no_array_they_still_read():
    # The layer norm kernels write over buffers they are handed; none of them
    # may be the input frames, the dense stack or a cached activation, which
    # the backward reads after the forward is done.
    cfg = ModelConfig(channels=2, hidden=8, spatial=3, blocks=3,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=2)
    params = [t.data for t in store.tensors()]
    rng = np.random.default_rng(9)
    signal = rng.standard_normal((2, 203)).astype(np.float32)
    frames = frame_signal(signal, cfg.frame)
    frames_before = frames.copy()
    caches = []
    out = _forward(cfg, params, frames, np.zeros((cfg.blocks, 2, cfg.hidden), np.float32), caches)
    kept = _cached_arrays(caches)
    before = [a.copy() for a in kept]
    grads = _backward(cfg, params, caches, rng.standard_normal(out.shape).astype(np.float32),
                      signal)
    assert caches == [] and all(g.shape == p.shape for g, p in zip(grads, params))
    for a, b in zip(kept, before):
        assert a.tobytes() == b.tobytes()
    assert frames.tobytes() == frames_before.tobytes()


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
    lo, hi = cfg.block_widths[0][0], cfg.block_widths[1][0]

    store = build_params(cfg, seed=0)
    _force_gate(store, 1, 0.0, 1.0)  # gate branch emits ones
    _, caches = _run_forward(cfg, store, frames)
    dense = caches[-1]
    conv = K.spatial_conv_forward(dense[:lo], store["block1.conv.weight"].data,
                                  store["block1.conv.bias"].data)
    mixed = K.layer_norm_forward(np.ascontiguousarray(conv.reshape(-1, cfg.hidden)),
                                 *(store[f"block1.{name}"].data
                                   for name in ("norm.weight", "norm.bias", "prelu")),
                                 np.float32(1e-5))[0].reshape(conv.shape)
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


def test_model_forward_backward_runs_once():
    # the sweep frees the forward's activations, so a second one is refused
    cfg = ModelConfig(channels=2, hidden=8, spatial=3, blocks=3,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(8).standard_normal((2, 100)).astype(np.float32)
    with Tape() as tape:
        loss = pcm_loss(model_forward(y, cfg, store), y[0], y[0])
    tape.backward(loss)
    with pytest.raises(ContractError, match="new tape"):
        tape.backward(loss)


def test_pcm_loss_is_one_tape_op():
    # the STFTs, both spectral L1 terms and their sum are one recorded op
    rng = np.random.default_rng(9)
    x_hat, x, y = (rng.standard_normal(1000).astype(np.float32) for _ in range(3))
    with Tape() as tape:
        pcm_loss(Tensor(x_hat, requires_grad=True), x, y)
    assert len(tape) == 1


def _stream(session, y, hops):
    """Push y through ``session``, zero-padded as enhance_waveform pads it,
    taking ``hops[0]``, ``hops[1]``, ... hops per push in turn; returns the
    emitted samples, cut to y's length."""
    spec, n = session.config.frame, y.shape[1]
    total = (spec.n_frames(n) + spec.l_out // spec.hop - 1) * spec.hop
    padded = np.pad(y, ((0, 0), (0, total - n)))
    pieces, start = [], 0
    while start < total:
        width = hops[len(pieces) % len(hops)] * spec.hop
        pieces.append(session.push(padded[:, start:start + width]))
        start += width
    return np.concatenate([p for p in pieces if p is not None], axis=1)[:, :n]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_streaming_matches_batch(cfg):
    # One hop per push, uneven whole-hop pushes and enhance_waveform's
    # blocks all give model_forward's bytes; the longest input spans two of
    # enhance_waveform's blocks.
    store = build_params(cfg, seed=0)
    rng = np.random.default_rng(4)
    for n in (1, 57, 400, _BLOCK_HOPS * cfg.frame.hop + 37):
        y = rng.standard_normal((cfg.channels, n)).astype(np.float32)
        batch = model_forward(y, cfg, store, scale=1.0).data
        for hops in ((1,), (1, 3, 7, 250)):
            _assert_same_bytes(_stream(StreamingEnhancer(cfg, store), y, hops), batch)
        _assert_same_bytes(enhance_waveform(y, cfg, store, scale=1.0), batch)


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
    # four windows cover each output sample; l_in is not a multiple of hop
    pytest.param(ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                             frame=FrameSpec(l_in=30, l_out=16, hop=4)), id="overlap4"),
    # one window per output sample: no overlap to carry
    pytest.param(ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                             frame=FrameSpec(l_in=32, l_out=8, hop=8)), id="overlap1"),
], ids=lambda cfg: f"C{cfg.channels}-S{cfg.spatial}-B{cfg.blocks}")
def test_streaming_matches_batch_at_dense_stack_edges(cfg):
    _check_streaming_matches_batch(cfg)


def test_untaped_forward_streams_spans_with_the_taped_bytes():
    # With no tape model_forward runs its frames in spans of _BLOCK_HOPS,
    # carrying the LSTM states between them; under a tape it runs the whole
    # utterance in one call. Both give the same bytes on either side of a
    # span's edge and with a partial last span.
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    rng = np.random.default_rng(8)
    for t_len in (1, _BLOCK_HOPS - 1, _BLOCK_HOPS, _BLOCK_HOPS + 1, 2 * _BLOCK_HOPS + 7):
        y = rng.standard_normal((cfg.channels, t_len * cfg.frame.hop)).astype(np.float32)
        with Tape():
            taped = model_forward(y, cfg, store).data
        _assert_same_bytes(model_forward(y, cfg, store).data, taped)


def test_streaming_session_sees_later_load_arrays():
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    y = np.random.default_rng(6).standard_normal((2, 200)).astype(np.float32)
    trained = build_params(cfg, seed=1)
    store = build_params(cfg, seed=0)
    session = StreamingEnhancer(cfg, store)
    store.load_arrays({name: t.data for name, t in trained.items()})
    npt.assert_array_equal(_stream(session, y, (1,)),
                           _stream(StreamingEnhancer(cfg, trained), y, (1,)))
    # an optimizer step writes the same buffer: a session built before it
    # streams what a session built after it does
    session = StreamingEnhancer(cfg, store)
    store.grad[...] = 1.0
    adam_step(store, OptState.for_store(store), 1e-2)
    assert not np.array_equal(store.data, trained.data)
    npt.assert_array_equal(_stream(session, y, (1,)),
                           _stream(StreamingEnhancer(cfg, store), y, (1,)))


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
        def wrapper(*args, **kwargs):
            calls[name] += 1
            macs[0] += macs_of[name](*args)
            return kernel(*args, **kwargs)
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
    y = np.random.default_rng(5).standard_normal((2, 250))
    for y in (y.astype(np.float32), y):
        # a float64 input is cast to the parameters' float32 before its
        # scale is taken, on both paths
        batch = model_forward(y, cfg, store).data  # scale drawn internally
        _assert_same_bytes(enhance_waveform(y, cfg, store), batch)


def test_streaming_push_call_budget():
    # A primed 64-8-8 push is bound by its Python-level calls, not by its
    # 0.1 ms of arithmetic. 173 are measured, counting the profiler's own
    # disable call and the input's finiteness check (181 when the spatial
    # conv and the dense stack reversed their axes by a transpose call, not
    # the .T attribute, and before each layer norm made one call for its
    # affine and PReLU; 190 when each layer norm's PReLU was a call of its
    # own, 205 when every block asked the config for its widths, 221 when
    # the LSTM called a Python sigmoid per step and allocated h and c apart).
    cfg = ModelConfig()
    session = StreamingEnhancer(cfg, build_params(cfg, seed=0))
    block = np.random.default_rng(7).standard_normal((8, cfg.frame.hop)).astype(np.float32)
    for _ in range(4):
        session.push(block)
    profile = cProfile.Profile()
    profile.enable()
    session.push(block)
    profile.disable()
    assert pstats.Stats(profile).total_calls <= 173


def _framing_calls(fn, *args, **kwargs):
    """How many times each dllrnn.framing function is entered while fn runs."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args, **kwargs)
    return {name: stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if path.endswith("framing.py")}


def test_push_and_model_forward_share_one_synthesis():
    # A primed push and a whole-utterance forward each cut their windows once
    # and overlap-add once, through framing.overlap_add, so the synthesis
    # and its window counts are computed in one place on both paths.
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(2).standard_normal((2, 40)).astype(np.float32)
    session = StreamingEnhancer(cfg, store)
    session.push(y[:, :8])
    calls = _framing_calls(session.push, y[:, 8:20])
    assert calls == {"windows": 1, "overlap_add": 1, "overlap_sum": 1}
    calls = _framing_calls(model_forward, y, cfg, store, scale=1.0)
    assert calls["windows"] == calls["overlap_add"] == calls["overlap_sum"] == 1


def test_enhance_waveform_memory_is_bounded():
    # enhance_waveform pushes 1 s blocks, so beyond 2 s of input only its
    # copies of the input and the output grow: C + 2 float32 per sample
    # (the padded input, the emitted pieces, the joined output). Allow twice
    # that; 20 bytes per sample are measured. A no-tape model_forward runs in
    # the same spans and grows by 34 bytes per sample here; in one
    # whole-utterance call it grew by 148.
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2)
    store = build_params(cfg, seed=0)
    peaks = []
    for seconds in (2, 8):
        y = np.random.default_rng(0).standard_normal((2, 16000 * seconds)).astype(np.float32)
        tracemalloc.start()
        try:
            enhance_waveform(y, cfg, store)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * (cfg.channels + 2) * 4 * 16000 * 6


def _with_one_nan(shape, seed):
    y = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    y[1, shape[1] // 2] = np.nan
    return y


def test_non_finite_input_is_a_named_error_on_every_entry_point():
    # and so are an input with no samples, the wrong channel count and an
    # input that is neither C×N nor N samples, with the same message on both
    # paths and at either scale, before enhance_waveform normalizes or pads
    # the input
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    three_channels = np.random.default_rng(0).standard_normal((3, 800)).astype(np.float32)
    three_dims = np.random.default_rng(0).standard_normal((2, 1, 800)).astype(np.float32)
    for y, error, match in ((_with_one_nan((2, 800), 0), DegenerateInputError, "finite"),
                            (np.zeros((2, 0), np.float32), DegenerateInputError,
                             "cannot enhance an empty input"),
                            (three_channels, DimensionError,
                             "input has 3 channels, config expects 2"),
                            (three_dims, DimensionError,
                             r"input must be C×N or N samples, got shape \(2, 1, 800\)")):
        for scale in (None, 1.0):
            with pytest.raises(error, match=match):
                model_forward(y, cfg, store, scale=scale)
            with pytest.raises(error, match=match):
                enhance_waveform(y, cfg, store, scale=scale)
    with pytest.raises(DegenerateInputError, match="finite"):
        with Tape():
            model_forward(np.full((2, 800), np.inf, np.float32), cfg, store, scale=1.0)


def test_input_too_quiet_to_scale_is_a_named_error_on_both_paths():
    # at standard deviation 1e-39 the float32 scale 1/std overflows; cast,
    # it is inf, which gives the training path an all-NaN output and the
    # streaming path a "non-finite samples" error. At 1e-30 both are finite
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    y = np.random.default_rng(9).standard_normal((2, 800))
    y /= np.std(y)
    for run in (lambda x: model_forward(x, cfg, store).data,
                lambda x: enhance_waveform(x, cfg, store)):
        with pytest.raises(DegenerateInputError, match="standard deviation 1e-39"):
            run((y * 1e-39).astype(np.float32))
        assert np.isfinite(run((y * 1e-30).astype(np.float32))).all()


def test_rejected_push_leaves_the_session_as_it_was():
    # An all-inf block after priming is rejected before the carried input,
    # overlap sums or LSTM states change: the pushes after it give a fresh
    # session's bytes for the same finite input.
    cfg = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                      frame=FrameSpec(l_in=32, l_out=8, hop=4))
    store = build_params(cfg, seed=0)
    hop = cfg.frame.hop
    y = np.random.default_rng(8).standard_normal((2, 44 * hop)).astype(np.float32)
    session, fresh = StreamingEnhancer(cfg, store), StreamingEnhancer(cfg, store)
    for k in range(0, 4 * hop, hop):
        _assert_same_bytes_or_none(session.push(y[:, k:k + hop]), fresh.push(y[:, k:k + hop]))
    for bad in (np.full((2, hop), np.inf, np.float32), _with_one_nan((2, 3 * hop), 1)):
        with pytest.raises(DegenerateInputError, match="finite"):
            session.push(bad)
    for k in range(4 * hop, y.shape[1], hop):
        _assert_same_bytes_or_none(session.push(y[:, k:k + hop]), fresh.push(y[:, k:k + hop]))


def _assert_same_bytes_or_none(got, want):
    if want is None:
        assert got is None
    else:
        _assert_same_bytes(got, want)


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
    # a push of k hops completes k frames
    assert session.push(np.zeros((2, 3 * cfg.frame.hop), np.float32)).shape == (1, 6)
    # not a whole number of hops, no samples, the wrong channel count
    for bad in ((2, 3), (2, 7), (2, 0), (3, cfg.frame.hop), (1, 2, cfg.frame.hop)):
        with pytest.raises(DimensionError):
            session.push(np.zeros(bad, np.float32))
    with pytest.raises(DegenerateInputError, match="empty"):
        enhance_waveform(np.zeros((2, 0), np.float32), cfg, session.store, scale=1.0)


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
        assert s_in == cfg.block_widths[b - 1][0] == 5 + (b - 1) * 3
        assert s_out == cfg.block_widths[b - 1][1] + 1 == (2 if b == cfg.blocks else 4)
