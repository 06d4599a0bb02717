"""The decoupled spatial-temporal enhancement network.

Assembly (all widths in the config):

* encoder — one shared linear ``l_in -> F`` per input channel, layer norm,
  PReLU, giving a C×T×F latent tensor;
* B densely connected blocks — block ``b`` consumes the channel-axis stack
  of the encoder output and every earlier block's output (spatial width
  ``D_b = C + (b-1)*S``; one preallocated ``C+(B-1)·S``-row buffer holds the
  stack, and block ``b`` reads its leading ``D_b`` rows), mixes channels with
  a per-hidden-unit spatial convolution to ``S_out + 1`` streams, normalizes
  and rectifies, refines stream 0 with an LSTM plus linear layer, and
  multiplies that temporal stream elementwise into the remaining ``S_out``
  streams;
* decoder — linear ``F -> l_out`` on the final block's single stream,
  overlap-added back into a waveform.

The input waveform is scaled to pooled unit variance before framing and the
estimate is scaled back afterwards, so the output lives at input level.

``StreamingEnhancer`` runs the same kernel sequence one frame at a time with
carried LSTM state, on plain arrays. Its output is bit-identical to the
whole-utterance path, because every forward kernel computes a frame the same
way however many frames share the call (see :mod:`dllrnn.kernels`). The
latency contract is checked bit-exactly on the whole-utterance path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .framing import (SAMPLE_RATE, FrameSpec, frame_signal, normalize_variance, overlap_add,
                      overlap_counts)
from .layers import (LN_EPS, AffineParams, LstmParams, SpatialConvParams, init_affine,
                     init_layer_norm, init_lstm, init_prelu, init_spatial_conv, layer_norm, linear,
                     lstm, prelu, spatial_conv)
from .tensor import Tensor, from_op


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters: microphones C, hidden width F, block width S, depth B."""

    channels: int = 8
    hidden: int = 64
    spatial: int = 8
    blocks: int = 8
    frame: FrameSpec = field(default_factory=FrameSpec)

    def __post_init__(self):
        for name in ("channels", "hidden", "spatial", "blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def name(self):
        return f"D-LL-RNN-{self.hidden}-{self.spatial}-{self.blocks}"

    def block_in_width(self, b: int) -> int:
        """Spatial width consumed by block b (1-based): C + (b-1)*S."""
        return self.channels + (b - 1) * self.spatial

    def block_out_width(self, b: int) -> int:
        return 1 if b == self.blocks else self.spatial


class ParamStore:
    """Ordered name -> parameter Tensor map; the unit of checkpointing."""

    def __init__(self):
        self._params = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name '{name}'")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def n_scalars(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    @property
    def dtype(self):
        return next(iter(self._params.values())).dtype

    def load_arrays(self, arrays):
        """Copy a name -> array map into the store; shapes must match."""
        for name, tensor in self._params.items():
            if name not in arrays:
                raise ContractError(f"missing parameter '{name}'")
            arr = np.asarray(arrays[name])
            if arr.shape != tuple(tensor.shape):
                raise DimensionError(
                    f"parameter '{name}' has shape {arr.shape}, expected {tuple(tensor.shape)}"
                )
            tensor.data = arr.astype(tensor.dtype)
        extra = set(arrays) - set(self._params)
        if extra:
            raise ContractError(f"unknown parameters {sorted(extra)}")


@dataclass
class BlockParams:
    conv: SpatialConvParams
    norm: AffineParams
    prelu_slope: Tensor
    lstm: LstmParams
    linear: AffineParams


def build_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ParamStore:
    """Initialize every trainable array of the configured model, seeded."""
    rng = np.random.default_rng(seed)
    f, l_in, l_out = config.hidden, config.frame.l_in, config.frame.l_out
    store = ParamStore()

    def register(prefix, obj):
        if isinstance(obj, AffineParams):
            store.add(f"{prefix}.weight", obj.weight)
            store.add(f"{prefix}.bias", obj.bias)
        elif isinstance(obj, SpatialConvParams):
            store.add(f"{prefix}.weight", obj.weight)
            store.add(f"{prefix}.bias", obj.bias)
        elif isinstance(obj, LstmParams):
            store.add(f"{prefix}.wx", obj.wx)
            store.add(f"{prefix}.wh", obj.wh)
            store.add(f"{prefix}.bias", obj.bias)
        else:
            store.add(prefix, obj)

    register("encoder.linear", init_affine(rng, f, l_in, dtype))
    register("encoder.norm", init_layer_norm(f, dtype))
    register("encoder.prelu", init_prelu(dtype=dtype))
    for b in range(1, config.blocks + 1):
        d_in = config.block_in_width(b)
        s_out = config.block_out_width(b)
        register(f"block{b}.conv", init_spatial_conv(rng, f, s_out + 1, d_in, dtype))
        register(f"block{b}.norm", init_layer_norm(f, dtype))
        register(f"block{b}.prelu", init_prelu(dtype=dtype))
        register(f"block{b}.lstm", init_lstm(rng, f, dtype=dtype))
        register(f"block{b}.linear", init_affine(rng, f, f, dtype))
    register("decoder.linear", init_affine(rng, l_out, f, dtype))
    return store


BLOCK_PARAM_NAMES = ("conv.weight", "conv.bias", "norm.weight", "norm.bias", "prelu",
                     "lstm.wx", "lstm.wh", "lstm.bias", "linear.weight", "linear.bias")


def block_params(store: ParamStore, b: int) -> BlockParams:
    (conv_w, conv_b, norm_g, norm_b, slope, wx, wh, lstm_b, lin_w,
     lin_b) = (store[f"block{b}.{name}"] for name in BLOCK_PARAM_NAMES)
    return BlockParams(
        conv=SpatialConvParams(conv_w, conv_b),
        norm=AffineParams(norm_g, norm_b),
        prelu_slope=slope,
        lstm=LstmParams(wx, wh, lstm_b),
        linear=AffineParams(lin_w, lin_b),
    )


def st_block_forward(x: Tensor, p: BlockParams) -> Tensor:
    """One spatio-temporal block: D×T×F in, S_out×T×F out.

    Channel 0 of the spatial convolution's output is the temporal stream: it
    runs through the LSTM and a linear layer and then gates the remaining
    channels by elementwise multiplication.
    """
    s_out = p.conv.s_out - 1
    if x.shape[0] != p.conv.s_in:
        raise DimensionError(
            f"block input width {x.shape[0]} != configured width {p.conv.s_in}"
        )
    mixed = prelu(layer_norm(spatial_conv(x, p.conv), p.norm), p.prelu_slope)
    t_len, f = mixed.shape[1], mixed.shape[2]
    temporal = T.reshape(T.narrow(mixed, 0, 0, 1), (t_len, f))
    recurrent, _ = lstm(temporal, p.lstm)
    gate = T.reshape(linear(recurrent, p.linear), (1, t_len, f))
    return T.mul(T.narrow(mixed, 0, 1, s_out), gate)


def _encode(frames: Tensor, store: ParamStore) -> Tensor:
    enc = linear(frames, AffineParams(store["encoder.linear.weight"],
                                      store["encoder.linear.bias"]))
    enc = layer_norm(enc, AffineParams(store["encoder.norm.weight"], store["encoder.norm.bias"]))
    return prelu(enc, store["encoder.prelu"])


def _overlap_add_op(frames: Tensor, spec: FrameSpec, n_samples: int) -> Tensor:
    """Differentiable overlap-add of a 1×T×l_out tensor to a 1×N waveform."""
    dtype = frames.data.dtype
    counts = overlap_counts(spec, frames.shape[1]).astype(dtype)

    def backward(g):
        gp = np.zeros(counts.shape[0], dtype=dtype)
        gp[:n_samples] = g[0]
        gp /= counts
        from numpy.lib.stride_tricks import sliding_window_view
        gf = sliding_window_view(gp, spec.l_out)[::spec.hop].copy()
        return (gf[None],)

    return from_op(overlap_add(frames.data, spec, n_samples), (frames,), backward)


def model_forward(y, config: ModelConfig, store: ParamStore, *, scale=None) -> Tensor:
    """Enhance a C×N waveform to a 1×N direct-path estimate (as a Tensor).

    With ``scale=None`` the input is normalized to pooled unit variance and
    the estimate re-scaled to input level. Passing an explicit ``scale``
    freezes the normalization, keeping the processor strictly causal — the
    streaming session and the latency check rely on that.
    """
    y = np.asarray(y)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape[0] != config.channels:
        raise DimensionError(f"input has {y.shape[0]} channels, config expects {config.channels}")
    dtype = store.dtype
    if scale is None:
        scaled, scale = normalize_variance(y)
    else:
        scaled = y * np.asarray(scale, dtype=y.dtype)
    n = y.shape[1]
    frames = frame_signal(scaled.astype(dtype, copy=False), config.frame)
    enc = _encode(Tensor(frames), store)
    # The dense stack: each block's output is written once into its rows, and
    # block b reads the leading D_b rows as a view.
    dense = np.empty((config.block_in_width(config.blocks),) + enc.shape[1:], dtype=dtype)
    dense[:config.channels] = enc.data
    parts = [enc]
    x = enc
    for b in range(1, config.blocks + 1):
        if b > 1:
            x = T.stacked_rows(dense, parts)
        x = st_block_forward(x, block_params(store, b))
        if b < config.blocks:
            lo = config.block_in_width(b)
            dense[lo:lo + x.shape[0]] = x.data
            parts.append(x)
    decoder = AffineParams(store["decoder.linear.weight"], store["decoder.linear.bias"])
    out_frames = linear(x, decoder)
    wave = _overlap_add_op(out_frames, config.frame, n)
    return T.mul(wave, Tensor(np.asarray(1.0 / scale, dtype=dtype)))


# ---------------------------------------------------------------------------
# Resource accounting. Parameter counts enumerate the same shapes the builder
# allocates; FLOPs count 2 per multiply-accumulate in the matrix-style
# contractions only (encoder, spatial convs, LSTM gate products, post-LSTM
# linear, decoder), per frame, at sample_rate/hop frames per second.
# ---------------------------------------------------------------------------

def count_params(config: ModelConfig) -> int:
    """Exact trainable-scalar total of the configured model."""
    f, l_in, l_out = config.hidden, config.frame.l_in, config.frame.l_out
    total = (f * l_in + f) + 2 * f + 1            # encoder linear + norm + prelu
    for b in range(1, config.blocks + 1):
        d_in = config.block_in_width(b)
        n_streams = config.block_out_width(b) + 1
        total += f * n_streams * d_in + n_streams * f   # spatial conv
        total += 2 * f + 1                              # norm + prelu
        total += 2 * (4 * f * f) + 4 * f                # lstm
        total += f * f + f                              # post-lstm linear
    total += l_out * f + l_out                    # decoder
    return total


def count_macs_per_frame(config: ModelConfig) -> int:
    f, l_in, l_out = config.hidden, config.frame.l_in, config.frame.l_out
    macs = config.channels * f * l_in             # encoder, per channel
    for b in range(1, config.blocks + 1):
        macs += f * (config.block_out_width(b) + 1) * config.block_in_width(b)
        macs += 8 * f * f                          # lstm input + recurrent products
        macs += f * f                              # post-lstm linear
    macs += l_out * f                              # decoder
    return macs


def count_flops(config: ModelConfig, seconds: float = 1.0) -> float:
    """FLOPs to process ``seconds`` of audio: 2·MACs/frame · frames/second."""
    if seconds <= 0:
        raise ConfigError(f"seconds must be positive, got {seconds}")
    frames_per_second = SAMPLE_RATE / config.frame.hop
    return 2.0 * count_macs_per_frame(config) * frames_per_second * seconds


def _prelu(x, slope):
    return np.where(x < 0, slope * x, x)


class StreamingEnhancer:
    """Frame-by-frame enhancement session with carried LSTM state.

    Push ``hop``-sample blocks; each push advances the analysis window one
    hop and, once primed (after ``l_out/hop`` pushes), returns the next
    ``hop`` enhanced samples. The computation per frame is the same kernel
    sequence as :func:`model_forward` with a frozen normalization scale, run
    on plain arrays: the parameter Tensors are looked up once, their arrays
    read at each frame (so a later ``store.load_arrays`` takes effect), and
    every block writes its output into one session-owned dense stack. The
    emitted stream is bit-identical to the whole-utterance output, since the
    forward kernels sum a one-frame call in the same order as a T-frame one.
    """

    def __init__(self, config: ModelConfig, store: ParamStore, scale: float = 1.0):
        self.config = config
        self.store = store
        self.dtype = store.dtype
        spec = config.frame
        self._scale = np.asarray(scale, dtype=self.dtype)
        self._inv_scale = np.asarray(1.0 / scale, dtype=self.dtype)
        self._window = np.zeros((config.channels, spec.l_in), dtype=self.dtype)
        self._carry = np.zeros(spec.l_out - spec.hop, dtype=self.dtype)
        self._frame_index = 0
        self._ratio = spec.l_out // spec.hop
        self._eps = self.dtype.type(LN_EPS)
        self._encoder = tuple(store[f"encoder.{name}"] for name in
                              ("linear.weight", "linear.bias", "norm.weight", "norm.bias", "prelu"))
        self._decoder = (store["decoder.linear.weight"], store["decoder.linear.bias"])
        # The dense stack of one frame. Block b reads rows [:D_b] and writes its
        # output to rows [D_b, D_b + S); the final block writes its single
        # stream, the decoder's input, to a row of its own.
        self._dense = np.zeros((config.block_in_width(config.blocks), 1, config.hidden),
                               dtype=self.dtype)
        self._final = np.zeros((1, config.hidden), dtype=self.dtype)
        self._blocks = []
        for b in range(1, config.blocks + 1):
            lo = config.block_in_width(b)
            out = self._final if b == config.blocks else self._dense[lo:lo + config.spatial, 0]
            params = tuple(store[f"block{b}.{name}"] for name in BLOCK_PARAM_NAMES)
            self._blocks.append((lo, out, params))
        zeros = np.zeros(config.hidden, dtype=self.dtype)
        self._states = [(zeros, zeros)] * config.blocks

    def push(self, block):
        """Feed C×hop input samples; returns 1×hop output or None while priming."""
        spec = self.config.frame
        block = np.asarray(block, dtype=self.dtype)
        if block.ndim == 1:
            block = block[None, :]
        if block.shape != (self.config.channels, spec.hop):
            raise DimensionError(
                f"push expects {(self.config.channels, spec.hop)} samples, got {block.shape}"
            )
        self._window[:, :-spec.hop] = self._window[:, spec.hop:]
        self._window[:, -spec.hop:] = block * self._scale
        t = self._frame_index - (self._ratio - 1)
        self._frame_index += 1
        if t < 0:
            return None
        acc = np.zeros(spec.l_out, dtype=self.dtype)
        acc[:spec.l_out - spec.hop] = self._carry
        acc += self._forward_frame()
        count = np.asarray(float(min(t + 1, self._ratio)), dtype=self.dtype)
        self._carry = acc[spec.hop:]
        emitted = acc[None, :spec.hop] / count
        emitted *= self._inv_scale
        return emitted

    def _forward_frame(self):
        """One frame through encoder, blocks and decoder; returns l_out samples.

        Kernels are called through the ``kernels`` module attributes, with
        C-contiguous inputs as the layers pass them.
        """
        dense, eps = self._dense, self._eps
        channels = self.config.channels
        lin_w, lin_b, norm_g, norm_b, slope = self._encoder
        h = K.linear_forward(self._window, lin_w.data, lin_b.data)
        h = K.layer_norm_forward(h, norm_g.data, norm_b.data, eps)[0]
        dense[:channels, 0] = _prelu(h, slope.data)
        for i, (lo, out, params) in enumerate(self._blocks):
            conv_w, conv_b, norm_g, norm_b, slope, wx, wh, lstm_b, lin_w, lin_b = params
            mixed = K.spatial_conv_forward(dense[:lo], conv_w.data, conv_b.data)
            mixed = K.layer_norm_forward(np.ascontiguousarray(mixed.reshape(mixed.shape[0], -1)),
                                         norm_g.data, norm_b.data, eps)[0]
            mixed = _prelu(mixed, slope.data)
            h0, c0 = self._states[i]
            hs, _, cs, _ = K.lstm_forward(mixed[:1], wx.data, wh.data, lstm_b.data, h0, c0)
            self._states[i] = (hs[-1], cs[-1])
            np.multiply(mixed[1:], K.linear_forward(hs, lin_w.data, lin_b.data), out=out)
        dec_w, dec_b = self._decoder
        return K.linear_forward(self._final, dec_w.data, dec_b.data)[0]


def enhance_waveform(y, config: ModelConfig, store: ParamStore, *, scale=None):
    """Run a full utterance through a streaming session; returns 1×N array.

    Equivalent to ``model_forward(y, ...).data`` frame for frame, but built
    from ``StreamingEnhancer.push`` calls, which is also how the CLI enhances
    files — there is a single inference path.
    """
    y = np.asarray(y)
    if y.ndim == 1:
        y = y[None, :]
    y = y.astype(store.dtype, copy=False)
    if scale is None:
        _, scale = normalize_variance(y)
    spec = config.frame
    n = y.shape[1]
    t_len = spec.n_frames(n)
    total_in = (t_len + spec.l_out // spec.hop - 1) * spec.hop
    padded = np.zeros((y.shape[0], total_in), dtype=y.dtype)
    padded[:, :n] = y
    session = StreamingEnhancer(config, store, scale)
    pieces = []
    for k in range(total_in // spec.hop):
        out = session.push(padded[:, k * spec.hop:(k + 1) * spec.hop])
        if out is not None:
            pieces.append(out)
    wave = np.concatenate(pieces, axis=1)
    return wave[:, :n]
