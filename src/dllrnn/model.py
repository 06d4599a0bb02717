"""The decoupled spatial-temporal enhancement network.

Assembly (all widths in the config):

* encoder — one shared linear ``l_in -> F`` per input channel, layer norm,
  PReLU, giving a C×T×F latent tensor;
* B densely connected blocks — block ``b`` consumes the channel-axis stack
  of the encoder output and every earlier block's output (spatial width
  ``D_b = C + (b-1)*S``; one ``C+(B-1)·S+1``-row buffer holds the stack, and
  block ``b`` reads its leading ``D_b`` rows), mixes channels with a
  per-hidden-unit spatial convolution to ``S_out + 1`` streams, normalizes
  and rectifies, refines stream 0 with an LSTM plus linear layer, and
  multiplies that temporal stream elementwise into the remaining ``S_out``
  streams;
* decoder — linear ``F -> l_out`` on the final block's single stream,
  overlap-added back into a waveform.

The input waveform is scaled to pooled unit variance before framing and the
estimate is scaled back afterwards, so the output lives at input level.

Storage order: the dense stack is indexed D×T×F but stored F×T×D, with the
stream axis D innermost (Goto & van de Geijn, ACM TOMS 2008). Block ``b``'s
spatial conv therefore reads each (t, f) position's ``D_b`` streams as one
contiguous run, and its input gradient comes out of one batched product in
the same order, ready to add into the stack's gradient. The block tensors
after the conv (its output, the layer-norm and PReLU rows, ``mixed`` and
their gradients) are O×T×F stored F×T×O, so no layer hands the next a
transposed copy; only the LSTM reads a contiguous T×F copy of stream 0.

The parameters are one table, :func:`param_table`: names, shapes and
initializers in the order :func:`_forward` takes them. :func:`build_params`,
:func:`count_params` and the checkpoint loader all read it. The assembly is
written once, as :func:`_forward` on plain arrays, and every layer's
arithmetic lives in :mod:`dllrnn.kernels`.
:func:`model_forward` runs it over the T frames of an utterance and records
it, with the overlap-add and the output rescale, on the tape as a single op.
Its backward gathers the gradient back into frames and runs
:func:`_backward`, the assembly's reverse sweep written out by hand
(Griewank & Walther, *Evaluating Derivatives*, SIAM 2008).
:class:`StreamingEnhancer` runs it at T=1 with carried LSTM state. Its output
is bit-identical to the whole-utterance path, because every forward kernel
computes a frame the same way however many frames share the call. The
latency contract is checked bit-exactly on the whole-utterance path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .errors import ConfigError, ContractError, DimensionError
from .framing import (SAMPLE_RATE, FrameSpec, frame_signal, gather_frames, normalize_variance,
                      overlap_add, overlap_counts)
from .tensor import Tensor, active_tape, from_op

LN_EPS = 1e-5


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

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

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


def param_table(config: ModelConfig):
    """Every trainable array as a ``(name, shape, init)`` row, in :func:`_forward`'s order.

    ``init`` is ``"uniform"`` (±1/sqrt(fan_in), fan-in on the trailing axis),
    ``"forget"`` (the LSTM bias: 1.0 on the forget-gate rows, so the gate
    starts open and keeps the cell state) or a constant fill: zero biases,
    unit layer-norm gains, PReLU slopes of 0.25. The table holds no arrays.
    """
    f, l_in, l_out = config.hidden, config.frame.l_in, config.frame.l_out
    rows = [("encoder.linear.weight", (f, l_in), "uniform"),
            ("encoder.linear.bias", (f,), 0.0),
            ("encoder.norm.weight", (f,), 1.0),
            ("encoder.norm.bias", (f,), 0.0),
            ("encoder.prelu", (), 0.25)]
    for b in range(1, config.blocks + 1):
        n_streams = config.block_out_width(b) + 1
        rows += [(f"block{b}.{name}", shape, init) for name, shape, init in (
            ("conv.weight", (f, n_streams, config.block_in_width(b)), "uniform"),
            ("conv.bias", (n_streams, f), 0.0),
            ("norm.weight", (f,), 1.0),
            ("norm.bias", (f,), 0.0),
            ("prelu", (), 0.25),
            ("lstm.wx", (4 * f, f), "uniform"),
            ("lstm.wh", (4 * f, f), "uniform"),
            ("lstm.bias", (4 * f,), "forget"),
            ("linear.weight", (f, f), "uniform"),
            ("linear.bias", (f,), 0.0))]
    return rows + [("decoder.linear.weight", (l_out, f), "uniform"),
                   ("decoder.linear.bias", (l_out,), 0.0)]


def build_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ParamStore:
    """Initialize every row of :func:`param_table`, seeded, drawing in table order."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape, init in param_table(config):
        if init == "uniform":
            bound = 1.0 / np.sqrt(shape[-1])
            data = rng.uniform(-bound, bound, size=shape)
        elif init == "forget":
            # gate rows in (input, forget, cell, output) order
            data = np.repeat([0.0, 1.0, 0.0, 0.0], shape[0] // 4)
        else:
            data = np.full(shape, init)
        store.add(name, Tensor(np.asarray(data, dtype=dtype), requires_grad=True))
    return store


def _rows(streams):
    """An O×T×F block tensor stored F×T×O as T·O rows of F, without a copy."""
    return streams.transpose(1, 0, 2).reshape(-1, streams.shape[2])


def _streams(rows, n):
    """The inverse of :func:`_rows` for ``n`` streams: rows back to O×T×F."""
    return rows.reshape(-1, n, rows.shape[1]).transpose(1, 0, 2)


def _forward(config: ModelConfig, params, frames, states, caches=None):
    """The network on plain arrays: C×T×l_in frames in, T×l_out decoder frames out.

    ``params`` are the parameter arrays in :func:`param_table` order.
    ``states`` holds each block's LSTM ``(h, c)``: it is read as the state
    before frame 0 and overwritten with the state after frame T-1. The LSTM
    kernel returns its states as T+1 rows with that state as row 0, so the
    post-LSTM linear reads rows 1..T. When ``caches`` is a list, the
    activations :func:`_backward` replays are appended to it.

    Every block tensor is stored with its stream axis innermost, like the
    dense stack: the spatial conv returns O×T×F stored F×T×O, layer norm and
    PReLU run on :func:`_rows` views of it, and the only copy is the LSTM's
    contiguous T×F input stream.
    """
    c, t_len, l_in = frames.shape
    f = config.hidden
    eps = frames.dtype.type(LN_EPS)
    keep = caches is not None
    x = np.ascontiguousarray(frames.reshape(-1, l_in))
    y, xhat, inv_std = K.layer_norm_forward(K.linear_forward(x, params[0], params[1]),
                                            params[2], params[3], eps)
    # The dense stack: block b reads rows [:D_b] and writes its output to the
    # rows after them; the final block's single row is the decoder's input.
    # It is indexed D×T×F and stored F×T×D, stream axis innermost.
    dense = np.empty((f, t_len, config.block_in_width(config.blocks) + 1),
                     frames.dtype).transpose(2, 1, 0)
    dense[:c] = K.prelu_forward(y, params[4]).reshape(c, t_len, f)
    if keep:
        caches.append((x, y, xhat, inv_std))
    for b in range(1, config.blocks + 1):
        i = 10 * b - 5
        conv_w, conv_b, ln_g, ln_b, a, wx, wh, lstm_b, lin_w, lin_b = params[i:i + 10]
        lo, n_out = config.block_in_width(b), config.block_out_width(b)
        conv = K.spatial_conv_forward(dense[:lo], conv_w, conv_b)
        y, xhat, inv_std = K.layer_norm_forward(_rows(conv), ln_g, ln_b, eps)
        mixed = _streams(K.prelu_forward(y, a), n_out + 1)
        # Stream 0 is the temporal stream: LSTM plus linear, then it gates the rest.
        temporal = np.ascontiguousarray(mixed[0])
        h, gates, cell, tanh_c = K.lstm_forward(temporal, wx, wh, lstm_b, *states[b - 1])
        states[b - 1] = (h[-1], cell[-1])
        gate = K.linear_forward(h[1:], lin_w, lin_b)
        # order="F" walks the S×T×F product S-fastest, in storage order; by
        # default numpy would follow the C-ordered gate and stride across F.
        np.multiply(mixed[1:], gate, out=dense[lo:lo + n_out], order="F")
        if keep:
            caches.append((y, xhat, inv_std, mixed, (temporal, h, gates, cell, tanh_c), gate))
    if keep:
        caches.append(dense)
    return K.linear_forward(dense[-1], params[-2], params[-1])


def _backward(config: ModelConfig, params, caches, g):
    """Every parameter's gradient, in ``params`` order, from the gradient ``g``
    of the T×l_out frames that :func:`_forward` returned while filling
    ``caches``: the forward's layers in reverse, each through its backward
    kernel. Each gradient is stored in the order of the activation it belongs
    to, so the stack's gradient is D-innermost too. The LSTM backward gets the
    forward's (T+1)-row state arrays as cached and reads the previous states
    as views of them; the post-LSTM linear's backward reads rows 1..T.
    """
    f = config.hidden
    grads = [None] * len(params)
    dense = caches[-1]
    d_dense = np.zeros_like(dense)
    d_dense[-1], grads[-2], grads[-1] = K.linear_backward(g, dense[-1], params[-2])
    # Block b's output gradient is complete once every later block has added
    # its input gradient to the stack's rows.
    for b in range(config.blocks, 0, -1):
        i = 10 * b - 5
        conv_w, _, ln_g, _, a, wx, wh, _, lin_w, _ = params[i:i + 10]
        y, xhat, inv_std, mixed, (temporal, h, gates, cell, tanh_c), gate = caches[b]
        lo, n_out = config.block_in_width(b), config.block_out_width(b)
        d_out = d_dense[lo:lo + n_out]
        # the gate was broadcast over the S_out gated streams
        d_gate = np.einsum("stf,stf->tf", d_out, mixed[1:])
        d_h, d_lin_w, d_lin_b = K.linear_backward(d_gate, h[1:], lin_w)
        d_mixed = np.empty_like(mixed)
        np.multiply(d_out, gate, out=d_mixed[1:], order="F")  # storage order, as in _forward
        d_mixed[0], d_wx, d_wh, d_lstm_b = K.lstm_backward(d_h, temporal, wx, wh, gates, cell,
                                                           tanh_c, h)
        d_y, d_a = K.prelu_backward(_rows(d_mixed), y, a)
        d_conv, d_ln_g, d_ln_b = K.layer_norm_backward(d_y, xhat, inv_std, ln_g)
        d_in, d_conv_w, d_conv_b = K.spatial_conv_backward(_streams(d_conv, n_out + 1),
                                                           dense[:lo], conv_w)
        d_dense[:lo] += d_in
        grads[i:i + 10] = (d_conv_w, d_conv_b, d_ln_g, d_ln_b, d_a,
                           d_wx, d_wh, d_lstm_b, d_lin_w, d_lin_b)
    x, y, xhat, inv_std = caches[0]
    d_y, grads[4] = K.prelu_backward(d_dense[:config.channels].reshape(-1, f), y, params[4])
    d_enc, grads[2], grads[3] = K.layer_norm_backward(d_y, xhat, inv_std, params[2])
    grads[0], grads[1] = K.linear_backward(d_enc, x, params[0])[1:]
    return grads


def model_forward(y, config: ModelConfig, store: ParamStore, *, scale=None) -> Tensor:
    """Enhance a C×N waveform to a 1×N direct-path estimate (as a Tensor).

    With ``scale=None`` the input is normalized to pooled unit variance and
    the estimate re-scaled to input level. Passing an explicit ``scale``
    freezes the normalization, keeping the processor strictly causal — the
    streaming session and the latency check rely on that. Under an active
    tape this is one recorded op.
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
    spec, n = config.frame, y.shape[1]
    frames = frame_signal(scaled.astype(dtype, copy=False), spec)
    tensors = store.tensors()
    params = [t.data for t in tensors]
    zeros = np.zeros(config.hidden, dtype=dtype)
    # Activations are kept only when a tape will replay them.
    caches = [] if active_tape() is not None else None
    out = _forward(config, params, frames, [(zeros, zeros)] * config.blocks, caches)
    inv_scale = np.asarray(1.0 / scale, dtype=dtype)

    def backward(g):
        counts = overlap_counts(spec, out.shape[0])[:n].astype(dtype)
        d_out = gather_frames(g[0] * inv_scale / counts, spec.l_out, spec.hop, out.shape[0])
        return _backward(config, params, caches, d_out)

    return from_op(overlap_add(out, spec, n) * inv_scale, tensors, backward)


# ---------------------------------------------------------------------------
# Resource accounting. Parameter counts sum the shapes of the table the
# builder allocates; FLOPs count 2 per multiply-accumulate in the matrix-style
# contractions only (encoder, spatial convs, LSTM gate products, post-LSTM
# linear, decoder), per frame, at sample_rate/hop frames per second.
# ---------------------------------------------------------------------------

def count_params(config: ModelConfig) -> int:
    """Exact trainable-scalar total of the configured model."""
    return sum(math.prod(shape) for _, shape, _ in param_table(config))


def count_macs_per_frame(config: ModelConfig) -> int:
    f, l_in, l_out = config.hidden, config.frame.l_in, config.frame.l_out
    macs = config.channels * f * l_in             # encoder, per channel
    for b in range(1, config.blocks + 1):
        macs += f * (config.block_out_width(b) + 1) * config.block_in_width(b)
        macs += 8 * f * f                          # lstm input + recurrent products
        macs += f * f                              # post-lstm linear
    macs += l_out * f                              # decoder
    return macs


def count_flops(config: ModelConfig) -> float:
    """FLOPs per second of audio: 2·MACs/frame · frames/second."""
    frames_per_second = SAMPLE_RATE / config.frame.hop
    return 2.0 * count_macs_per_frame(config) * frames_per_second


class StreamingEnhancer:
    """Frame-by-frame enhancement session with carried LSTM state.

    Push ``hop``-sample blocks; each push advances the analysis window one
    hop and, once primed (after ``l_out/hop`` pushes), returns the next
    ``hop`` enhanced samples. Each push runs :func:`_forward`, the same
    assembly :func:`model_forward` runs over a whole utterance, on the one
    new frame (T=1) with this session's LSTM states. The parameter Tensors
    are looked up once and their arrays read at every push, so a later
    ``store.load_arrays`` takes effect. The emitted stream is bit-identical
    to the whole-utterance output with the same frozen scale, since the
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
        self._params = store.tensors()
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
        acc += _forward(self.config, [p.data for p in self._params], self._window[:, None, :],
                        self._states)[0]
        count = np.asarray(float(min(t + 1, self._ratio)), dtype=self.dtype)
        self._carry = acc[spec.hop:]
        emitted = acc[None, :spec.hop] / count
        emitted *= self._inv_scale
        return emitted


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
    spec, n = config.frame, y.shape[1]
    # hop-sample blocks, zero-padded until the last frame has been emitted
    blocks = gather_frames(y, spec.hop, spec.hop, spec.n_frames(n) + spec.l_out // spec.hop - 1)
    session = StreamingEnhancer(config, store, scale)
    pieces = [session.push(blocks[:, k]) for k in range(blocks.shape[1])]
    return np.concatenate([p for p in pieces if p is not None], axis=1)[:, :n]
