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
contiguous run, and the gradient of any rows of the stack comes out of
batched products in the same order. The block tensors
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
:class:`StreamingEnhancer` runs it on the frames each push completes, with
carried input, LSTM state and overlap sums; :func:`enhance_waveform` runs a
file through one session in 1 s pushes. Both paths cut frames with
:func:`~dllrnn.framing.windows` and synthesize with one
:func:`~dllrnn.framing.overlap_add`, and their output is bit-identical, as
every forward kernel computes a frame the same way however many frames
share the call. The latency contract is checked bit-exactly on the
whole-utterance path.

A training example keeps one tensor per layer from its forward to its
backward: the layer norms' ``xhat`` and ``inv_std``, each block's LSTM
states and gates and its gate, and the dense stack, about 48 MiB per second
of 64-8-8 float32 audio, plus the scaled waveform. The backward rebuilds the
layer norm's rectified streams, the LSTM's tanh(c) rows and the
encoder's input frames from these with the forward's own expressions, so
they are bit-identical, and frees each block's cache once its backward is
done (rematerialization: Chen et al., "Training Deep Nets with Sublinear
Memory Cost", arXiv 1604.06174). A push keeps no activations.

The backward holds no gradient of the whole stack. Each finished block
leaves its conv-output gradient (S_out+1 streams) with its conv weight, and
a block's output gradient, or at the end the encoder rows', is summed from
the later blocks' products only when it is read. These gradients grow as the
block caches are freed, so they add nothing at the sweep's start, where
every cache is alive: one 1 s example's forward, loss and backward peak at
54.2 MiB of tracemalloc (56.4 when a block held its rebuilt layer-norm
output through the LSTM backward, 73.6 when the sweep zeroed a stack
gradient and each LSTM cached its tanh(c) rows).

Beyond what is cached, a forward or backward holds one block's working set
at a time (in-place operation and buffer sharing, Chen et al., §3). The
input frames are a strided view of the padded waveform, copied into rows
only for the encoder's product and freed with it. The layer norm, its
affine and the PReLU are one kernel call each way, and both calls work in
place. The forward writes each conv output's rectified rows, ``mixed``,
over it, beside the normalized rows ``xhat``, and rectifies a small block
at a time, so these two are its only block-size buffers. A block's locals
die with :func:`_block_forward`, and its LSTM state is written into the
caller's state array. The backward rebuilds ``mixed`` with the forward's
small blocks, drops it once stream 0 is copied out for the LSTM backward,
and writes the layer norm's input gradient, through the PReLU, over the
block's ``d_mixed``; the kernel rebuilds the PReLU's input into its own
scratch. A no-tape forward of 2 s of 8-channel
64-8-8 input peaks at 42.9 MiB, 31.7 MiB of it the dense stack (42.8
when the PReLU was a kernel of its own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels as K
from .errors import ConfigError, ContractError, DegenerateInputError, DimensionError
from .framing import (SAMPLE_RATE, FrameSpec, frame_signal, gather_frames, normalize_variance,
                      overlap_add, windows)
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

    @cached_property
    def block_widths(self):
        """Each block's (in, out) spatial widths, block b (1-based) at index
        b-1: it reads C + (b-1)·S streams and writes S, the last block 1.
        Computed once; a later read makes no call."""
        c, s = self.channels, self.spatial
        return tuple((c + (b - 1) * s, 1 if b == self.blocks else s)
                     for b in range(1, self.blocks + 1))


class ParamStore:
    """Ordered name -> parameter Tensor map; the unit of checkpointing.

    Every parameter's ``data`` is a view of one flat buffer, ``store.data``,
    and its ``grad`` a view of a second, ``store.grad``, with the same
    layout. The buffers are packed once, from ``rows``: ordered ``(name,
    array)`` pairs of one float dtype. After that they are only written in
    place: :meth:`load_arrays` copies into ``data``, the optimizer subtracts
    from it, the tape's ``grad +=`` adds into ``grad`` and :meth:`zero_grad`
    fills it with zeros. A view taken once therefore sees every later update.
    """

    def __init__(self, rows):
        arrays = [(name, np.asarray(arr)) for name, arr in rows]
        dtypes = {arr.dtype for _, arr in arrays}
        if len(dtypes) != 1 or dtypes - {np.dtype(np.float32), np.dtype(np.float64)}:
            raise ContractError(f"parameters need one float dtype, got {sorted(map(str, dtypes))}")
        self._layout = {}  # name -> (slice of the flat buffers, shape)
        end = 0
        for name, arr in arrays:
            if name in self._layout:
                raise ContractError(f"duplicate parameter name '{name}'")
            self._layout[name] = (slice(end, end + arr.size), arr.shape)
            end += arr.size
        self.data = np.empty(end, dtypes.pop())
        # np.zeros, not zeros_like: the OS maps a large buffer's zero pages
        # only when written, so a store that never trains need not hold them
        self.grad = np.zeros(end, self.data.dtype)
        self._params = {}
        for (name, arr), data, grad in zip(arrays, self.views(self.data).values(),
                                           self.views(self.grad).values()):
            data[...] = arr
            tensor = self._params[name] = Tensor(data, requires_grad=True)
            tensor.grad = grad

    def views(self, flat):
        """``flat``, an array laid out like ``data``, as a name -> view map."""
        return {name: flat[part].reshape(shape) for name, (part, shape) in self._layout.items()}

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
        self.grad.fill(0)

    @property
    def dtype(self):
        return self.data.dtype

    def load_arrays(self, arrays):
        """Copy a name -> array map into the store. Every name and shape is
        checked, and unknown names refused, before anything is copied."""
        for name, tensor in self._params.items():
            if name not in arrays:
                raise ContractError(f"missing parameter '{name}'")
            if np.shape(arrays[name]) != tensor.shape:
                raise DimensionError(f"parameter '{name}' has shape {np.shape(arrays[name])}, "
                                     f"expected {tensor.shape}")
        extra = set(arrays) - self._params.keys()
        if extra:
            raise ContractError(f"unknown parameters {sorted(extra)}")
        for name, tensor in self._params.items():
            tensor.data[...] = arrays[name]


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
    for b, (d_in, d_out) in enumerate(config.block_widths, 1):
        rows += [(f"block{b}.{name}", shape, init) for name, shape, init in (
            ("conv.weight", (f, d_out + 1, d_in), "uniform"),
            ("conv.bias", (d_out + 1, f), 0.0),
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
    table = param_table(config)
    # zero-strided rows give the store its layout without a second copy of
    # the parameters; each row is then drawn straight into its view
    zero = np.zeros((), dtype)
    store = ParamStore([(name, np.broadcast_to(zero, shape)) for name, shape, _ in table])
    for (_, shape, init), tensor in zip(table, store.tensors()):
        if init == "uniform":
            bound = 1.0 / np.sqrt(shape[-1])
            tensor.data[...] = rng.uniform(-bound, bound, size=shape)
        elif init == "forget":
            # gate rows in (input, forget, cell, output) order
            tensor.data[...] = np.repeat([0.0, 1.0, 0.0, 0.0], shape[0] // 4)
        else:
            tensor.data[...] = init
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
    ``states``, a B×2×F array, holds each block's LSTM ``(h, c)``: it is read
    as the state before frame 0 and overwritten in place with the state after
    frame T-1. The LSTM kernel returns its states as T+1 rows with that state
    as row 0, so the post-LSTM linear reads rows 1..T.

    When ``caches`` is a list, the activations :func:`_backward` cannot
    cheaply rebuild are appended to it: the encoder's layer-norm ``(xhat,
    inv_std)``; per block ``(xhat, inv_std, (h, gates, cell), gate)``;
    and last the dense stack. The rectified rows ``mixed`` and the LSTM's
    input copy are not kept, nor are the input frames.

    ``frames`` may be a strided window view; its C·T rows are copied out only
    for the encoder's product. Each block runs in :func:`_block_forward`, so
    nothing it made but its cache is alive when the next block allocates.
    """
    c, t_len, l_in = frames.shape
    f = config.hidden
    eps = frames.dtype.type(LN_EPS)
    enc = K.linear_forward(np.ascontiguousarray(frames.reshape(-1, l_in)), params[0], params[1])
    y, xhat, inv_std = K.layer_norm_forward(enc, *params[2:5], eps)  # y is enc, rectified
    if caches is not None:
        caches.append((xhat, inv_std))
    del enc, xhat
    # The dense stack: block b reads rows [:D_b] and writes its output to the
    # rows after them; the final block's single row is the decoder's input.
    # It is indexed D×T×F and stored F×T×D, stream axis innermost.
    dense = np.empty((f, t_len, config.block_widths[-1][0] + 1), frames.dtype).T
    dense[:c] = y.reshape(c, t_len, f)
    del y
    for b in range(1, config.blocks + 1):
        i = 10 * b - 5
        _block_forward(config, b, params[i:i + 10], dense, states[b - 1], eps, caches)
    if caches is not None:
        caches.append(dense)
    return K.linear_forward(dense[-1], params[-2], params[-1])


def _block_forward(config: ModelConfig, b, block_params, dense, state, eps, caches):
    """Block ``b`` on the stack's leading rows, its output written to the rows
    after them; its LSTM ``state`` (2×F) is overwritten with the state after
    the last frame, so no row of the LSTM's arrays outlives the block.

    The conv output becomes the rectified rows ``mixed`` in place, beside
    the normalized rows ``xhat``: two block-size buffers, one past the layer
    norm when nothing is cached. Every block tensor is stored with its
    stream axis innermost, like the dense stack: the spatial conv returns
    O×T×F stored F×T×O, the layer norm runs on a :func:`_rows` view of it,
    and the only copy is the LSTM's contiguous T×F input stream.
    """
    conv_w, conv_b, ln_g, ln_b, a, wx, wh, lstm_b, lin_w, lin_b = block_params
    lo, n_out = config.block_widths[b - 1]
    conv = _rows(K.spatial_conv_forward(dense[:lo], conv_w, conv_b))
    _, xhat, inv_std = K.layer_norm_forward(conv, ln_g, ln_b, a, eps)
    if caches is None:
        del xhat  # with no tape, nothing reads the normalized rows again
    mixed = _streams(conv, n_out + 1)  # rectified in place
    # Stream 0 is the temporal stream: LSTM plus linear, then it gates the rest.
    h, gates, cell = K.lstm_forward(np.ascontiguousarray(mixed[0]), wx, wh, lstm_b,
                                    state[0], state[1])
    gate = K.linear_forward(h[1:], lin_w, lin_b)
    # order="F" walks the S×T×F product S-fastest, in storage order; by
    # default numpy would follow the C-ordered gate and stride across F.
    np.multiply(mixed[1:], gate, out=dense[lo:lo + n_out], order="F")
    if caches is not None:
        caches.append((xhat, inv_std, (h, gates, cell), gate))
    state[0], state[1] = h[-1], cell[-1]


def _block_backward(config: ModelConfig, b, block_params, cache, dense, d_out):
    """Block ``b``'s ten parameter gradients, in ``block_params`` order, and
    its conv-output gradient ``d_mixed``, from its output gradient ``d_out``
    (S_out×T×F). The caller forms the stack's input gradient from
    ``d_mixed`` and the conv weight when it reads those rows.

    ``mixed`` and the LSTM's input stream are rebuilt from ``cache`` with
    the forward's own expressions, so they are the forward's values bit for
    bit. Stream 0 is copied out and ``mixed`` dropped before the LSTM
    backward, so no rebuilt array is alive through it. The layer norm's
    input gradient, through the PReLU, is written over ``d_mixed``.
    Everything else made here is freed on return.
    """
    conv_w, _, ln_g, ln_b, a, wx, wh, _, lin_w, _ = block_params
    xhat, inv_std, (h, gates, cell), gate = cache
    lo, n_out = config.block_widths[b - 1]
    mixed = _streams(K.layer_norm_output(xhat, ln_g, ln_b, a), n_out + 1)
    # the gate was broadcast over the S_out gated streams
    d_gate = np.einsum("stf,stf->tf", d_out, mixed[1:])
    x_lstm = np.ascontiguousarray(mixed[0])
    d_mixed = np.empty_like(mixed)
    del mixed
    d_h, d_lin_w, d_lin_b = K.linear_backward(d_gate, h[1:], lin_w)
    np.multiply(d_out, gate, out=d_mixed[1:], order="F")  # storage order, as in _forward
    del d_out
    d_mixed[0], d_wx, d_wh, d_lstm_b = K.lstm_backward(d_h, x_lstm, wx, wh, gates, cell, h)
    d_rows = _rows(d_mixed)
    d_ln_g, d_ln_b, d_a = K.layer_norm_backward(d_rows, xhat, inv_std, ln_g, ln_b, a)[1:]
    d_conv_w, d_conv_b = K.spatial_conv_backward(d_mixed, dense[:lo], conv_w)
    return (d_conv_w, d_conv_b, d_ln_g, d_ln_b, d_a, d_wx, d_wh, d_lstm_b, d_lin_w,
            d_lin_b), d_mixed


def _backward(config: ModelConfig, params, caches, g, signal):
    """Every parameter's gradient, in ``params`` order, from the gradient ``g``
    of the T×l_out frames that :func:`_forward` returned while filling
    ``caches``: the forward's layers in reverse, each through its backward
    kernel. Each gradient is stored in the order of the activation it belongs
    to, D-innermost like the stack. The LSTM backward gets the forward's
    (T+1)-row state arrays as cached and reads the previous states as views
    of them; the post-LSTM linear's backward reads rows 1..T.

    No gradient of the whole stack is held. Each finished block leaves its
    conv-output gradient and conv weight, and a block's output gradient (at
    the end, the encoder rows') is gathered from those of the later blocks
    when it is read, by :func:`~dllrnn.kernels.spatial_conv_input_grad`, last
    block first.

    The sweep pops each entry off ``caches`` as it reaches it, so a block's
    cache is freed once its backward is done and the list is empty at the
    end. The encoder's input frames are re-gathered from ``signal``, the C×N
    waveform the forward's frames were cut from, only when the sweep gets
    there.
    """
    c, f, l_in = config.channels, config.hidden, config.frame.l_in
    grads = [None] * len(params)
    dense = caches.pop()
    d_dec, grads[-2], grads[-1] = K.linear_backward(g, dense[-1], params[-2])
    done = []  # (d_mixed, conv weight) of each finished block, last block first
    for b in range(config.blocks, 0, -1):
        i = 10 * b - 5
        lo, n_out = config.block_widths[b - 1]
        # the output gradient: the decoder's input gradient for the last
        # block's single stream, else what the later blocks' convs read of
        # its rows; passed without a name here, so the block can free it
        grads[i:i + 10], d_mixed = _block_backward(
            config, b, params[i:i + 10], caches.pop(), dense,
            K.spatial_conv_input_grad(done, lo, n_out) if done else d_dec[None])
        done.append((d_mixed, params[i]))
    del dense, d_dec
    xhat, inv_std = caches.pop()
    # the encoder's C·T rows of F: a copy, as the gathered rows are D-innermost
    d_enc = np.ascontiguousarray(K.spatial_conv_input_grad(done, 0, c)).reshape(-1, f)
    del done
    grads[2:5] = K.layer_norm_backward(d_enc, xhat, inv_std, *params[2:5])[1:]
    del xhat
    x = np.ascontiguousarray(frame_signal(signal, config.frame).reshape(-1, l_in))
    grads[0], grads[1] = K.linear_backward(d_enc, x, params[0])[1:]
    return grads


def _input(y, config: ModelConfig, dtype):
    """A C×N (or N-sample) input as a C×N array of ``dtype``, its rank and
    channels checked; an input of no samples is a
    :class:`~dllrnn.errors.DegenerateInputError`."""
    y = np.asarray(y)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2:
        raise DimensionError(f"input must be C×N or N samples, got shape {y.shape}")
    if y.shape[0] != config.channels:
        raise DimensionError(f"input has {y.shape[0]} channels, config expects {config.channels}")
    if y.shape[1] == 0:
        raise DegenerateInputError("cannot enhance an empty input: it has no samples")
    return y.astype(dtype, copy=False)


def model_forward(y, config: ModelConfig, store: ParamStore, *, scale=None) -> Tensor:
    """Enhance a C×N waveform to a 1×N direct-path estimate (as a Tensor).

    With ``scale=None`` the input is normalized to pooled unit variance and
    the estimate re-scaled to input level. Passing an explicit ``scale``
    freezes the normalization, keeping the processor strictly causal — the
    streaming session and the latency check rely on that. Under an active
    tape this is one recorded op, whose backward can run once: its sweep
    frees the activations it reads. The backward reads the store's arrays as
    they are then, so an update to the store between the two changes it. An
    input with a NaN or infinite sample is a
    :class:`~dllrnn.errors.DegenerateInputError`.
    """
    dtype = store.dtype
    y = _input(y, config, dtype)  # cast before the scale is taken, as enhance_waveform does
    if scale is None:
        signal, scale = normalize_variance(y)  # rejects non-finite samples
    else:
        signal = y * np.asarray(scale, dtype=dtype)
        if not np.logical_and.reduce(np.isfinite(signal), axis=None):
            raise DegenerateInputError("cannot enhance an input with non-finite samples")
    spec, n = config.frame, y.shape[1]
    tensors = store.tensors()
    params = [t.data for t in tensors]
    # Activations are kept only when a tape will replay them.
    caches = [] if active_tape() is not None else None
    out = _forward(config, params, frame_signal(signal, spec),
                   np.zeros((config.blocks, 2, config.hidden), dtype), caches)
    t_len, inv_scale = out.shape[0], np.asarray(1.0 / scale, dtype=dtype)
    sums = overlap_add(out, spec.hop)
    counts = sums[1, :n]

    def backward(g):
        if not caches:
            raise ContractError("model_forward's backward ran already; its sweep frees the "
                                "activations, so record the forward on a new tape")
        d_out = gather_frames(g[0] * inv_scale / counts, spec.l_out, spec.hop, t_len)
        return _backward(config, params, caches, d_out, signal)

    return from_op(sums[:1, :n] / counts * inv_scale, tensors, backward)


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
    for d_in, d_out in config.block_widths:
        macs += f * (d_out + 1) * d_in
        macs += 8 * f * f                          # lstm input + recurrent products
        macs += f * f                              # post-lstm linear
    macs += l_out * f                              # decoder
    return macs


def count_flops(config: ModelConfig) -> float:
    """FLOPs per second of audio: 2·MACs/frame · frames/second."""
    frames_per_second = SAMPLE_RATE / config.frame.hop
    return 2.0 * count_macs_per_frame(config) * frames_per_second


class StreamingEnhancer:
    """Streaming enhancement session: carried input tail, LSTM states and overlap.

    A push takes any whole number of hops, C×k·hop samples, and runs the
    windows they complete through :func:`_forward`, the assembly
    :func:`model_forward` runs, in one call. It overlap-adds their frames with
    :func:`~dllrnn.framing.overlap_add` seeded with the carried sums and
    counts, and returns the 1×m·hop samples they complete, or None while
    priming (the first ``l_out/hop - 1`` hops). The parameter views are taken
    once, at construction; the store is only updated in place, so a later
    ``store.load_arrays`` or optimizer step takes effect at the next push.
    The output is bit-identical to the whole-utterance one with the same
    frozen scale, however the input is split into pushes.
    """

    def __init__(self, config: ModelConfig, store: ParamStore, scale: float = 1.0):
        self.config = config
        self.store = store
        self.dtype = store.dtype
        spec = config.frame
        self._scale = np.asarray(scale, dtype=self.dtype)
        self._inv_scale = np.asarray(1.0 / scale, dtype=self.dtype)
        # scaled input no window has consumed yet; at first, frame 0's left padding
        self._tail = np.zeros((config.channels, spec.pad_left), dtype=self.dtype)
        # overlap sums and window counts of the samples not yet emitted
        self._carry = np.zeros((2, spec.l_out - spec.hop), dtype=self.dtype)
        self._params = [t.data for t in store.tensors()]
        self._states = np.zeros((config.blocks, 2, config.hidden), dtype=self.dtype)

    def push(self, block):
        """Feed C×k·hop input samples (k >= 1); returns the 1×m·hop output
        samples they complete, or None while priming. A block with a NaN or
        infinite sample is a :class:`~dllrnn.errors.DegenerateInputError`,
        raised before the session's state changes."""
        spec = self.config.frame
        block = np.multiply(block, self._scale, dtype=self.dtype)  # cast, then scale
        if block.ndim == 1:
            block = block[None, :]
        if (block.ndim != 2 or block.shape[0] != self.config.channels
                or block.shape[1] == 0 or block.shape[1] % spec.hop):
            raise DimensionError(f"push expects {self.config.channels} channels of a whole "
                                 f"number of {spec.hop}-sample hops, got {block.shape}")
        # checked before the carried input and LSTM states are touched, so a
        # rejected push leaves the session as it was (one reduce call, where
        # `.all()` goes through two more Python-level calls)
        if not np.logical_and.reduce(np.isfinite(block), axis=None):
            raise DegenerateInputError("cannot enhance an input with non-finite samples")
        data = np.concatenate((self._tail, block), axis=1)
        m = (data.shape[1] - spec.l_in) // spec.hop + 1  # windows completed
        if m < 1:
            self._tail = data
            return None
        self._tail = data[:, m * spec.hop:]
        out = _forward(self.config, self._params, windows(data, spec.l_in, spec.hop), self._states)
        sums = overlap_add(out, spec.hop, self._carry)
        self._carry = sums[:, m * spec.hop:]
        emitted = sums[:1, :m * spec.hop] / sums[1, :m * spec.hop]
        emitted *= self._inv_scale
        return emitted


# Inputs go through a session in pushes of this many hops (1 s at the
# default 16-sample hop), so memory stays bounded however long the input.
_BLOCK_HOPS = 1000


def enhance_waveform(y, config: ModelConfig, store: ParamStore, *, scale=None):
    """Run a full utterance through one streaming session; returns 1×N array.

    Bit-identical to ``model_forward(y, ...).data``. The input's channels are
    checked as there, then it is cast to the parameter dtype, zero-padded
    until its last frame has been emitted, and pushed in blocks of
    ``_BLOCK_HOPS`` hops; this is also how the CLI enhances files, so there
    is a single inference path.
    """
    y = _input(y, config, store.dtype)
    if scale is None:
        _, scale = normalize_variance(y)
    spec, n = config.frame, y.shape[1]
    total = (spec.n_frames(n) + spec.l_out // spec.hop - 1) * spec.hop  # last frame emitted
    padded = np.pad(y, ((0, 0), (0, total - n)))
    session = StreamingEnhancer(config, store, scale)
    step = _BLOCK_HOPS * spec.hop
    pieces = [session.push(padded[:, k:k + step]) for k in range(0, total, step)]
    return np.concatenate([p for p in pieces if p is not None], axis=1)[:, :n]
