"""Waveform framing, overlap-add synthesis, and the latency contract.

The enhancer consumes frames of ``l_in`` samples taken every ``hop`` samples
and emits the rightmost ``l_out`` samples of each frame. The input is
left-padded with ``l_in - l_out`` zeros so that frame ``t``'s emitted window
lines up with original samples ``[t*hop, t*hop + l_out)``; the algorithmic
latency of the whole arrangement is therefore ``l_out`` samples (2 ms at the
defaults), independent of compute speed.

``latency_check`` asserts that property bit-exactly: it perturbs single input
samples and verifies that no output sample earlier than the bound changes.

Samples and frames are mapped in one place: :func:`windows` cuts windows
every hop, for :func:`gather_frames`, :func:`frame_signal` and the streaming
push, and :func:`overlap_sum`, their adjoint, adds them back (Griffin & Lim,
IEEE TASSP 1984). :func:`overlap_add`, the one synthesis, sums frames and
their window counts as one stack. The loss's STFT and both gradients use
the same pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionError

SAMPLE_RATE = 16000


@dataclass(frozen=True)
class FrameSpec:
    """Frame geometry: input length, output length, and hop, in samples."""

    l_in: int = 256
    l_out: int = 32
    hop: int = 16

    def __post_init__(self):
        if not (1 <= self.hop <= self.l_out <= self.l_in):
            raise DimensionError(
                f"need hop <= l_out <= l_in, got ({self.l_in}, {self.l_out}, {self.hop})"
            )
        if self.l_out % self.hop:
            raise DimensionError(f"l_out {self.l_out} not a multiple of hop {self.hop}")

    @property
    def pad_left(self):
        return self.l_in - self.l_out

    def n_frames(self, n_samples: int) -> int:
        return -(-n_samples // self.hop)


def normalize_variance(y):
    """Scale a C×N waveform to pooled variance one; returns (scaled, scale).

    The scale is 1/std over all C·N samples, returned so callers can undo the
    normalization on the enhanced output. A waveform that is all zeros,
    constant, has a non-finite variance (a NaN or infinite sample), or is so
    quiet that its scale overflows its dtype is a
    :class:`DegenerateInputError`. Scaling the input by a power of two
    changes the output bit-for-bit not at all; for other factors the result
    agrees to rounding error.
    """
    y = np.asarray(y)
    if y.size == 0 or not np.any(y):
        raise DegenerateInputError("cannot normalize an all-zero waveform")
    with np.errstate(invalid="ignore", over="ignore"):
        var = float(np.var(y.astype(np.float64, copy=False)))
    if not math.isfinite(var):
        raise DegenerateInputError("cannot normalize a waveform whose variance is not finite "
                                   "(non-finite or overflowing samples)")
    if var == 0.0:
        raise DegenerateInputError("cannot normalize a constant waveform: its variance is zero")
    scale = 1.0 / np.sqrt(var)
    if scale > np.finfo(y.dtype).max:  # checked before the cast, which would give inf
        raise DegenerateInputError(f"cannot normalize a waveform of standard deviation "
                                   f"{np.sqrt(var):.3g}: its scale {scale:.3g} overflows {y.dtype}")
    return (y * np.asarray(scale, dtype=y.dtype)).astype(y.dtype), scale


def windows(data, width: int, hop: int):
    """Every whole window ``data[..., t*hop : t*hop + width]`` along the last axis
    of C-contiguous ``data`` (at least ``width`` long), as a read-only strided view."""
    item = data.itemsize
    view = np.ndarray(data.shape[:-1] + ((data.shape[-1] - width) // hop + 1, width),
                      data.dtype, data, 0, data.strides[:-1] + (hop * item, item))
    view.flags.writeable = False
    return view


def _padded_windows(x, width: int, hop: int, n_frames: int, left: int):
    """``n_frames`` :func:`windows` of one copy of x, after ``left`` zeros and zero-padded."""
    padded = np.zeros(x.shape[:-1] + ((n_frames - 1) * hop + width,), dtype=x.dtype)
    padded[..., left:left + x.shape[-1]] = x
    return windows(padded, width, hop)


def gather_frames(x, width: int, hop: int, n_frames: int, left: int = 0):
    """``n_frames`` windows of ``width`` samples every ``hop`` along x's last axis.

    x follows ``left`` zeros and is zero-padded at the tail; window t covers
    padded samples [t*hop, t*hop + width). Returns a contiguous array.
    """
    return np.ascontiguousarray(_padded_windows(x, width, hop, n_frames, left))


def overlap_sum(frames, hop: int, carry=None):
    """Adjoint of :func:`gather_frames`: add ...×T×width windows back at ``hop``.

    Needs hop | width: the sum is width/hop slice-adds of hop-sample pieces,
    and each sample sums its covering windows in increasing window order.
    ``carry``, the ...×(width - hop) tail of an earlier call's output, seeds
    the first samples, so summing a sequence of windows in consecutive calls
    gives the bits of one call over all of them.
    """
    *lead, t, width = frames.shape
    if width % hop:
        raise DimensionError(f"overlap_sum needs hop | width, got width {width}, hop {hop}")
    r = width // hop
    out = np.zeros((*lead, (t + r - 1) * hop), dtype=frames.dtype)
    if carry is not None:
        out[..., :width - hop] = carry
    pieces = out.reshape(*lead, t + r - 1, hop)
    for k in range(r - 1, -1, -1):
        pieces[..., k:k + t, :] += frames[..., k * hop:(k + 1) * hop]
    return out


def frame_signal(x, spec: FrameSpec):
    """Slice a C×N waveform into C×T×l_in overlapped frames.

    The signal is left-padded with ``l_in - l_out`` zeros and right-padded
    with zeros to complete the last frame; T = ceil(N / hop). Frame t covers
    padded samples [t*hop, t*hop + l_in), so its rightmost l_out samples
    align with original samples [t*hop, t*hop + l_out). The frames are a
    read-only strided view of one padded copy of x, l_in/hop times smaller
    than the frames themselves; ``np.ascontiguousarray`` materializes them.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] == 0:
        raise DegenerateInputError("cannot frame an empty signal")
    return _padded_windows(x, spec.l_in, spec.hop, spec.n_frames(x.shape[1]), spec.pad_left)


def overlap_add(frames, hop: int, carry=None):
    """The 2×... :func:`overlap_sum` of ...×T×width frames (row 0) and of as
    many windows of ones (row 1, each sample's window count); the synthesis
    is row 0 over row 1. ``carry`` is as in :func:`overlap_sum`, two rows high.
    """
    stack = np.empty((2,) + frames.shape, frames.dtype)
    stack[0] = frames
    stack[1] = 1
    return overlap_sum(stack, hop, carry)


@dataclass
class LatencyTrial:
    perturbed: int            # input sample index m that was perturbed
    earliest_changed: int     # first output index that differed, -1 if none
    violation: bool


@dataclass
class LatencyReport:
    bound: int
    passed: bool = True
    trials: list = field(default_factory=list)

    def __str__(self):
        lines = [f"latency bound: {self.bound} samples, {'PASS' if self.passed else 'FAIL'}"]
        for tr in self.trials:
            status = "VIOLATION" if tr.violation else "ok"
            lines.append(
                f"  perturb m={tr.perturbed} -> earliest changed n={tr.earliest_changed} [{status}]"
            )
        return "\n".join(lines)


def latency_check(model_fn, spec: FrameSpec, trials: int = 32, *, n_samples: int = 2048,
                  channels: int = 1, seed: int = 0, magnitude: float = 0.5) -> LatencyReport:
    """Assert bit-exactly that no output sample depends on input l_out ahead.

    ``model_fn`` maps a C×N float array to a 1×N (or N) array. Each trial
    perturbs one input sample at position m and requires every output sample
    n with n <= m - l_out to be bit-identical to the unperturbed run. The
    report lists, per trial, the earliest output index that changed; a trial
    fails when that index falls inside the protected region.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((channels, n_samples)).astype(np.float32)
    ref = np.asarray(model_fn(base)).reshape(-1)
    report = LatencyReport(bound=spec.l_out)
    for _ in range(trials):
        m = int(rng.integers(spec.l_out + spec.hop, n_samples))
        ch = int(rng.integers(0, channels))
        bumped = base.copy()
        bumped[ch, m] += magnitude
        out = np.asarray(model_fn(bumped)).reshape(-1)
        changed = np.nonzero(out != ref)[0]
        earliest = int(changed[0]) if changed.size else -1
        violation = changed.size > 0 and earliest <= m - spec.l_out
        report.trials.append(LatencyTrial(m, earliest, violation))
        if violation:
            report.passed = False
    return report
