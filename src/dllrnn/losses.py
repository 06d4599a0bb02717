"""Spectral loss and evaluation metric.

The training loss compares summed |real| + |imaginary| STFT magnitudes of the
estimate against the target with an L1 distance, applied twice: once to the
speech estimate and once to the implied interference estimate (mixture minus
speech). Keeping real and imaginary parts separate inside the magnitude makes
the loss sensitive to phase while remaining cheap and differentiable.

The loss is one tape op with a hand-written backward. Its forward takes the
Hann-windowed STFT of the estimate, target and mixture once each, through
the frame gather and cached ``[cos | -sin]`` basis product :func:`stft` also
uses, and forms the interference spectra by subtraction, since the STFT is
linear. Its backward sends sign(diff)·sign(spectrum) back through the
transposed basis, then through :func:`~dllrnn.framing.overlap_sum`, the
adjoint of the frame gather. Evaluation uses scale-invariant SDR, computed
in double precision outside the tape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .framing import gather_frames, overlap_sum
from .tensor import Tensor, from_op

STFT_WINDOW = 512
STFT_HOP = STFT_WINDOW // 2
SI_SDR_CAP_DB = 80.0
SI_SDR_EPS = 1e-12


@lru_cache(maxsize=8)
def _dft_basis(window: int, dtype) -> np.ndarray:
    """Hann-windowed onesided ``[cos | -sin]`` DFT basis, window × 2·bins.

    Built in double precision and cast once per dtype; read-only because it
    is shared through the cache.
    """
    n = np.arange(window)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window)
    phase = 2.0 * np.pi * np.outer(n, np.arange(window // 2 + 1)) / window
    basis = (win[:, None] * np.hstack([np.cos(phase), -np.sin(phase)])).astype(dtype)
    basis.flags.writeable = False
    return basis


def _flat(x) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.ndim == 2 and x.shape[0] == 1:
        x = x[0]
    if x.ndim != 1:
        raise DimensionError(f"expected a single-channel waveform, got shape {x.shape}")
    return x


def _spectrum(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Frames × ``[real | imag]`` DFT bins: one frame, or enough at ``hop`` to cover the tail."""
    n_frames = 1 + max(0, -(-(x.shape[0] - window) // hop))
    return gather_frames(x, window, hop, n_frames) @ _dft_basis(window, x.dtype)


def stft(x, window: int = STFT_WINDOW, hop: int = STFT_HOP):
    """Hann-windowed onesided DFT of a 1-d signal as ``(real, imag)`` arrays.

    Each array is T_s frames by window/2 + 1 bins. ``window`` must be a power
    of two and ``hop`` at most the window. Signals shorter than one window
    are zero-padded to a single frame.
    """
    if window < 2 or window & (window - 1):
        raise DimensionError(f"stft window must be a power of two, got {window}")
    if not (1 <= hop <= window):
        raise DimensionError(f"stft hop {hop} must lie in [1, window={window}]")
    spec = _spectrum(_flat(x), window, hop)
    bins = window // 2 + 1
    return spec[:, :bins], spec[:, bins:]


def pcm_loss(x_hat, x, y) -> Tensor:
    """Phase-constrained magnitude loss of an estimate against target + mixture.

    ``x_hat`` is the speech estimate (typically on the tape), ``x`` the
    direct-path target and ``y`` the reference-microphone mixture. The loss is
    the spectral L1 term on (x, x̂) plus the same term on the interference
    estimates (y − x, y − x̂). Each input is a length-N or 1×N waveform.
    """
    inputs = [v if isinstance(v, Tensor) else Tensor(v) for v in (x_hat, x, y)]
    signals = [_flat(t.data) for t in inputs]
    if not (signals[0].shape == signals[1].shape == signals[2].shape):
        raise DimensionError(
            f"pcm_loss lengths differ: estimate {signals[0].shape}, target "
            f"{signals[1].shape}, mixture {signals[2].shape}"
        )
    n = signals[0].shape[0]
    dtype = np.result_type(*signals)
    basis = _dft_basis(STFT_WINDOW, dtype)
    bins = STFT_WINDOW // 2 + 1
    s_hat, s, s_mix = (_spectrum(v.astype(dtype, copy=False), STFT_WINDOW, STFT_HOP)
                       for v in signals)
    value = 0.0
    terms = []  # per term, d(term)/d(reference spectrum) and d(term)/d(estimate spectrum)
    for ref, est in ((s, s_hat), (s_mix - s, s_mix - s_hat)):
        # Both magnitudes are summed before the difference, so an exact
        # estimate scores exactly 0.
        diff = ((np.abs(ref[:, :bins]) + np.abs(ref[:, bins:]))
                - (np.abs(est[:, :bins]) + np.abs(est[:, bins:])))
        value = value + np.abs(diff).mean()
        d_mag = np.tile(np.sign(diff) / diff.size, 2)
        terms.append((d_mag * np.sign(ref), -d_mag * np.sign(est)))
    (d_s, d_s_hat), (d_noise, d_noise_hat) = terms
    # y − x and y − x̂ are linear in the three signals' spectra.
    spectral = (d_s_hat - d_noise_hat, d_s - d_noise, d_noise + d_noise_hat)

    def backward(g):
        return tuple(overlap_sum((ds * g) @ basis.T, STFT_HOP)[:n].reshape(t.shape)
                     if t.requires_grad else None for t, ds in zip(inputs, spectral))

    return from_op(np.asarray(value, dtype=dtype), inputs, backward)


def si_sdr(s_hat, s) -> float:
    """Scale-invariant SDR in dB of an estimate against a reference.

    The reference is rescaled by its least-squares projection coefficient
    before measuring distortion; the result is floored via a 1e-12 error
    guard and capped at 80 dB so perfect estimates stay finite.
    """
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if s_hat.shape != s.shape:
        raise DimensionError(f"si_sdr lengths differ: {s_hat.shape} vs {s.shape}")
    energy = float(np.dot(s, s))
    if energy == 0.0:
        raise DegenerateInputError("si_sdr reference has zero energy")
    alpha = float(np.dot(s_hat, s)) / energy
    target = alpha * s
    err = target - s_hat
    ratio = max(float(np.dot(target, target)), SI_SDR_EPS) / max(float(np.dot(err, err)), SI_SDR_EPS)
    return min(10.0 * np.log10(ratio), SI_SDR_CAP_DB)
