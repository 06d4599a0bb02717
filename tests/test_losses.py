"""STFT against direct DFT sums, the spectral-magnitude loss, and SI-SDR."""

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn.errors import DegenerateInputError, DimensionError
from dllrnn.losses import (SI_SDR_CAP_DB, STFT_HOP, STFT_WINDOW, pcm_loss, si_sdr, stft)
from dllrnn.tensor import Tape, Tensor
from conftest import fd_grad, rel_err

# Frozen oracle: pcm_loss(0, x, y=x) for x = sin(2*pi*8*n/512), window 512 hop
# 256, computed by an independent per-bin DFT summation script in float64.
SINE_BIN8_PCM = 1.9922178988332409


def _direct_dft(x, window):
    """Independent reference: windowed per-bin DFT sums, no library reuse."""
    n = np.arange(window)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window)
    bins = window // 2 + 1
    xw = x[:window] * win
    real = np.array([np.sum(xw * np.cos(2.0 * np.pi * n * k / window)) for k in range(bins)])
    imag = np.array([np.sum(xw * -np.sin(2.0 * np.pi * n * k / window)) for k in range(bins)])
    return real, imag


def test_stft_shapes_and_bins():
    real, imag = stft(np.zeros(4096))
    assert real.shape[1] == STFT_WINDOW // 2 + 1
    assert real.shape[0] == 1 + -(-(4096 - STFT_WINDOW) // STFT_HOP)
    short, _ = stft(np.zeros(100))
    assert short.shape[0] == 1  # shorter than one window pads to a single frame


def test_stft_zero_signal():
    real, imag = stft(np.zeros(1000))
    npt.assert_array_equal(real, 0.0)
    npt.assert_array_equal(imag, 0.0)


def test_stft_impulse_oracle():
    # impulse at n=0: coefficients are win[0] * DFT(delta) = win[0] = 0 for Hann
    x = np.zeros(STFT_WINDOW)
    x[0] = 1.0
    spec_real, spec_imag = stft(x)
    win0 = 0.5 - 0.5 * np.cos(0.0)
    npt.assert_allclose(spec_real[0], win0, atol=1e-12)
    npt.assert_allclose(spec_imag[0], 0.0, atol=1e-12)
    # impulse at n=5 against the direct DFT sum
    x = np.zeros(STFT_WINDOW)
    x[5] = 1.0
    spec_real, spec_imag = stft(x)
    real, imag = _direct_dft(x, STFT_WINDOW)
    npt.assert_allclose(spec_real[0], real, atol=1e-9)
    npt.assert_allclose(spec_imag[0], imag, atol=1e-9)


def test_stft_matches_direct_dft_on_random_frame():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    spec_real, spec_imag = stft(x, window=64, hop=32)
    real, imag = _direct_dft(x, 64)
    npt.assert_allclose(spec_real[0], real, rtol=1e-9, atol=1e-9)
    npt.assert_allclose(spec_imag[0], imag, rtol=1e-9, atol=1e-9)


def test_stft_linearity():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(2000), rng.standard_normal(2000)
    sum_real, sum_imag = stft(a + b)
    (a_real, a_imag), (b_real, b_imag) = stft(a), stft(b)
    npt.assert_allclose(sum_real, a_real + b_real,
                        rtol=1e-9, atol=1e-9)
    npt.assert_allclose(sum_imag, a_imag + b_imag,
                        rtol=1e-9, atol=1e-9)


def test_stft_parameter_validation():
    with pytest.raises(DimensionError):
        stft(np.zeros(100), window=100)       # not a power of two
    with pytest.raises(DimensionError):
        stft(np.zeros(100), window=64, hop=65)
    with pytest.raises(DimensionError):
        stft(np.zeros(100), window=64, hop=0)
    with pytest.raises(DimensionError):
        stft(np.zeros((3, 100)))              # multichannel input


def test_pcm_loss_perfect_estimate_is_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3000)
    y = x + rng.standard_normal(3000)
    assert pcm_loss(x, x, y).item() == 0.0


def test_pcm_loss_nonnegative_and_length_check():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x_hat, x, y = (rng.standard_normal(1500) for _ in range(3))
        assert pcm_loss(x_hat, x, y).item() >= 0.0
    with pytest.raises(DimensionError):
        pcm_loss(np.zeros(100), np.zeros(101), np.zeros(100))


def test_pcm_loss_sine_oracle():
    n = np.arange(512)
    x = np.sin(2.0 * np.pi * 8.0 * n / 512)
    value = pcm_loss(np.zeros(512), x, x).item()
    npt.assert_allclose(value, SINE_BIN8_PCM, rtol=1e-9)


def test_pcm_loss_substitution_symmetry():
    # swapping estimate and target for their mixture complements leaves the
    # two terms of the loss exchanged, so the total is unchanged
    rng = np.random.default_rng(4)
    for _ in range(5):
        x_hat, x, y = (rng.standard_normal(2000) for _ in range(3))
        a = pcm_loss(x_hat, x, y).item()
        b = pcm_loss(y - x_hat, y - x, y).item()
        assert abs(a - b) < 1e-10


def _check_pcm_loss_gradient_fd(n):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n)
    y = x + 0.3 * rng.standard_normal(n)
    x_hat0 = x + 0.2 * rng.standard_normal(n)

    def value(v):
        return pcm_loss(v, x, y).item()

    leaf = Tensor(x_hat0, requires_grad=True)
    with Tape() as tape:
        tape.backward(pcm_loss(leaf, x, y))
    assert rel_err(leaf.grad, fd_grad(value, x_hat0)) < 1e-4


def test_pcm_loss_gradient_fd():
    _check_pcm_loss_gradient_fd(600)


# Shorter than one window, exactly one window, one past it, and a multiple of
# the hop: the tail padding and both phases of the frame gather's adjoint.
@pytest.mark.parametrize("n", [100, 512, 513, 1024])
def test_pcm_loss_gradient_fd_at_window_edges(n):
    _check_pcm_loss_gradient_fd(n)


def test_pcm_loss_accepts_row_vectors():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(800)
    y = rng.standard_normal(800)
    flat = pcm_loss(x * 0.5, x, y).item()
    rows = pcm_loss((x * 0.5)[None], x[None], y[None]).item()
    assert flat == rows


def test_si_sdr_hand_case_is_exact_zero():
    # alpha = 1, signal power 1, error power 1 -> exactly 0 dB
    assert si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == 0.0


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(7)
    s = rng.standard_normal(4000)
    s_hat = s + 0.1 * rng.standard_normal(4000)
    base = si_sdr(s_hat, s)
    for c in (2.0, 0.003, -1.0, -17.5):
        assert abs(si_sdr(c * s_hat, s) - base) < 1e-9
    assert si_sdr(-s_hat, s) == si_sdr(s_hat, s)


def test_si_sdr_cap_and_errors():
    s = np.random.default_rng(8).standard_normal(1000)
    assert si_sdr(s, s) == SI_SDR_CAP_DB
    assert si_sdr(3.7 * s, s) == SI_SDR_CAP_DB
    with pytest.raises(DegenerateInputError):
        si_sdr(s, np.zeros(1000))
    with pytest.raises(DimensionError):
        si_sdr(np.zeros(10), np.ones(11))


def test_si_sdr_orthogonal_estimate_is_floored_not_infinite():
    # estimate orthogonal to the reference: alpha = 0, target energy 0; the
    # epsilon guard keeps the value finite instead of -inf
    value = si_sdr(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(value)
    assert value < -100.0
