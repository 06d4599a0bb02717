"""Framing geometry, variance normalization, overlap-add, and the latency check."""

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn.errors import DegenerateInputError, DimensionError
from dllrnn.framing import (FrameSpec, frame_signal, gather_frames, latency_check,
                            normalize_variance, overlap_add, overlap_sum, windows)


def test_frame_spec_defaults_and_validation():
    spec = FrameSpec()
    assert (spec.l_in, spec.l_out, spec.hop) == (256, 32, 16)
    assert spec.pad_left == 224
    assert spec.n_frames(64) == 4
    assert spec.n_frames(65) == 5
    with pytest.raises(DimensionError):
        FrameSpec(l_in=8, l_out=16, hop=4)      # l_out > l_in
    with pytest.raises(DimensionError):
        FrameSpec(l_in=32, l_out=8, hop=16)     # hop > l_out
    with pytest.raises(DimensionError):
        FrameSpec(l_in=32, l_out=12, hop=8)     # l_out not multiple of hop
    with pytest.raises(DimensionError):
        FrameSpec(l_in=32, l_out=8, hop=0)


def test_frame_signal_default_layout():
    x = np.arange(1.0, 65.0)  # N=64, values 1..64 so zeros are unambiguous
    frames = frame_signal(x, FrameSpec())
    assert frames.shape == (1, 4, 256)
    # frame 0: 224 left-pad zeros, then original samples 0..31
    npt.assert_array_equal(frames[0, 0, :224], 0.0)
    npt.assert_array_equal(frames[0, 0, 224:], x[:32])
    # frame t's rightmost l_out samples = original [t*hop, t*hop+l_out), zero-padded
    for t in range(4):
        want = np.zeros(32)
        chunk = x[t * 16:t * 16 + 32]
        want[:len(chunk)] = chunk
        npt.assert_array_equal(frames[0, t, -32:], want)


def test_frame_signal_degenerate_spec_is_plain_segmentation():
    spec = FrameSpec(l_in=8, l_out=8, hop=8)
    assert spec.pad_left == 0
    x = np.arange(16.0)
    frames = frame_signal(x, spec)
    npt.assert_array_equal(frames[0], x.reshape(2, 8))


def test_windows_are_read_only_views_equal_to_gather_frames():
    # windows and frame_signal cut without a copy, and a window cannot be
    # written through; their rows are gather_frames' rows
    spec = FrameSpec()
    x = np.random.default_rng(3).standard_normal((3, 203)).astype(np.float32)
    t = spec.n_frames(203)
    framed = frame_signal(x, spec)
    gathered = gather_frames(x, spec.l_in, spec.hop, t, spec.pad_left)
    data = np.ascontiguousarray(x[:, 3:])
    cut = windows(data, 40, 8)
    assert cut.shape == (3, (200 - 40) // 8 + 1, 40)
    for view, want in ((framed, gathered), (cut, gather_frames(data, 40, 8, cut.shape[1]))):
        assert not view.flags.writeable and not view.flags.owndata
        assert view.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1.0
    assert np.shares_memory(cut, data)


def test_frame_signal_errors_and_channels():
    with pytest.raises(DegenerateInputError):
        frame_signal(np.zeros((2, 0)), FrameSpec())
    frames = frame_signal(np.ones((3, 100)), FrameSpec())
    assert frames.shape == (3, FrameSpec().n_frames(100), 256)


@pytest.mark.parametrize("width,hop", [(32, 16), (512, 256), (64, 16)])
def test_overlap_sum_is_adjoint_of_gather_frames(width, hop):
    # <overlap_sum(G), x> = <G, gather_frames(x)>, with leading zeros and a padded tail
    rng = np.random.default_rng(width + hop)
    n, left = 5 * width + 3, width - hop
    t = -(-(n + left - width) // hop) + 1
    x = rng.standard_normal((2, n))
    g = rng.standard_normal((2, t, width))
    gathered = gather_frames(x, width, hop, t, left)
    assert gathered.shape == (2, t, width)
    summed = overlap_sum(g, hop)[:, left:left + n]
    assert abs(np.sum(summed * x) - np.sum(g * gathered)) <= 1e-12 * np.sum(np.abs(g * gathered))
    with pytest.raises(DimensionError, match="hop"):
        overlap_sum(np.zeros((3, width + 1)), hop)


def test_overlap_sum_matches_frame_by_frame_loop():
    # the loop overlap_sum replaced is the reference: equal bits at R = 2 and
    # R = 4, because each sample still sums its frames in increasing order
    rng = np.random.default_rng(5)
    for width, hop in ((32, 16), (64, 16)):
        frames = rng.standard_normal((2, 37, width)).astype(np.float32)
        want = np.zeros((2, 36 * hop + width), np.float32)
        for t in range(37):
            want[:, t * hop:t * hop + width] += frames[:, t]
        npt.assert_array_equal(overlap_sum(frames, hop), want)


def test_overlap_sum_carry_joins_consecutive_calls():
    # summing frames in consecutive runs, each seeded with the previous run's
    # unfinished tail, gives the bits of one call over all of them
    rng = np.random.default_rng(6)
    for width, hop in ((32, 16), (64, 16), (16, 16)):
        frames = rng.standard_normal((2, 37, width)).astype(np.float32)
        carry, pieces = np.zeros((2, width - hop), np.float32), []
        for a, b in ((0, 1), (1, 4), (4, 11), (11, 37)):
            sums = overlap_sum(frames[:, a:b], hop, carry)
            pieces.append(sums[:, :(b - a) * hop])
            carry = sums[:, (b - a) * hop:]
        joined = np.concatenate(pieces + [carry], axis=1)
        assert joined.tobytes() == overlap_sum(frames, hop).tobytes()


def test_interior_samples_covered_by_two_frames():
    spec = FrameSpec()
    counts = overlap_add(np.zeros((spec.n_frames(1000), spec.l_out)), spec.hop)[1]
    # steady state: every sample past the first window is covered l_out/hop = 2 times
    assert np.all(counts[spec.l_out - spec.hop:1000] == 2.0)
    assert np.all(counts[:spec.l_out - spec.hop] == 1.0)


def _synthesize(frames, hop, n):
    """The overlap-added frames over their window counts, cut to n samples."""
    sums = overlap_add(frames, hop)
    return sums[0, ..., :n] / sums[1, ..., :n]


def test_overlap_add_constants_and_errors():
    spec = FrameSpec()
    t = spec.n_frames(500)
    zeros = np.zeros((1, t, spec.l_out))
    npt.assert_array_equal(_synthesize(zeros, spec.hop, 500), np.zeros((1, 500)))
    const = np.full((t, spec.l_out), 3.0)
    out = _synthesize(const, spec.hop, 500)
    npt.assert_allclose(out[spec.l_out:], 3.0)
    with pytest.raises(DimensionError, match="hop"):
        overlap_add(np.zeros((t, spec.l_out - 1)), spec.hop)


def test_roundtrip_exact_on_interior_100_random_signals():
    spec = FrameSpec()
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(64, 4097))
        x = rng.standard_normal(n)
        frames = frame_signal(x, spec)
        back = _synthesize(frames[0, :, -spec.l_out:], spec.hop, n)
        assert np.abs(back[spec.l_out:] - x[spec.l_out:]).max() <= 1e-12


def test_normalize_variance():
    rng = np.random.default_rng(1)
    y = 2.0 * rng.standard_normal((2, 4000))
    y = y / np.std(y) * 2.0  # pooled variance exactly-ish 4
    scaled, scale = normalize_variance(y)
    assert abs(scale - 0.5) < 1e-6
    assert abs(np.var(scaled) - 1.0) < 1e-6
    unit = rng.standard_normal(5000)
    unit /= np.std(unit)
    _, s1 = normalize_variance(unit)
    assert abs(s1 - 1.0) < 1e-6
    # float32 samples at standard deviation 1e-39 need a scale past float32's
    # largest value: refused before the cast, which would give inf
    with pytest.raises(DegenerateInputError, match=r"deviation 1e-39: .* overflows float32"):
        normalize_variance((unit * 1e-39).astype(np.float32))
    with pytest.raises(DegenerateInputError):
        normalize_variance(np.zeros((2, 100)))
    # a constant, or a single sample, has variance zero: its scale would be inf
    for constant in (np.full((2, 100), 0.25, np.float32), np.array([[-3.0]])):
        with pytest.raises(DegenerateInputError, match="constant"):
            normalize_variance(constant)


def test_normalize_variance_rejects_a_non_finite_variance():
    # one NaN, one inf, or finite samples whose variance overflows: a named
    # error, not a NaN scale and not a RuntimeWarning
    rng = np.random.default_rng(3)
    for bad in (np.nan, np.inf, -np.inf):
        y = rng.standard_normal((2, 800)).astype(np.float32)
        y[1, 400] = bad
        with pytest.raises(DegenerateInputError, match="not finite"):
            normalize_variance(y)
    with pytest.raises(DegenerateInputError, match="not finite"):
        normalize_variance(np.array([[1e300, -1e300, 3.0]]))


def test_normalize_variance_power_of_two_bit_identity():
    # scaling the input by 2^k changes the normalized output not at all
    rng = np.random.default_rng(2)
    y = rng.standard_normal((2, 1000)).astype(np.float32)
    base, _ = normalize_variance(y)
    for factor in (2.0, 0.25, 1024.0):
        scaled, _ = normalize_variance(y * np.float32(factor))
        npt.assert_array_equal(scaled, base)


def _identity_model(spec):
    def model(x):
        frames = frame_signal(x, spec)
        return _synthesize(frames[:1, :, -spec.l_out:], spec.hop, x.shape[-1])
    return model


def test_latency_check_identity_model_passes():
    spec = FrameSpec()
    report = latency_check(_identity_model(spec), spec, trials=16, n_samples=1024, seed=3)
    assert report.passed
    assert report.bound == 32
    assert len(report.trials) == 16
    for tr in report.trials:
        assert not tr.violation
        assert tr.earliest_changed > tr.perturbed - spec.l_out
    assert "PASS" in str(report)


def test_latency_check_catches_future_readers():
    # a model looking one frame ahead moves information l_out + hop early
    spec = FrameSpec()
    shift = spec.l_out + spec.hop

    def future_model(x):
        out = np.zeros(x.shape[-1], dtype=x.dtype)
        out[:-shift] = x[0, shift:]
        return out[None]

    report = latency_check(future_model, spec, trials=8, n_samples=1024, seed=4)
    assert not report.passed
    for tr in report.trials:
        assert tr.violation
        assert tr.earliest_changed == tr.perturbed - shift
    assert "VIOLATION" in str(report)
    assert f"m={report.trials[0].perturbed}" in str(report)
