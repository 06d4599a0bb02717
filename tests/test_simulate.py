"""Room simulation: image enumeration against hand geometry, frozen RIR taps,
SNR bookkeeping, and scene/mixture contracts."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn import simulate
from dllrnn.errors import DataError, DegenerateInputError, DimensionError, GeometryError
from dllrnn.simulate import (MixtureExample, RoomSpec, Scene, _axis_images, _smooth_len,
                             achieved_snr, draw_scene, fftconvolve, iir_filter, image_sources,
                             manifest_read, manifest_write, mic_circle, pink_noise, simulate_rir,
                             spatialize_mixture, speech_like, white_noise)

ROOM = RoomSpec(length=6.0, width=6.0, height=6.0, absorption=0.3)


def test_room_spec_validation():
    with pytest.raises(GeometryError):
        RoomSpec(length=0.0, width=4.0, height=3.0, absorption=0.3)
    with pytest.raises(GeometryError):
        RoomSpec(length=4.0, width=-1.0, height=3.0, absorption=0.3)
    with pytest.raises(GeometryError):
        RoomSpec(length=4.0, width=4.0, height=3.0, absorption=0.0)
    with pytest.raises(GeometryError):
        RoomSpec(length=4.0, width=4.0, height=3.0, absorption=1.0)


def test_simulate_rir_geometry_errors():
    with pytest.raises(GeometryError):
        simulate_rir(ROOM, [2.0, 2.0, 2.0], [[6.05, 2.0, 2.0]], order=0)  # in the wall margin
    with pytest.raises(GeometryError):
        simulate_rir(ROOM, [-1.0, 2.0, 2.0], [[2.0, 2.0, 2.0]], order=0)
    with pytest.raises(GeometryError):
        simulate_rir(ROOM, [2.0, 2.0, 2.0], [[2.0, 2.0, 2.0]], order=0)
    with pytest.raises(GeometryError):
        simulate_rir(ROOM, [2.0, 2.0, 2.0], [[3.0, 2.0, 2.0]], order=-1)


def test_order_above_max_is_refused_before_any_image(monkeypatch):
    # MAX_ORDER is the largest order whose images fit 256 MiB at the
    # measured ~3.6 KiB per image; orders past it are refused before
    # image_sources runs, so no test enumerates them
    def n_images(order):
        return (2 * order + 1) * (2 * order * order + 2 * order + 3) // 3

    for order in (0, 1, 2, 6, 12):
        assert len(image_sources(ROOM, [2.0, 2.5, 1.5], order)[1]) == n_images(order)
    per_image, allowance = 3.6 * 1024, 256 * 2 ** 20
    assert n_images(simulate.MAX_ORDER) * per_image <= allowance
    assert n_images(simulate.MAX_ORDER + 1) * per_image > allowance

    def unreachable(*args):
        raise AssertionError("image_sources ran for an order above MAX_ORDER")

    monkeypatch.setattr(simulate, "image_sources", unreachable)
    for order in (simulate.MAX_ORDER + 1, 100, 10 ** 6):
        with pytest.raises(GeometryError,
                           match=rf"must lie in \[0, {simulate.MAX_ORDER}\], got {order}"):
            simulate_rir(ROOM, [2.0, 2.0, 2.0], [[3.0, 2.0, 2.0]], order=order)


def test_example_memory_grows_within_the_duration_bound():
    # max_example_samples figures an example's working set at under 8
    # float64 per microphone plus one per source, per sample; the
    # tracemalloc peak of one example, from its sources to its float32
    # copies, grows from 1 s to 3 s within that (98 bytes per sample are
    # measured at 2 microphones and 2 noises, against a bound of 152)
    n_mics, n_noise = 2, 2

    def peak(n):
        rng = np.random.default_rng(0)
        scene = draw_scene(rng, n_mics=n_mics, n_noise_range=(n_noise, n_noise))
        tracemalloc.start()
        try:
            noises = [pink_noise(rng, n) for _ in range(n_noise)]
            ex = spatialize_mixture(scene, speech_like(rng, n), noises, order=1)
            ex.mixture.astype(np.float32), ex.s_direct.astype(np.float32)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n_sources = n_noise + 1
    per_sample = (peak(48000) - peak(16000)) / 32000
    assert per_sample <= 8 * (8 * n_mics + n_sources), per_sample
    assert simulate.max_example_samples(n_mics, n_sources) == 2 ** 30 // (8 * 19)


@pytest.mark.parametrize("order", [0, 1, 6])
def test_simulate_rir_microphone_array_rows_match_single_calls(order):
    scene = draw_scene(np.random.default_rng(14), n_mics=8)
    mics = np.concatenate([scene.mics, [[0.5, 0.5, 0.5]]])  # one far from the array
    stack = simulate_rir(scene.room, scene.speech_pos, mics, order)
    assert stack.ndim == 2 and stack.shape[0] == len(mics)
    lengths = []
    for row, mic in zip(stack, mics):
        single = simulate_rir(scene.room, scene.speech_pos, [mic], order)[0]
        assert np.array_equal(row[:len(single)], single)
        assert not np.any(row[len(single):])
        lengths.append(len(single))
    assert stack.shape[1] == max(lengths)


def test_simulate_rir_peak_grows_with_microphones_by_its_rows_alone():
    # each microphone's distances, delays and amplitudes are formed for its
    # own row, so from 8 to 128 microphones one order-12 response (2,625
    # images) grows by its added rows, 2.5 MiB here; forming them for all
    # rows at once, as C×M×3 and C×M arrays, grows by 11.5 MiB on this scene
    scene = draw_scene(np.random.default_rng(3), n_mics=8)
    peaks, sizes = [], []
    for n_mics in (8, 128):
        mics = mic_circle(scene.mics.mean(axis=0), n_mics)
        tracemalloc.start()
        try:
            sizes.append(simulate_rir(scene.room, scene.speech_pos, mics, 12).nbytes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = peaks[1] - peaks[0]
    assert growth <= 6 * 2 ** 20, growth / 2 ** 20
    assert growth <= sizes[1] - sizes[0] + 2 ** 20, (growth, sizes)


def test_simulate_rir_checks_every_microphone_of_an_array():
    src = [2.0, 2.0, 2.0]
    good = [[3.0, 2.0, 2.0], [2.0, 3.0, 2.0]]
    for bad in ([6.05, 2.0, 2.0], src):  # in the wall margin; on the source
        for where in (0, 1, 2):
            mics = np.array(good[:where] + [bad] + good[where:])
            with pytest.raises(GeometryError):
                simulate_rir(ROOM, src, mics, order=1)
    for shape in ((3,), (0, 3), (2, 4), (2, 2, 3)):
        with pytest.raises(GeometryError):
            simulate_rir(ROOM, src, np.full(shape, 2.5), order=1)


def test_image_source_counts():
    src = [2.0, 2.5, 1.5]
    for order, count in ((0, 1), (1, 7), (2, 25)):
        positions, reflections = image_sources(ROOM, src, order)
        assert positions.shape == (count, 3)
        assert reflections.shape == (count,)
        assert reflections.max() <= order
    positions, reflections = image_sources(ROOM, src, 0)
    npt.assert_array_equal(positions[0], src)
    assert reflections[0] == 0
    _, refl1 = image_sources(ROOM, src, 1)
    assert sorted(refl1) == [0] + [1] * 6


def _axis_images_reference(size, coord, order):
    """The per-image loop that ``_axis_images`` replaces, kept as its exact reference."""
    coords, refl = [], []
    for r in range(-order, order + 1):
        for q in (0, 1):
            k = abs(2 * r) if q == 0 else abs(2 * r - 1)
            if k <= order:
                coords.append(2.0 * r * size + (1 - 2 * q) * coord)
                refl.append(k)
    return np.array(coords), np.array(refl)


def test_axis_images_match_loop_reference():
    rng = np.random.default_rng(12)
    for order in range(7):
        for size in (np.float64(6.0), *rng.uniform(2.0, 10.0, 3)):
            coord = rng.uniform(0.1, size - 0.1)
            got, want = _axis_images(size, coord, order), _axis_images_reference(size, coord, order)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (order, size, coord)


def test_image_distances_hand_case():
    # [DERIVED] 4x4x4 room, source (2,2,2), receiver (2,2,1). Direct distance 1;
    # floor image (2,2,-2) at 3; ceiling image (2,2,6) at 5; the four side-wall
    # images (+-2 displaced 4 m in x or y) all at sqrt(16+1).
    room = RoomSpec(length=4.0, width=4.0, height=4.0, absorption=0.3)
    positions, _ = image_sources(room, [2.0, 2.0, 2.0], 1)
    dist = sorted(np.linalg.norm(positions - np.array([2.0, 2.0, 1.0]), axis=1))
    expected = sorted([1.0, 3.0, 5.0] + [math.sqrt(17.0)] * 4)
    npt.assert_allclose(dist, expected, atol=1e-12)


def test_rir_integer_delay_tap():
    # [DERIVED] source-receiver distance 343*47/16000 m puts the direct path at
    # exactly 47 samples, so the interpolation kernel collapses to one tap of
    # 1/(4*pi*d); every other sample is sinc-at-integers residue.
    d = 343.0 * 47 / 16000.0
    rir = simulate_rir(ROOM, [2.0, 2.0, 2.0], [[2.0 + d, 2.0, 2.0]], order=0)[0]
    assert abs(rir[47] - 0.07898018390516487) < 1e-12
    rest = np.delete(rir, 47)
    assert np.max(np.abs(rest)) <= 1e-12


def test_rir_fractional_delay_peak():
    # 1 m separation: delay 46.647 samples, peak lands on sample 47 with the
    # windowed-sinc value at offset 0.353 of the free-field 1/(4*pi) amplitude
    rir = simulate_rir(ROOM, [2.0, 2.0, 2.0], [[3.0, 2.0, 2.0]], order=0)[0]
    assert int(np.argmax(np.abs(rir))) == 47
    peak = rir[47] * 4.0 * np.pi
    assert 0.75 <= peak <= 1.05


def test_rir_absorption_damps_tail():
    kwargs = dict(length=5.0, width=4.0, height=3.0)
    live = simulate_rir(RoomSpec(absorption=0.1, **kwargs), [1.0, 1.0, 1.0],
                        [[3.5, 2.5, 1.5]], order=4)[0]
    damped = simulate_rir(RoomSpec(absorption=0.4, **kwargs), [1.0, 1.0, 1.0],
                          [[3.5, 2.5, 1.5]], order=4)[0]
    assert damped.shape == live.shape
    tail = slice(200, None)
    assert np.sum(damped[tail] ** 2) < np.sum(live[tail] ** 2)


def test_mic_circle_layout():
    center = np.array([3.0, 2.0, 1.5])
    mics = mic_circle(center)
    assert mics.shape == (8, 3)
    npt.assert_allclose(np.linalg.norm(mics - center, axis=1), 0.10, atol=1e-12)
    npt.assert_allclose(mics[:, 2], center[2], atol=1e-15)
    npt.assert_allclose(mics[0], center + [0.10, 0.0, 0.0], atol=1e-15)
    # counterclockwise: mic 1 sits at +45 degrees, positive y offset
    assert mics[1, 1] > center[1]
    angles = np.unwrap(np.arctan2(mics[:, 1] - center[1], mics[:, 0] - center[0]))
    assert np.all(np.diff(angles) > 0)


def test_draw_scene_respects_bounds():
    for seed in range(25):
        scene = draw_scene(np.random.default_rng(seed))
        room = scene.room
        assert 3.0 <= room.length <= 10.0 and 3.0 <= room.width <= 10.0
        assert 2.0 <= room.height <= 5.0
        assert 0.1 <= room.absorption <= 0.4
        assert -10.0 <= scene.snr_db <= 10.0
        assert 1 <= scene.n_noise <= 10 and len(scene.noise_pos) == scene.n_noise
        for p in [scene.speech_pos] + scene.noise_pos + list(scene.mics):
            assert np.all(np.asarray(p) >= 0.1 - 1e-12)
            assert np.all(np.asarray(p) <= room.dims + 1e-12)
        assert scene.mics.shape == (8, 3)


def test_draw_scene_parameter_overrides():
    rng = np.random.default_rng(0)
    scene = draw_scene(rng, n_mics=2, snr_range=(3.0, 3.0), n_noise_range=(2, 2))
    assert scene.mics.shape == (2, 3)
    assert scene.snr_db == pytest.approx(3.0)
    assert scene.n_noise == 2


def _render(seed, order, n=1500, n_mics=4):
    rng = np.random.default_rng(seed)
    scene = draw_scene(rng, n_mics=n_mics, n_noise_range=(1, 2))
    speech = speech_like(rng, n)
    noises = [white_noise(rng, n) for _ in scene.noise_pos]
    return spatialize_mixture(scene, speech, noises, order=order)


def test_mixture_additivity():
    ex = _render(seed=1, order=1)
    npt.assert_array_equal(ex.mixture, ex.s_direct + ex.s_reverb + ex.noise)
    assert ex.s_direct.shape == ex.mixture.shape == (4, 1500)


def _spatialize_reference(scene, speech, noises, order):
    """The per-microphone rendering that ``spatialize_mixture`` replaces, kept
    as its reference: one single-microphone response per (source, microphone),
    and one inverse transform per source."""
    def to_mics(source, pos, order):
        rirs = [simulate_rir(scene.room, pos, [mic], order)[0] for mic in scene.mics]
        stack = np.zeros((len(rirs), max(len(rir) for rir in rirs)))
        for row, rir in zip(stack, rirs):
            row[:len(rir)] = rir
        return fftconvolve([source], [stack])[:, :source.size]

    s_direct = to_mics(speech, scene.speech_pos, 0)
    s_reverb = to_mics(speech, scene.speech_pos, order) - s_direct
    noise = np.zeros_like(s_direct)
    for pos, nz in zip(scene.noise_pos, noises):
        noise += to_mics(nz, pos, order)
    noise *= np.sqrt(np.sum(s_direct ** 2)
                     / (np.sum(noise ** 2) * 10.0 ** (scene.snr_db / 10.0)))
    return {"s_direct": s_direct, "s_reverb": s_reverb, "noise": noise,
            "mixture": s_direct + s_reverb + noise}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("n_noise", [1, 2, 3])
def test_spatialize_matches_per_microphone_reference(order, n_noise):
    rng = np.random.default_rng(100 + 10 * order + n_noise)
    scene = draw_scene(rng, n_mics=4, n_noise_range=(n_noise, n_noise))
    speech = speech_like(rng, 1500)
    noises = [pink_noise(rng, 1500) for _ in scene.noise_pos]
    ex = spatialize_mixture(scene, speech, noises, order=order)
    for name, want in _spatialize_reference(scene, speech, noises, order).items():
        got = getattr(ex, name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_spatialize_enumerates_images_once_per_source_and_order(monkeypatch):
    calls = []
    original = simulate.image_sources

    def counting(room, src, order):
        calls.append((tuple(np.asarray(src).tolist()), order))
        return original(room, src, order)

    monkeypatch.setattr(simulate, "image_sources", counting)
    rng = np.random.default_rng(15)
    scene = draw_scene(rng, n_mics=8, n_noise_range=(3, 3))
    noises = [white_noise(rng, 1200) for _ in scene.noise_pos]
    spatialize_mixture(scene, speech_like(rng, 1200), noises, order=2)
    speech = tuple(scene.speech_pos.tolist())
    want = [(speech, 2), (speech, 0)] + [(tuple(p.tolist()), 2) for p in scene.noise_pos]
    assert sorted(calls) == sorted(want)


def test_spatialize_peak_memory():
    # 2 s, order 6, 8 microphones, 10 noise sources. The parent's per-microphone
    # rendering peaked at 12.87 MiB on this scene; one spectral accumulator
    # over the noise sources peaks near 10.3 MiB.
    rng = np.random.default_rng(1)
    scene = draw_scene(rng, n_mics=8, n_noise_range=(10, 10))
    speech = speech_like(rng, 32000)
    noises = [white_noise(rng, 32000) for _ in scene.noise_pos]
    spatialize_mixture(scene, speech, noises, order=6)
    tracemalloc.start()
    try:
        spatialize_mixture(scene, speech, noises, order=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.87 * 2 ** 20, peak / 2 ** 20


def test_mixture_hits_requested_snr():
    for seed, order in ((2, 0), (3, 2)):
        ex = _render(seed=seed, order=order)
        assert abs(achieved_snr(ex) - ex.snr_db) < 1e-6


def test_order_zero_has_no_reverb():
    ex = _render(seed=4, order=0)
    npt.assert_array_equal(ex.s_reverb, np.zeros_like(ex.s_reverb))


def test_direct_path_arrival_within_one_sample():
    rng = np.random.default_rng(5)
    scene = draw_scene(rng, n_mics=4, n_noise_range=(1, 1))
    impulse = np.zeros(3000)
    impulse[0] = 1.0
    ex = spatialize_mixture(scene, impulse, [white_noise(rng, 3000)], order=0)
    for c in range(4):
        d = np.linalg.norm(scene.speech_pos - scene.mics[c])
        expected = d * 16000.0 / 343.0
        got = int(np.argmax(np.abs(ex.s_direct[c])))
        assert abs(got - expected) <= 1.0, (c, got, expected)


def test_spatialize_input_validation():
    rng = np.random.default_rng(6)
    scene = draw_scene(rng, n_mics=2, n_noise_range=(2, 2))
    n = 800
    speech = speech_like(rng, n)
    noises = [white_noise(rng, n), white_noise(rng, n)]
    with pytest.raises(DegenerateInputError):
        spatialize_mixture(scene, np.zeros(n), noises, order=0)
    with pytest.raises(DegenerateInputError):
        spatialize_mixture(scene, speech, [noises[0], np.zeros(n)], order=0)
    with pytest.raises(DimensionError):
        spatialize_mixture(scene, speech, [noises[0]], order=0)


def test_spatialize_rejects_a_non_finite_source_before_simulating(monkeypatch):
    # a NaN speech sample or an infinite noise sample would render a NaN
    # mixture: refused by name before any response is simulated
    rng = np.random.default_rng(6)
    scene = draw_scene(rng, n_mics=2, n_noise_range=(2, 2))
    n = 800
    speech = speech_like(rng, n)
    noises = [white_noise(rng, n), white_noise(rng, n)]

    def unreachable(*args):
        raise AssertionError("simulate_rir ran for a non-finite source")

    monkeypatch.setattr(simulate, "simulate_rir", unreachable)
    bad_speech = speech.copy()
    bad_speech[100] = np.nan
    with pytest.raises(DegenerateInputError, match="^speech source has a non-finite sample"):
        spatialize_mixture(scene, bad_speech, noises, order=1)
    for bad in (np.inf, -np.inf, np.nan):
        bad_noise = noises[1].copy()
        bad_noise[-1] = bad
        with pytest.raises(DegenerateInputError, match="^noise source 1 has a non-finite sample"):
            spatialize_mixture(scene, speech, [noises[0], bad_noise], order=1)


def test_spatialize_rejects_example_shorter_than_direct_arrival():
    # speech ~0.5 m from the array, noise ~11 m: an example that ends
    # before a source's first direct-path tap carries only sinc tails
    mics = mic_circle([1.0, 1.0, 1.5], n=2)
    scene = Scene(room=ROOM, mics=mics, speech_pos=np.array([1.5, 1.0, 1.5]),
                  noise_pos=[np.array([5.5, 5.5, 1.5])], snr_db=0.0, n_noise=1)
    dist = np.linalg.norm(mics - scene.noise_pos[0], axis=1)
    arrival = int(np.floor(dist * 16000.0 / 343.0 + 0.5).min())
    rng = np.random.default_rng(11)
    for n in (arrival, arrival - 1):
        with pytest.raises(DegenerateInputError, match=(
                f"noise 0 source's direct path first reaches a microphone at sample "
                f"{arrival}, past the example's {n} samples")):
            spatialize_mixture(scene, speech_like(rng, n), [white_noise(rng, n)], order=1)
    n = arrival + 1
    ex = spatialize_mixture(scene, speech_like(rng, n), [white_noise(rng, n)], order=1)
    assert ex.mixture.shape == (2, n)
    with pytest.raises(DegenerateInputError, match="^speech source's direct path"):
        spatialize_mixture(scene, speech_like(rng, 8), [white_noise(rng, 8)], order=1)


@pytest.mark.parametrize("n_noise_samples", [300, 1199, 1201],
                         ids=["quarter", "one_short", "one_long"])
def test_noise_length_must_match_speech(n_noise_samples):
    rng = np.random.default_rng(7)
    scene = draw_scene(rng, n_mics=2, n_noise_range=(2, 2))
    noises = [white_noise(rng, 1200), white_noise(rng, n_noise_samples)]
    with pytest.raises(DimensionError, match=f"noise 1 has {n_noise_samples} samples, "
                                             f"the speech has 1200"):
        spatialize_mixture(scene, speech_like(rng, 1200), noises, order=0)


def test_render_deterministic():
    a = _render(seed=8, order=1, n=600)
    b = _render(seed=8, order=1, n=600)
    npt.assert_array_equal(a.mixture, b.mixture)
    npt.assert_array_equal(a.s_direct, b.s_direct)


def test_achieved_snr_hand_case():
    # [DERIVED] direct energy 4, noise energy 1 -> 10*log10(4) dB
    ex = MixtureExample(s_direct=np.array([[2.0]]), s_reverb=np.array([[0.0]]),
                        noise=np.array([[1.0]]), mixture=np.array([[3.0]]),
                        snr_db=0.0, n_noise=1)
    assert achieved_snr(ex) == pytest.approx(6.020599913279624, abs=1e-12)
    doubled = MixtureExample(s_direct=np.array([[4.0]]), s_reverb=np.array([[0.0]]),
                             noise=np.array([[2.0]]), mixture=np.array([[6.0]]),
                             snr_db=0.0, n_noise=1)
    assert achieved_snr(doubled) == pytest.approx(achieved_snr(ex), abs=1e-12)
    silent = MixtureExample(s_direct=np.array([[2.0]]), s_reverb=np.array([[0.0]]),
                            noise=np.array([[0.0]]), mixture=np.array([[2.0]]),
                            snr_db=0.0, n_noise=1)
    with pytest.raises(DegenerateInputError):
        achieved_snr(silent)


def test_source_material_unit_rms():
    rng = np.random.default_rng(9)
    for gen in (speech_like, pink_noise):
        x = gen(rng, 4000)
        assert x.shape == (4000,)
        assert np.sqrt(np.mean(x ** 2)) == pytest.approx(1.0, abs=1e-9)
    w = white_noise(rng, 4000)
    assert w.shape == (4000,) and np.isfinite(w).all()


# the source generators' filters: speech_like's one-pole carrier and pink_noise's 1/f fit
ONE_POLE = ([1.0], [1.0, -0.95])
PINK = ([0.049922035, -0.095993537, 0.050612699, -0.004408786],
        [1.0, -2.494956002, 2.017265875, -0.522189400])


def test_fftconvolve_matches_scipy():
    signal = pytest.importorskip("scipy.signal")
    fft = pytest.importorskip("scipy.fft")
    assert all(_smooth_len(n) == fft.next_fast_len(n, True) for n in range(1, 5000))
    rng = np.random.default_rng(13)
    source, rirs = rng.standard_normal(32000), rng.standard_normal((8, 3000))
    npt.assert_array_equal(fftconvolve([source], [rirs[0]]),
                           signal.fftconvolve(source, rirs[0]))
    # one call against a stack of responses gives each row's own convolution
    stacked = fftconvolve([source], [rirs])
    for rir, row in zip(rirs, stacked):
        npt.assert_array_equal(row, fftconvolve([source], [rir]))


def test_fftconvolve_sums_over_a_leading_source_axis():
    rng = np.random.default_rng(16)
    signals = [rng.standard_normal(900) for _ in range(3)]
    stacks = [rng.standard_normal((4, length)) for length in (120, 300, 45)]
    want = np.zeros((4, 900 + 300 - 1))
    for x, h in zip(signals, stacks):
        row = fftconvolve([x], [h])
        want[:, :row.shape[1]] += row
    got = fftconvolve(signals, stacks)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # an array with a leading source axis is the same sum
    same = fftconvolve(np.stack(signals), np.stack([s[:, :45] for s in stacks]))
    npt.assert_allclose(same, sum(fftconvolve([x], [h[:, :45]]) for x, h in zip(signals, stacks)),
                        rtol=0.0, atol=1e-12 * np.abs(same).max())
    with pytest.raises(ValueError, match="as many signals as responses"):
        fftconvolve(signals[:2], stacks)
    with pytest.raises(ValueError, match="at least one"):
        fftconvolve([], [])


@pytest.mark.parametrize("n", [16, 1000, 32000])
@pytest.mark.parametrize("b, a", [ONE_POLE, PINK], ids=["one-pole", "pink"])
def test_iir_filter_matches_lfilter(b, a, n):
    # at n = 16 the pink filter's 0.995 pole still holds 92% of its start, so
    # a transform only twice the input's length would wrap it onto the start
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(n).standard_normal(n)
    want = signal.lfilter(b, a, x)
    got = iir_filter(b, a, x)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_iir_filter_rejects_an_unstable_pole():
    with pytest.raises(ValueError, match="pole"):
        iir_filter([1.0], [1.0, -1.0], np.ones(8))


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "train.tsv"
    records = [
        {"mixture": "ex0_mix.wav", "direct": "ex0_direct.wav", "snr_db": "-3.5", "n_noise": "2"},
        {"mixture": "ex1_mix.wav", "direct": "ex1_direct.wav", "snr_db": "7.25", "n_noise": "1"},
    ]
    manifest_write(path, records)
    assert manifest_read(path) == records
    text = path.read_text()
    assert text.startswith("#")

    path.write_text("# comment\n\nmixture=a.wav direct=b.wav\n")
    assert manifest_read(path) == [{"mixture": "a.wav", "direct": "b.wav"}]

    path.write_text("mixture=a.wav oops\n")
    with pytest.raises(DataError):
        manifest_read(path)

    # a record must name both WAVs; the error names the line and the field
    path.write_text("# comment\n\nmixture=a.wav clean=b.wav\n")
    with pytest.raises(DataError, match=r":3: manifest record has no 'direct=' field"):
        manifest_read(path)
