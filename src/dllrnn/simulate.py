"""Multichannel mixture generation: shoebox rooms, image-method RIRs, SNR mixing.

An example is produced by drawing a shoebox room, an 8-microphone circular
array (radius 0.10 m, horizontal plane), one speech source and 1-10 noise
sources, then convolving each source with its simulated room impulse
responses. The direct-path component is the order-0 (reflection-free)
convolution; reverberation is the full response minus that. Noise is scaled
so the ratio of direct-path speech energy to noise energy, both summed over
all channels, hits the requested SNR.

Impulse responses come from the mirror-image construction: every image of the
source across the walls up to a reflection order contributes a tap of
amplitude beta^reflections / (4*pi*distance) at its fractional arrival delay,
rendered with an 81-tap Hann-tapered sinc kernel. The images depend on the
source alone, so each source's image set is enumerated once per order; each
microphone's distances, delays and amplitudes are then formed for its own
row alone, just before its taps are placed. ``kernels.place_taps`` places a
row's images at once: three transcendentals per image give all 81 of its
taps by the angle-addition identities, and one ``np.bincount`` adds them,
with the taps outside the row gathered in two discarded bins.

The module needs numpy alone. Convolution and the source generators' IIR
filters are real FFTs at a 5-smooth length (``fftconvolve``, ``iir_filter``).
``fftconvolve`` has one path, a sum over sources: each source's spectrum is
taken once and multiplied by all of its microphones' responses, the products
are added in the frequency domain one source at a time, and the sum takes
one inverse transform. The speech is rendered as a one-source sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .errors import DataError, DegenerateInputError, DimensionError, GeometryError
from .framing import SAMPLE_RATE

SPEED_OF_SOUND = 343.0
MIC_RADIUS = 0.10
N_MICS = 8
WALL_MARGIN = 0.1
DEFAULT_ORDER = 6
# The largest reflection order a response is simulated at. Beside the C×L
# rows it returns, one response's working set is its image set and one row's
# tap arrays, whatever the microphone count C, so it grows with the image
# count alone, (2N+1)(2N²+2N+3)/3 at order N, by under 3.6 KiB per image.
# The tracemalloc peaks of one response at orders 6, 12, 18 and 24 (377,
# 2,625, 8,473 and 19,649 images) are 0.7, 3.9, 11.9 and 27.1 MiB at 8
# microphones and 2.0, 6.3, 15.6 and 32.0 MiB at 128, whose rows are 1.4 to
# 5.2 MiB of that: about 1.4 KiB per image, two M×81 tap arrays at a time.
# The allowance of 256 MiB per response is figured at the 3.6 KiB bound:
# order 37, 70,375 images, is the largest order that fits it (order 38 has
# 76,153); at the measured 1.4 KiB per image order 37 takes about 100 MiB.
MAX_ORDER = 37
# The longest example simulated, in samples, at C microphones and S sources
# (the speech and up to noise_max noises). Beside the responses, whose size
# the order sets, one example's working set grows with its length: its C×N
# rows (direct, reverberant, noise, mixture and their float32 copies), the
# convolutions' spectra and each source's waveform. The tracemalloc peaks of
# one order-6 example grow from 2 s to 10 s by 464 and 536 bytes per sample
# at 8 microphones with 1 and 10 noises, 68 and 140 at 1 microphone and
# 1,808 and 1,880 at 32: under 8 float64 per microphone plus one per source.
# The allowance of 1 GiB per example is figured at that bound: 111.8 s at 8
# microphones and 10 noises.
EXAMPLE_ALLOWANCE = 2 ** 30


def max_example_samples(n_mics: int, n_sources: int) -> int:
    """The most samples an example of ``n_mics`` microphones and ``n_sources``
    sources may have for its per-sample working set to fit
    ``EXAMPLE_ALLOWANCE``."""
    return EXAMPLE_ALLOWANCE // (8 * (8 * n_mics + n_sources))


# ---------------------------------------------------------------------------
# Filtering by real FFTs. Sizes are 5-smooth (2^i·3^j·5^k), the lengths
# pocketfft transforms fastest, as scipy.signal.fftconvolve pads to.
# ---------------------------------------------------------------------------

def _smooth_len(n: int) -> int:
    """The smallest 5-smooth integer >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p35 = 1
    while p35 < best:
        p3 = p35
        while p3 < best:
            best = min(best, p3 << (-(-n // p3) - 1).bit_length())
            p3 *= 3
        p35 *= 5
    return best


def fftconvolve(signals, responses):
    """The sum over sources of each source's full linear convolution along
    the last axis: ``signals[s]`` is source s's 1-D signal and
    ``responses[s]`` its response or stack of responses, whose leading axes
    broadcast, so a source's spectrum is taken once for all of its rows.

    Each source's product is formed in its response spectrum's buffer, in
    scipy's operand order (the signal's spectrum first), and added into one
    running sum, so one inverse transform serves every source and at most
    one source's spectra are held beside the sum. Signals and responses may
    differ in length; the result is as long as the longest convolution.
    """
    if len(signals) != len(responses) or len(signals) == 0:
        raise ValueError(f"convolution needs as many signals as responses, "
                         f"at least one; got {len(signals)} and {len(responses)}")
    n = max(np.shape(x)[-1] for x in signals) + max(np.shape(h)[-1] for h in responses) - 1
    size = _smooth_len(n)

    def spectrum(x, h):
        out = np.fft.rfft(h, size)
        return np.multiply(np.fft.rfft(x, size), out, out=out)

    total = spectrum(signals[0], responses[0])
    for x, h in zip(signals[1:], responses[1:]):
        total += spectrum(x, h)
    return np.fft.irfft(total, size)[..., :n]


def iir_filter(b, a, x):
    """The causal filter b(z)/a(z) applied to 1-D ``x`` from rest, as
    ``scipy.signal.lfilter(b, a, x)`` computes it.

    It is one spectral division at a length L that leaves ``guard`` samples
    past the input, where the response to the input's end has decayed by
    r^guard <= 1e-18 (r the largest pole radius); the circular wrap then adds
    only that much of the tail to the first samples. A fixed L = 2n would
    not: at n = 16 a 0.995 pole decays by only 0.92 over 16 samples.
    """
    b = np.asarray(b, np.float64)
    a = np.asarray(a, np.float64)
    radius = max(np.abs(np.roots(a)), default=0.0)
    if radius >= 1.0:
        raise ValueError(f"filter has a pole of radius {radius} >= 1")
    guard = len(b) + (math.ceil(math.log(1e-18) / math.log(radius)) if radius > 0.0 else 0)
    n = len(x)
    size = _smooth_len(n + guard)
    spectrum = np.fft.rfft(x, size) * np.fft.rfft(b, size) / np.fft.rfft(a, size)
    return np.fft.irfft(spectrum, size)[:n]


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox dimensions in metres and the walls' energy absorption."""

    length: float
    width: float
    height: float
    absorption: float

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0:
            raise GeometryError(
                f"room dimensions must be positive, got "
                f"{self.length}x{self.width}x{self.height}"
            )
        if not 0.0 < self.absorption < 1.0:
            raise GeometryError(f"absorption must lie in (0, 1), got {self.absorption}")

    @property
    def dims(self):
        return np.array([self.length, self.width, self.height])


def _check_inside(room: RoomSpec, point, what: str):
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise GeometryError(f"{what} must be an xyz triple, got shape {p.shape}")
    if np.any(p < WALL_MARGIN) or np.any(p > room.dims - WALL_MARGIN):
        raise GeometryError(
            f"{what} {p.tolist()} not inside the {room.length}x{room.width}x"
            f"{room.height} room with a {WALL_MARGIN} m wall margin"
        )
    return p


def _axis_images(size: float, coord: float, order: int):
    """Image coordinates and reflection counts along one axis, in (r, q) order:
    image (r, q) sits at 2·r·size ± coord (q = 0, 1) after |2r - q| reflections."""
    r = np.repeat(np.arange(-order, order + 1), 2)
    q = np.tile([0, 1], 2 * order + 1)
    k = np.abs(2 * r - q)
    keep = k <= order
    return (2.0 * r * size + (1 - 2 * q) * coord)[keep], k[keep]


def image_sources(room: RoomSpec, src, order: int):
    """All mirror images of ``src`` up to ``order`` reflections.

    Returns (positions M×3, reflection counts M); order 0 yields just the
    source itself and order 1 adds exactly the six single-wall mirrors.
    """
    src = np.asarray(src, dtype=np.float64)
    per_axis = [_axis_images(room.dims[a], src[a], order) for a in range(3)]
    cx, kx = per_axis[0]
    cy, ky = per_axis[1]
    cz, kz = per_axis[2]
    total = kx[:, None, None] + ky[None, :, None] + kz[None, None, :]
    keep = np.nonzero(total.ravel() <= order)[0]
    grid = np.stack(np.meshgrid(cx, cy, cz, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[keep], total.ravel()[keep]


def simulate_rir(room: RoomSpec, src, mics, order: int = DEFAULT_ORDER):
    """Impulse responses between a source and a C×3 array of microphones, as
    a C×L float64 array: row c is microphone c's taps, zero-padded to the
    longest row's length L.

    The source's images are enumerated once; each microphone's distances,
    delays and amplitudes are formed for its own row alone, just before its
    taps are placed, so the working set does not grow with the microphone
    count beyond the rows themselves.
    """
    src = _check_inside(room, src, "source")
    mics = np.asarray(mics, dtype=np.float64)
    if mics.ndim != 2 or len(mics) == 0:
        raise GeometryError(f"microphones must be a C×3 array, got shape {mics.shape}")
    for point in mics:
        _check_inside(room, point, "microphone")
        if np.array_equal(src, point):
            raise GeometryError("source and microphone coincide")
    if not 0 <= order <= MAX_ORDER:
        raise GeometryError(f"reflection order must lie in [0, {MAX_ORDER}], got {order}")
    positions, reflections = image_sources(room, src, order)
    gains = np.sqrt(1.0 - room.absorption) ** reflections
    # A delay d's last tap is at most ceil(d) + SINC_HALF_WIDTH, and the
    # farthest image's delay is the largest, since scaling rounds monotonically.
    far = max(np.linalg.norm(positions - mic, axis=1).max() for mic in mics)
    out = np.empty((len(mics), math.ceil(far * SAMPLE_RATE / SPEED_OF_SOUND)
                    + K.SINC_HALF_WIDTH + 2))
    for row, mic in zip(out, mics):
        dist = np.linalg.norm(positions - mic, axis=1)
        row[:] = K.place_taps(dist * SAMPLE_RATE / SPEED_OF_SOUND,
                              gains / (4.0 * np.pi * dist), len(row))
    return out


def mic_circle(center, n: int = N_MICS):
    """n microphones equally spaced on a horizontal circle of radius
    ``MIC_RADIUS`` about ``center``.

    Mic 0 sits at angle zero (+x) and indices advance counterclockwise.
    """
    center = np.asarray(center, dtype=np.float64)
    angles = 2.0 * np.pi * np.arange(n) / n
    offsets = np.stack([MIC_RADIUS * np.cos(angles), MIC_RADIUS * np.sin(angles),
                        np.zeros(n)], axis=1)
    return center[None, :] + offsets


@dataclass
class Scene:
    """One drawn acoustic configuration: room, array, sources, target SNR."""

    room: RoomSpec
    mics: np.ndarray
    speech_pos: np.ndarray
    noise_pos: list
    snr_db: float
    n_noise: int


def draw_scene(rng, n_mics: int = N_MICS, snr_range=(-10.0, 10.0),
               n_noise_range=(1, 10)) -> Scene:
    """Sample a scene: room in [3,10]x[3,10]x[2,5] m, absorption [0.1,0.4],
    SNR in [-10,10] dB, 1-10 noise sources, all positions wall-clear."""
    length = rng.uniform(3.0, 10.0)
    width = rng.uniform(3.0, 10.0)
    height = rng.uniform(2.0, 5.0)
    absorption = rng.uniform(0.1, 0.4)
    room = RoomSpec(length=length, width=width, height=height, absorption=absorption)

    def draw_point(margin):
        return rng.uniform(np.full(3, margin), room.dims - margin)

    def draw_source():
        p = draw_point(WALL_MARGIN)
        while np.linalg.norm(p - center) < 2 * MIC_RADIUS:
            p = draw_point(WALL_MARGIN)
        return p

    center = draw_point(WALL_MARGIN + MIC_RADIUS)
    speech = draw_source()
    n_noise = int(rng.integers(n_noise_range[0], n_noise_range[1] + 1))
    noise_pos = [draw_source() for _ in range(n_noise)]
    snr_db = float(rng.uniform(snr_range[0], snr_range[1]))
    return Scene(room=room, mics=mic_circle(center, n=n_mics),
                 speech_pos=speech, noise_pos=noise_pos, snr_db=snr_db, n_noise=n_noise)


@dataclass
class MixtureExample:
    """Direct path, reverberation, noise, and their sum, all C×N."""

    s_direct: np.ndarray
    s_reverb: np.ndarray
    noise: np.ndarray
    mixture: np.ndarray
    snr_db: float
    n_noise: int
    scene: Scene = field(default=None, repr=False)


def spatialize_mixture(scene: Scene, speech, noises,
                       order: int = DEFAULT_ORDER) -> MixtureExample:
    """Render one multichannel example from mono source material.

    ``speech`` is convolved per microphone with the full-order response and,
    separately, with the order-0 (direct-path) response; their difference is
    the reverberation. Each noise waveform, as long as the speech, is
    convolved from its own drawn position, and the noise sources' spectra are
    summed before one inverse transform; all noises share one scale factor
    chosen so the channel-summed direct-to-noise energy ratio equals the
    scene's ``snr_db``. A silent source, a source with a non-finite sample,
    and a source whose direct path reaches no microphone within the
    example's samples are each a ``DegenerateInputError`` naming the source,
    raised before any response is simulated: the example would be silent,
    non-finite, or hold only sinc tails.
    """
    speech = np.asarray(speech, dtype=np.float64).ravel()
    if speech.size == 0 or not np.any(speech):
        raise DegenerateInputError("speech source is silent")
    if not np.isfinite(speech).all():
        raise DegenerateInputError("speech source has a non-finite sample")
    if len(noises) != len(scene.noise_pos):
        raise DimensionError(
            f"got {len(noises)} noise waveforms for {len(scene.noise_pos)} drawn positions"
        )
    noises = [np.asarray(nz, dtype=np.float64).ravel() for nz in noises]
    for k, nz in enumerate(noises):
        if nz.size != speech.size:
            raise DimensionError(f"noise {k} has {nz.size} samples, the speech has {speech.size}")
        if not np.any(nz):
            raise DegenerateInputError(f"noise source {k} is silent")
        if not np.isfinite(nz).all():
            raise DegenerateInputError(f"noise source {k} has a non-finite sample")
    sources = [("speech", scene.speech_pos)]
    sources += [(f"noise {k}", pos) for k, pos in enumerate(scene.noise_pos)]
    for what, pos in sources:
        dist = np.linalg.norm(scene.mics - pos[None, :], axis=1)
        arrival = int(np.floor(dist * SAMPLE_RATE / SPEED_OF_SOUND + 0.5).min())
        if arrival >= speech.size:
            raise DegenerateInputError(
                f"{what} source's direct path first reaches a microphone at sample "
                f"{arrival}, past the example's {speech.size} samples")
    n = speech.size
    room, mics = scene.room, scene.mics
    s_direct = np.ascontiguousarray(
        fftconvolve([speech], [simulate_rir(room, scene.speech_pos, mics, 0)])[:, :n])
    s_reverb = (fftconvolve([speech], [simulate_rir(room, scene.speech_pos, mics, order)])[:, :n]
                - s_direct)
    noise = np.ascontiguousarray(fftconvolve(
        noises, [simulate_rir(room, pos, mics, order) for pos in scene.noise_pos])[:, :n])
    e_direct = float(np.sum(s_direct ** 2))
    e_noise = float(np.sum(noise ** 2))
    if e_noise == 0.0:
        raise DegenerateInputError("rendered noise is silent")
    noise *= np.sqrt(e_direct / (e_noise * 10.0 ** (scene.snr_db / 10.0)))
    mixture = s_direct + s_reverb + noise
    return MixtureExample(s_direct=s_direct, s_reverb=s_reverb, noise=noise,
                          mixture=mixture, snr_db=float(scene.snr_db),
                          n_noise=len(noises), scene=scene)


def achieved_snr(ex: MixtureExample) -> float:
    """Channel-summed direct-path-to-noise energy ratio in dB."""
    e_direct = float(np.sum(np.asarray(ex.s_direct, dtype=np.float64) ** 2))
    e_noise = float(np.sum(np.asarray(ex.noise, dtype=np.float64) ** 2))
    if e_noise == 0.0:
        raise DegenerateInputError("mixture has zero noise energy")
    return 10.0 * np.log10(e_direct / e_noise)


# ---------------------------------------------------------------------------
# Desk-scale source material. These seeded generators stand in for a speech
# corpus: a low-frequency-weighted noise carrier with syllable-rate amplitude
# modulation for "speech", plus white and pink interferers.
# ---------------------------------------------------------------------------

def speech_like(rng, n: int):
    carrier = iir_filter([1.0], [1.0, -0.95], rng.standard_normal(n))
    t = np.arange(n) / SAMPLE_RATE
    rate = rng.uniform(2.0, 5.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 0.1 + 0.9 * (0.5 + 0.5 * np.sin(2.0 * np.pi * rate * t + phase)) ** 2
    x = carrier * envelope
    return x / np.sqrt(np.mean(x ** 2))


def white_noise(rng, n: int):
    return rng.standard_normal(n)


def pink_noise(rng, n: int):
    # -3 dB/octave via a standard 3-pole/3-zero approximation of 1/f.
    b = [0.049922035, -0.095993537, 0.050612699, -0.004408786]
    a = [1.0, -2.494956002, 2.017265875, -0.522189400]
    x = iir_filter(b, a, rng.standard_normal(n))
    return x / np.sqrt(np.mean(x ** 2))


# ---------------------------------------------------------------------------
# Dataset manifest: one line per example of space-separated key=value tokens,
# '#' lines are comments. Paths are relative to the manifest's directory.
# Every record names its mixture and direct-path WAVs.
# ---------------------------------------------------------------------------

MANIFEST_REQUIRED = ("mixture", "direct")


def manifest_write(path, records):
    lines = ["# dllrnn dataset manifest v1"]
    for rec in records:
        lines.append(" ".join(f"{k}={rec[k]}" for k in rec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def manifest_read(path):
    records = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise DataError(f"{path}:{line_no}: manifest line is not UTF-8") from None
        if not line or line.startswith("#"):
            continue
        rec = {}
        for token in line.split():
            if "=" not in token:
                raise DataError(f"{path}:{line_no}: malformed manifest token '{token}'")
            key, value = token.split("=", 1)
            rec[key] = value
        for key in MANIFEST_REQUIRED:
            if key not in rec:
                raise DataError(f"{path}:{line_no}: manifest record has no '{key}=' field")
        records.append(rec)
    return records
