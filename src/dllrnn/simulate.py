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
rendered with an 81-tap Hann-tapered sinc kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve, lfilter

from . import kernels as K
from .errors import DataError, DegenerateInputError, DimensionError, GeometryError
from .framing import SAMPLE_RATE

SPEED_OF_SOUND = 343.0
MIC_RADIUS = 0.10
N_MICS = 8
WALL_MARGIN = 0.1
DEFAULT_ORDER = 6


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


def simulate_rir(room: RoomSpec, src, mic, order: int = DEFAULT_ORDER):
    """Impulse response between a source and a microphone, as float64 taps."""
    src = _check_inside(room, src, "source")
    mic = _check_inside(room, mic, "microphone")
    if np.array_equal(src, mic):
        raise GeometryError("source and microphone coincide")
    if order < 0:
        raise GeometryError(f"reflection order must be >= 0, got {order}")
    positions, reflections = image_sources(room, src, order)
    dist = np.linalg.norm(positions - mic[None, :], axis=1)
    beta = np.sqrt(1.0 - room.absorption)
    amps = beta ** reflections / (4.0 * np.pi * dist)
    delays = dist * SAMPLE_RATE / SPEED_OF_SOUND
    length = int(np.ceil(delays.max())) + K.SINC_HALF_WIDTH + 2
    return K.place_taps(delays, amps, length)


def mic_circle(center, radius: float = MIC_RADIUS, n: int = N_MICS):
    """n microphones equally spaced on a horizontal circle about ``center``.

    Mic 0 sits at angle zero (+x) and indices advance counterclockwise.
    """
    center = np.asarray(center, dtype=np.float64)
    angles = 2.0 * np.pi * np.arange(n) / n
    offsets = np.stack([radius * np.cos(angles), radius * np.sin(angles),
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


def _convolve_to_mics(source, room, src_pos, mics, order):
    n = source.shape[0]
    out = np.empty((mics.shape[0], n))
    for c in range(mics.shape[0]):
        rir = simulate_rir(room, src_pos, mics[c], order)
        out[c] = fftconvolve(source, rir)[:n]
    return out


def spatialize_mixture(scene: Scene, speech, noises, snr_db=None,
                       order: int = DEFAULT_ORDER) -> MixtureExample:
    """Render one multichannel example from mono source material.

    ``speech`` is convolved per microphone with the full-order response and,
    separately, with the order-0 (direct-path) response; their difference is
    the reverberation. Each noise waveform, as long as the speech, is
    convolved from its own drawn position; all noises share one scale factor
    chosen so the channel-summed direct-to-noise energy ratio equals
    ``snr_db`` (defaults to the scene's drawn value). A source whose direct
    path reaches no microphone within the example's samples is a
    ``DegenerateInputError``: the example would hold only sinc tails.
    """
    speech = np.asarray(speech, dtype=np.float64).ravel()
    if speech.size == 0 or not np.any(speech):
        raise DegenerateInputError("speech source is silent")
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
    sources = [("speech", scene.speech_pos)]
    sources += [(f"noise {k}", pos) for k, pos in enumerate(scene.noise_pos)]
    for what, pos in sources:
        dist = np.linalg.norm(scene.mics - pos[None, :], axis=1)
        arrival = int(np.floor(dist * SAMPLE_RATE / SPEED_OF_SOUND + 0.5).min())
        if arrival >= speech.size:
            raise DegenerateInputError(
                f"{what} source's direct path first reaches a microphone at sample "
                f"{arrival}, past the example's {speech.size} samples")
    if snr_db is None:
        snr_db = scene.snr_db
    s_full = _convolve_to_mics(speech, scene.room, scene.speech_pos, scene.mics, order)
    s_direct = _convolve_to_mics(speech, scene.room, scene.speech_pos, scene.mics, 0)
    s_reverb = s_full - s_direct
    noise = np.zeros_like(s_direct)
    for pos, nz in zip(scene.noise_pos, noises):
        noise += _convolve_to_mics(nz, scene.room, pos, scene.mics, order)
    e_direct = float(np.sum(s_direct ** 2))
    e_noise = float(np.sum(noise ** 2))
    if e_noise == 0.0:
        raise DegenerateInputError("rendered noise is silent")
    noise *= np.sqrt(e_direct / (e_noise * 10.0 ** (snr_db / 10.0)))
    mixture = s_direct + s_reverb + noise
    return MixtureExample(s_direct=s_direct, s_reverb=s_reverb, noise=noise,
                          mixture=mixture, snr_db=float(snr_db),
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

def speech_like(rng, n: int, fs: int = SAMPLE_RATE):
    carrier = lfilter([1.0], [1.0, -0.95], rng.standard_normal(n))
    t = np.arange(n) / fs
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
    x = lfilter(b, a, rng.standard_normal(n))
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
