"""Minimal RIFF/WAVE reader and writer.

Reads 16-bit integer and 32-bit float files of any channel count; writes
32-bit float by default (bit-exact roundtrip) or 16-bit integer on request.
Integer samples are normalized by 1/32768 on read, so 32767 maps just below
one. Parse failures name the byte offset of the offending field, and a
non-finite sample is rejected with its channel and sample index, on write
as on read.

Only the plain stdlib is involved; the format is simple enough that a direct
parser is clearer than adapting a general audio dependency, and it keeps the
byte-level determinism of written files under our control.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import WavFormatError
from .framing import SAMPLE_RATE

_PCM = 1
_IEEE_FLOAT = 3


def read_wav(path):
    """Read a WAV file; returns (channels x samples float32 array, rate)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: expected 'RIFF' at byte 0, found {blob[0:4]!r}")
    if len(blob) < 12:
        raise WavFormatError(f"{path}: truncated header at byte {len(blob)}")
    if blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: expected 'WAVE' at byte 8, found {blob[8:12]!r}")
    pos = 12
    fmt = None
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        body_at = pos + 8
        if body_at + size > len(blob):
            raise WavFormatError(
                f"{path}: chunk {chunk_id!r} at byte {pos} claims {size} bytes "
                f"but only {len(blob) - body_at} remain"
            )
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk at byte {pos} too short ({size} bytes)")
            fmt = struct.unpack("<HHIIHH", blob[body_at:body_at + 16])
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError(f"{path}: data chunk at byte {pos} precedes fmt chunk")
            return _decode(path, pos, fmt, memoryview(blob)[body_at:body_at + size])
        pos = body_at + size + (size & 1)
    raise WavFormatError(f"{path}: no data chunk found (scanned to byte {pos})")


def _decode(path, chunk_pos, fmt, payload):
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise WavFormatError(f"{path}: channel count {channels} in fmt chunk")
    if audio_format == _PCM and bits == 16:
        dtype = "<i2"
    elif audio_format == _IEEE_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise WavFormatError(
            f"{path}: unsupported codec at data chunk (byte {chunk_pos}): "
            f"format {audio_format}, {bits}-bit; only 16-bit PCM and 32-bit float"
        )
    if len(payload) % (channels * bits // 8):
        raise WavFormatError(
            f"{path}: data chunk at byte {chunk_pos} holds {len(payload)} bytes, not divisible "
            f"by {channels} channels of {bits // 8}-byte samples"
        )
    # the payload is a view of the file's bytes: check it in place (16-bit
    # integers are always finite), then convert and de-interleave in one copy
    interleaved = np.frombuffer(payload, dtype=dtype)
    if dtype == "<f4":
        _check_finite(path, interleaved, channels)
    samples = np.array(interleaved.reshape(-1, channels).T, dtype=np.float32, order="C")
    if dtype == "<i2":
        samples /= 32768.0
    return samples, rate


def _check_finite(path, interleaved, channels):
    """Reject a non-finite sample, naming its channel and sample index."""
    samples = interleaved.reshape(-1)   # sample-major, then channel
    finite = np.isfinite(samples)
    if not finite.all():
        first = int(np.argmin(finite))
        raise WavFormatError(f"{path}: non-finite value {samples[first]} in channel "
                             f"{first % channels} at sample {first // channels}")


def write_wav(path, data, rate: int = SAMPLE_RATE, sample_format: str = "float32"):
    """Write a channels x samples array; float32 by default, or 'int16'."""
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[None, :]
    channels, n = data.shape
    interleaved = np.ascontiguousarray(data.T)
    if sample_format == "float32":
        with np.errstate(over="ignore"):  # a value beyond float32's range turns inf
            samples = interleaved.astype("<f4")
        _check_finite(path, samples, channels)
        payload = samples.tobytes()
        bits = 32
        # non-PCM needs the extension-size field and a fact chunk
        fmt_body = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, rate,
                               rate * channels * 4, channels * 4, bits, 0)
        fact = b"fact" + struct.pack("<II", 4, n)
    elif sample_format == "int16":
        _check_finite(path, interleaved, channels)
        clipped = np.clip(np.rint(interleaved * 32768.0), -32768, 32767)
        payload = clipped.astype("<i2").tobytes()
        bits = 16
        fmt_body = struct.pack("<HHIIHH", _PCM, channels, rate,
                               rate * channels * 2, channels * 2, bits)
        fact = b""
    else:
        raise WavFormatError(f"unsupported sample_format '{sample_format}'")
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += fact
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
