"""WAV reader/writer: bit-exact float roundtrips, int16 quantization, and
byte-offset-carrying parse errors."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn.errors import WavFormatError
from dllrnn.wavio import read_wav, write_wav


def test_float32_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for channels in (1, 2, 8):
        data = rng.standard_normal((channels, 333)).astype(np.float32)
        path = tmp_path / f"x{channels}.wav"
        write_wav(path, data)
        back, rate = read_wav(path)
        assert rate == 16000
        assert back.dtype == np.float32
        npt.assert_array_equal(back, data)


def test_mono_vector_roundtrip(tmp_path):
    data = np.linspace(-1.0, 1.0, 50, dtype=np.float32)
    path = tmp_path / "mono.wav"
    write_wav(path, data, rate=8000)
    back, rate = read_wav(path)
    assert rate == 8000
    npt.assert_array_equal(back, data[None, :])


def test_int16_quantization(tmp_path):
    # 32767/32768 survives exactly; values at or beyond full scale clip;
    # rounding is to nearest
    data = np.array([[32767.0 / 32768.0, 1.0, -1.0, -1.5, 0.25, 1.0 / 32768.0]],
                    dtype=np.float32)
    path = tmp_path / "q.wav"
    write_wav(path, data, sample_format="int16")
    back, _ = read_wav(path)
    expected = np.array([[32767, 32767, -32768, -32768, 8192, 1]],
                        dtype=np.float32) / 32768.0
    npt.assert_array_equal(back, expected)


def test_write_rejects_unknown_format(tmp_path):
    with pytest.raises(WavFormatError, match="sample_format"):
        write_wav(tmp_path / "x.wav", np.zeros(4, np.float32), sample_format="int24")


@pytest.mark.parametrize("sample_format", ["float32", "int16"])
def test_write_rejects_non_finite_sample(tmp_path, sample_format):
    # read_wav would reject the file, so write_wav refuses to make it
    data = np.zeros((3, 10), np.float32)
    data[2, 6] = np.inf
    data[1, 8] = np.nan
    path = tmp_path / "bad.wav"
    with pytest.raises(WavFormatError, match="non-finite value inf in channel 2 at sample 6"):
        write_wav(path, data, sample_format=sample_format)
    assert not path.exists()
    if sample_format == "float32":
        # finite in float64, but inf once stored as float32
        with pytest.raises(WavFormatError, match="non-finite value inf in channel 1 at sample 0"):
            write_wav(path, np.array([[0.0], [1e39]]))
        assert not path.exists()


def _valid_blob():
    fmt_body = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    payload = struct.pack("<4h", 0, 1000, -1000, 32767)
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_read_hand_built_pcm(tmp_path):
    path = tmp_path / "hand.wav"
    path.write_bytes(_valid_blob())
    data, rate = read_wav(path)
    assert rate == 16000
    npt.assert_array_equal(data, np.array([[0, 1000, -1000, 32767]], np.float32) / 32768.0)


def test_read_skips_unknown_and_odd_chunks(tmp_path):
    # a 3-byte chunk must advance by 4 (pad byte), or the scan desyncs
    blob = _valid_blob()
    junk = b"JUNK" + struct.pack("<I", 3) + b"abc" + b"\x00"
    patched = blob[:12] + junk + blob[12:]
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    path = tmp_path / "junk.wav"
    path.write_bytes(patched)
    data, rate = read_wav(path)
    assert rate == 16000 and data.shape == (1, 4)


def test_read_error_offsets(tmp_path):
    path = tmp_path / "bad.wav"
    blob = _valid_blob()

    path.write_bytes(b"RIFX" + blob[4:])
    with pytest.raises(WavFormatError, match="byte 0"):
        read_wav(path)

    path.write_bytes(blob[:8] + b"WOVE" + blob[12:])
    with pytest.raises(WavFormatError, match="byte 8"):
        read_wav(path)

    path.write_bytes(blob[:-3])  # data chunk claims more bytes than remain
    with pytest.raises(WavFormatError, match="remain"):
        read_wav(path)

    # data before fmt
    fmt_at = blob.index(b"fmt ")
    data_at = blob.index(b"data")
    reordered = blob[:12] + blob[data_at:] + blob[fmt_at:data_at]
    path.write_bytes(reordered)
    with pytest.raises(WavFormatError, match="precedes fmt"):
        read_wav(path)

    # no data chunk at all
    path.write_bytes(blob[:12] + blob[fmt_at:data_at])
    with pytest.raises(WavFormatError, match="no data chunk"):
        read_wav(path)


def test_read_rejects_unsupported_codec(tmp_path):
    blob = bytearray(_valid_blob())
    fmt_at = blob.index(b"fmt ")
    blob[fmt_at + 8 + 14:fmt_at + 8 + 16] = struct.pack("<H", 24)  # 24-bit PCM
    path = tmp_path / "codec.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(WavFormatError, match="unsupported codec"):
        read_wav(path)


def test_read_rejects_ragged_payload(tmp_path):
    blob = bytearray(_valid_blob())
    fmt_at = blob.index(b"fmt ")
    blob[fmt_at + 8 + 2:fmt_at + 8 + 4] = struct.pack("<H", 3)  # 3 channels, 4 samples
    path = tmp_path / "ragged.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(WavFormatError, match="divisible"):
        read_wav(path)


def test_float_file_has_fact_chunk(tmp_path):
    path = tmp_path / "f.wav"
    write_wav(path, np.zeros((2, 7), np.float32))
    blob = path.read_bytes()
    assert b"fact" in blob
    fact_at = blob.index(b"fact")
    (count,) = struct.unpack("<I", blob[fact_at + 8:fact_at + 12])
    assert count == 7
