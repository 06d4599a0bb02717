"""Mutated bytes through every on-disk reader: each either parses or raises
its named error (the one the CLI maps to an exit code), never anything else.

Hypothesis runs derandomized with a bounded example count, so the suite
stays deterministic."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dllrnn.checkpoint import load_checkpoint, save_checkpoint
from dllrnn.config import RunConfig, emit_config, load_config, parse_config
from dllrnn.errors import ConfigError, DataError, WavFormatError
from dllrnn.framing import FrameSpec
from dllrnn.model import ModelConfig, build_params
from dllrnn.simulate import manifest_read, manifest_write
from dllrnn.train import OptState
from dllrnn.wavio import read_wav, write_wav

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# Up to four byte edits, each an overwrite, insert, delete or truncation at
# an offset within 256 bytes of the start (>= 0) or of the end (< 0), where
# the headers and the last records are.
edits = st.lists(st.tuples(st.sampled_from(("set", "insert", "delete", "truncate")),
                           st.integers(-256, 255), st.integers(0, 255)),
                 min_size=1, max_size=4)


def _mutate(blob, edit_list):
    buf = bytearray(blob)
    for kind, offset, byte in edit_list:
        at = min(max(offset if offset >= 0 else len(buf) + offset, 0), len(buf))
        if kind == "set" and at < len(buf):
            buf[at] = byte
        elif kind == "insert":
            buf.insert(at, byte)
        elif kind == "delete":
            del buf[at:at + 1]
        elif kind == "truncate":
            del buf[at:]
    return bytes(buf)


def _fuzz(path, blob, edit_list, reader, allowed):
    path.write_bytes(_mutate(blob, edit_list))
    try:
        reader(path)
    except allowed:
        pass


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_wav(root / "f32.wav", rng.standard_normal((2, 24)).astype(np.float32))
    write_wav(root / "i16.wav", 0.5 * rng.standard_normal((3, 16)), sample_format="int16")
    config = ModelConfig(channels=2, hidden=2, spatial=1, blocks=2,
                         frame=FrameSpec(l_in=4, l_out=2, hop=1))
    store = build_params(config, seed=0)
    save_checkpoint(root / "model.ckpt", config, store, 3, opt_state=OptState.for_store(store))
    manifest_write(root / "manifest.txt", [{"id": i, "mixture": f"ex{i}.mix.wav",
                                            "direct": f"ex{i}.direct.wav", "snr_db": "1.5"}
                                           for i in range(2)])
    return {name: (root / name).read_bytes()
            for name in ("f32.wav", "i16.wav", "model.ckpt", "manifest.txt")}


@FUZZ
@given(edit_list=edits, name=st.sampled_from(("f32.wav", "i16.wav")))
@example(edit_list=[("set", 40, 0x5F)], name="i16.wav")   # odd data-chunk size
@example(edit_list=[("set", -1, 0xFF), ("set", -2, 0xC0)], name="f32.wav")   # NaN sample
def test_read_wav_raises_only_wav_format_error(tmp_path, blobs, edit_list, name):
    _fuzz(tmp_path / name, blobs[name], edit_list, read_wav, WavFormatError)


@FUZZ
@given(edit_list=edits)
@example(edit_list=[("set", 60, 0x00)])   # a layout-digest byte
@example(edit_list=[("set", 48, 0x00)])   # optimizer flag cleared: the moments trail
@example(edit_list=[("set", 48, 0x02)])   # optimizer flag neither 0 nor 1
@example(edit_list=[("truncate", 200, 0)])   # cut inside the parameter payload
@example(edit_list=[("set", -1, 0xFF), ("set", -2, 0xC0)])   # NaN as the last v_max value
@example(edit_list=[("set", 24, 0xFF), ("set", 25, 0xFF)])   # 65k blocks in the header
def test_load_checkpoint_raises_only_data_error(tmp_path, blobs, edit_list):
    _fuzz(tmp_path / "model.ckpt", blobs["model.ckpt"], edit_list, load_checkpoint, DataError)


@FUZZ
@given(edit_list=edits)
def test_manifest_read_raises_only_data_error(tmp_path, blobs, edit_list):
    _fuzz(tmp_path / "manifest.txt", blobs["manifest.txt"], edit_list, manifest_read, DataError)


@FUZZ
@given(edit_list=edits)
def test_load_and_parse_config_raise_only_config_error(tmp_path, edit_list):
    blob = emit_config(RunConfig()).encode()
    _fuzz(tmp_path / "run.cfg", blob, edit_list, load_config, ConfigError)
    try:
        parse_config(_mutate(blob, edit_list).decode("latin-1"))
    except ConfigError:
        pass
