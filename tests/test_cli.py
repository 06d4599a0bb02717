"""End-to-end command-line workflows: simulate -> train -> enhance -> evaluate,
exit codes, and run-to-run byte determinism."""

import hashlib
import os

import numpy as np
import pytest

from dllrnn.checkpoint import HEADER, load_checkpoint, save_checkpoint
from dllrnn.cli import evaluate_manifest, main
from dllrnn.model import build_params, param_table
from dllrnn.simulate import manifest_read, manifest_write
from dllrnn.train import OptState
from dllrnn.wavio import read_wav, write_wav

TINY_CFG = (
    "channels=2\n"
    "hidden=4\n"
    "spatial=1\n"
    "blocks=2\n"
    "l_in=16\n"
    "l_out=4\n"
    "hop=2\n"
    "lr=0.001\n"
    "batch=1\n"
    "chunk_s=0.05\n"
    "epochs=2\n"
    "seed=3\n"
    "count=2\n"
    "duration_s=0.1\n"
    "order=1\n"
    "noise_max=2\n"
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulate a 2-example dataset and train the tiny model on it once."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_CFG)
    data_dir = root / "data"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path),
                 "--manifest", str(data_dir / "manifest.txt"),
                 "--out", str(run_dir)]) == 0
    return {"root": root, "cfg": cfg_path, "data": data_dir, "run": run_dir,
            "ckpt": run_dir / "final.ckpt", "manifest": data_dir / "manifest.txt"}


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["--bogus"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["count", "64x8x8"]) == 1
    assert main(["count", "64-8-8", "--hop", "16"]) == 1   # no such flag
    err = capsys.readouterr().err
    assert "error:" in err and "unrecognized arguments: --hop 16" in err


def test_count_table(capsys):
    assert main(["count", "64-8-8", "64-1-8", "256-8-8"]) == 0
    out = capsys.readouterr().out
    assert "D-LL-RNN-64-8-8" in out and "D-LL-RNN-256-8-8" in out
    row = next(line for line in out.splitlines() if "D-LL-RNN-64-8-8 " in line)
    fields = row.split()
    assert abs(float(fields[2]) - 0.49) <= 0.05   # params in millions
    assert abs(float(fields[3]) - 1.25) <= 0.19   # GFLOPs per second
    assert "2 FLOPs per multiply-accumulate" in out
    assert out.splitlines()[-1].endswith("1000 frames/s of 8-channel audio")

    assert main(["count", "64-8-8", "64-1-8", "256-8-8"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("args", [["64-8-8", "--channels", "0"], ["64-8-8", "64-8"]],
                         ids=["channels_zero", "later_name_bad"])
def test_count_prints_nothing_before_refusing(capsys, args):
    assert main(["count"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_simulate_zero_count(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["simulate", "--count", "0", "--out", str(out)]) == 0
    assert manifest_read(out / "manifest.txt") == []


def test_simulate_validation_errors(tmp_path):
    assert main(["simulate", "--count", "1"]) == 1                       # no --out
    assert main(["simulate", "--count", "-2", "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("snr_min=5\nsnr_max=-5\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    bad.write_text("noise_min=0\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)]) == 1


def test_simulate_dataset_contents(workspace):
    records = manifest_read(workspace["manifest"])
    assert len(records) == 2
    for i, rec in enumerate(records):
        assert int(rec["id"]) == i
        assert 1 <= int(rec["n_noise"]) <= 2
        assert -10.0 <= float(rec["snr_db"]) <= 10.0
        assert float(rec["room_l"]) >= 3.0 and float(rec["absorption"]) <= 0.4
        mix, rate = read_wav(workspace["data"] / rec["mixture"])
        direct, _ = read_wav(workspace["data"] / rec["direct"])
        assert rate == 16000
        assert mix.shape == direct.shape == (2, 1600)
        assert np.isfinite(mix).all()


def test_simulate_byte_deterministic(tmp_path, workspace):
    again = tmp_path / "again"
    assert main(["simulate", "--config", str(workspace["cfg"]), "--out", str(again)]) == 0
    for name in sorted(os.listdir(again)):
        assert (again / name).read_bytes() == (workspace["data"] / name).read_bytes(), name


def test_simulate_seed_changes_data(tmp_path, workspace):
    other = tmp_path / "other"
    assert main(["simulate", "--config", str(workspace["cfg"]), "--seed", "99",
                 "--out", str(other)]) == 0
    mix_name = manifest_read(other / "manifest.txt")[0]["mixture"]
    assert ((other / mix_name).read_bytes()
            != (workspace["data"] / mix_name).read_bytes())


def test_train_artifacts(workspace, capsys):
    run = workspace["run"]
    for name in ("final.ckpt", "best.ckpt", "epoch_0001.ckpt", "epoch_0002.ckpt",
                 "train.log"):
        assert (run / name).exists(), name
    lines = (run / "train.log").read_text().splitlines()
    assert len(lines) == 4  # 2 examples x 2 epochs, batch 1
    assert lines[0].startswith("step=1 ") and lines[-1].startswith("step=4 ")


def test_train_requires_manifest():
    assert main(["train"]) == 1
    assert main(["train", "--manifest", "does/not/exist.txt"]) == 2


def test_train_resume_continues_steps(workspace, tmp_path):
    resumed = tmp_path / "resumed"
    cfg2 = tmp_path / "longer.cfg"
    cfg2.write_text(TINY_CFG.replace("epochs=2", "epochs=4"))
    assert main(["train", "--config", str(cfg2),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(resumed), "--resume", str(workspace["ckpt"])]) == 0
    lines = (resumed / "train.log").read_text().splitlines()
    assert lines[0].startswith("step=5 ") and lines[-1].startswith("step=8 ")


def test_train_chunk_under_one_sample_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(TINY_CFG.replace("chunk_s=0.05", "chunk_s=1e-300"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--manifest", str(workspace["manifest"]),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "chunk_seconds 1e-300 is under one sample at 16000 Hz" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_train_resume_config_mismatch(workspace, tmp_path):
    cfg2 = tmp_path / "wider.cfg"
    cfg2.write_text(TINY_CFG.replace("hidden=4", "hidden=8"))
    assert main(["train", "--config", str(cfg2),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "x"), "--resume", str(workspace["ckpt"])]) == 1


def test_enhance_roundtrip(workspace, tmp_path):
    rec = manifest_read(workspace["manifest"])[0]
    in_wav = workspace["data"] / rec["mixture"]
    out_a = tmp_path / "a.wav"
    out_b = tmp_path / "b.wav"
    assert main(["enhance", str(workspace["ckpt"]), str(in_wav), "--out", str(out_a)]) == 0
    assert main(["enhance", str(workspace["ckpt"]), str(in_wav), "--out", str(out_b)]) == 0
    enhanced, rate = read_wav(out_a)
    mixture, _ = read_wav(in_wav)
    assert rate == 16000
    assert enhanced.shape == (1, mixture.shape[1])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_enhance_input_validation(workspace, tmp_path):
    ckpt = str(workspace["ckpt"])
    wrong_rate = tmp_path / "r.wav"
    write_wav(wrong_rate, np.zeros((2, 100), np.float32), rate=8000)
    assert main(["enhance", ckpt, str(wrong_rate), "--out", str(tmp_path / "o.wav")]) == 2
    wrong_ch = tmp_path / "c.wav"
    write_wav(wrong_ch, np.ones((3, 100), np.float32))
    assert main(["enhance", ckpt, str(wrong_ch), "--out", str(tmp_path / "o.wav")]) == 2
    assert main(["enhance", ckpt, str(tmp_path / "missing.wav"),
                 "--out", str(tmp_path / "o.wav")]) == 2
    assert main(["enhance", str(tmp_path / "missing.ckpt"), str(wrong_ch),
                 "--out", str(tmp_path / "o.wav")]) == 2


def test_evaluate_cli(workspace, capsys):
    assert main(["evaluate", str(workspace["ckpt"]), str(workspace["manifest"])]) == 0
    out = capsys.readouterr().out
    assert "mean SI-SDR" in out and "over 2 examples" in out
    assert main(["evaluate", str(workspace["ckpt"]), str(workspace["manifest"]),
                 "--limit", "1"]) == 0
    assert "over 1 examples" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_evaluate_limit_below_one_exits_1(workspace, capsys, limit):
    assert main(["evaluate", str(workspace["ckpt"]), str(workspace["manifest"]),
                 "--limit", limit]) == 1
    err = capsys.readouterr().err
    assert f"--limit must be at least 1, got {limit}" in err and "Traceback" not in err


def test_enhance_all_zero_wav_exits_2(workspace, tmp_path, capsys):
    # a constant input has variance zero too: it would scale to inf and NaN,
    # as would one whose scale 1/std overflows float32; a WAV of no samples
    # is an empty input, not an all-zero one
    quiet = np.random.default_rng(5).standard_normal((2, 400))
    quiet = (quiet / np.std(quiet) * 1e-39).astype(np.float32)
    for name, data, message in (("silent", np.zeros((2, 400), np.float32),
                                 "cannot normalize an all-zero waveform"),
                                ("constant", np.full((2, 400), 0.25, np.float32),
                                 "cannot normalize a constant waveform"),
                                ("quiet", quiet,
                                 "cannot normalize a waveform of standard deviation 1e-39"),
                                ("empty", np.zeros((2, 0), np.float32),
                                 "cannot enhance an empty input")):
        path = tmp_path / f"{name}.wav"
        write_wav(path, data)
        out = tmp_path / "o.wav"
        assert main(["enhance", str(workspace["ckpt"]), str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not out.exists()


def _with_foreign_layout(path, fault):
    """Rewrite the checkpoint at ``path`` with the layout digest of a table
    whose 'encoder.linear.weight' row is renamed or transposed. The payload
    fits that table value for value; only the digest tells the two apart."""
    blob = bytearray(path.read_bytes())
    lines = {None: [], fault: []}
    for name, shape, _ in param_table(load_checkpoint(path).config):
        lines[None].append(f"{name}:{'x'.join(map(str, shape))}\n")
        if name == "encoder.linear.weight":
            if fault == "renamed":
                name = "encoder.linear.weights"
            else:
                shape = shape[::-1]  # same scalar count in the transposed shape
        lines[fault].append(f"{name}:{'x'.join(map(str, shape))}\n")
    digest = {key: hashlib.sha256("".join(rows).encode()).digest()
              for key, rows in lines.items()}
    assert blob[HEADER.size - 32:HEADER.size] == digest[None]
    blob[HEADER.size - 32:HEADER.size] = digest[fault]
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("fault", ["renamed", "reshaped"])
def test_bad_parameter_record_exits_2(workspace, tmp_path, capsys, fault):
    ck = load_checkpoint(workspace["ckpt"])
    store = build_params(ck.config)
    store.load_arrays(ck.arrays)
    bad = tmp_path / f"{fault}.ckpt"
    save_checkpoint(bad, ck.config, store, ck.step)
    _with_foreign_layout(bad, fault)
    mixture = workspace["data"] / manifest_read(workspace["manifest"])[0]["mixture"]
    assert main(["enhance", str(bad), str(mixture), "--out", str(tmp_path / "o.wav")]) == 2
    assert main(["evaluate", str(bad), str(workspace["manifest"])]) == 2
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "run"), "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: {bad}: parameter layout ") == 3
    assert err.count(f"does not match config {ck.config.name}'s table") == 3
    assert "Traceback" not in err
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("fault", ["renamed", "reshaped"])
def test_bad_optimizer_record_exits_2(workspace, tmp_path, capsys, fault):
    # the moments follow the parameters in the same table order under the
    # same digest, so a resume file from another table is refused before
    # any moment is read
    ck = load_checkpoint(workspace["ckpt"])
    store = build_params(ck.config)
    store.load_arrays(ck.arrays)
    state = OptState.from_checkpoint(ck, store)
    bad = tmp_path / f"{fault}.ckpt"
    save_checkpoint(bad, ck.config, store, ck.step, opt_state=state)
    assert load_checkpoint(bad).opt is not None
    _with_foreign_layout(bad, fault)
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "run"), "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: parameter layout " in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fault,message", [
    ("layout", "parameter layout "),
    ("version", "unsupported checkpoint version 1"),
    ("truncated", "truncated at byte "),
    ("padded", "8 trailing bytes after the last record"),
], ids=["layout", "version", "truncated", "padded"])
def test_bad_checkpoint_exits_2(workspace, tmp_path, capsys, fault, message):
    # the layout digest stands for the parameter names and shapes: a file
    # whose digest is not its config's, of format version 1, or of the wrong
    # length is refused by every reader of it
    blob = bytearray(workspace["ckpt"].read_bytes())
    if fault == "layout":
        blob[HEADER.size - 1] ^= 0x01
    elif fault == "version":
        blob[8:12] = (1).to_bytes(4, "little")
    elif fault == "truncated":
        del blob[-4:]
    else:
        blob += b"\0" * 8
    bad = tmp_path / f"{fault}.ckpt"
    bad.write_bytes(bytes(blob))
    mixture = workspace["data"] / manifest_read(workspace["manifest"])[0]["mixture"]
    assert main(["enhance", str(bad), str(mixture), "--out", str(tmp_path / "o.wav")]) == 2
    assert main(["evaluate", str(bad), str(workspace["manifest"])]) == 2
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "run"), "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: {bad}: {message}") == 3 and "Traceback" not in err
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "run").exists()


def _write_with_sample(path, data, ch, i, value):
    """A float32 WAV of ``data`` whose sample (ch, i) is ``value``. write_wav
    refuses a non-finite sample, so the value is patched into the bytes."""
    write_wav(path, data)
    blob = bytearray(path.read_bytes())
    at = blob.index(b"data") + 8 + 4 * (i * data.shape[0] + ch)
    blob[at:at + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_enhance_non_finite_wav_exits_2(workspace, tmp_path, capsys, value):
    mixture, _ = read_wav(workspace["data"] / manifest_read(workspace["manifest"])[0]["mixture"])
    path = tmp_path / "bad.wav"
    _write_with_sample(path, mixture, 1, 7, value)
    out = tmp_path / "o.wav"
    assert main(["enhance", str(workspace["ckpt"]), str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: non-finite value {value} in channel 1 at sample 7" in err
    assert "Traceback" not in err and not out.exists()


def _example_paths(workspace):
    """The workspace manifest's records with absolute file paths."""
    records = manifest_read(workspace["manifest"])
    for rec in records:
        for key in ("mixture", "direct"):
            rec[key] = workspace["data"] / rec[key]
    return records


@pytest.mark.parametrize("fault", ["nan", "inf", "zero", "constant"])
def test_evaluate_skips_unusable_example(workspace, tmp_path, capsys, fault):
    records = _example_paths(workspace)
    mixture, _ = read_wav(records[0]["mixture"])
    if fault in ("zero", "constant"):
        mixture[:] = 0.0 if fault == "zero" else -0.5
        write_wav(tmp_path / "bad.mix.wav", mixture)
    else:
        _write_with_sample(tmp_path / "bad.mix.wav", mixture, 0, 3,
                           np.nan if fault == "nan" else np.inf)
    records[0]["mixture"] = tmp_path / "bad.mix.wav"
    manifest_write(tmp_path / "m.txt", records)
    assert main(["evaluate", str(workspace["ckpt"]), str(tmp_path / "m.txt")]) == 0
    captured = capsys.readouterr()
    assert f"example {records[1]['id']}:" in captured.out and "over 1 examples" in captured.out
    assert f"error: {records[0]['id']}: " in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command,line,message", [
    ("simulate", "order=-1", "order must lie in [0, MAX_ORDER = 37], got -1"),
    ("simulate", "order=38", "order must lie in [0, MAX_ORDER = 37], got 38"),
    ("simulate", "order=100", "order must lie in [0, MAX_ORDER = 37], got 100"),
    ("train", "l_out=33", "l_out 33 not a multiple of hop 16"),
    ("train", "hop=0", "need hop <= l_out <= l_in, got (256, 32, 0)"),
    ("train", "channels=2\nbatch=0", "batch size must be >= 1, got 0"),
    ("simulate", "snr_min=nan", "key 'snr_min' must be finite, got 'nan'"),
    ("simulate", "snr_max=inf", "key 'snr_max' must be finite, got 'inf'"),
    ("simulate", "duration_s=nan", "key 'duration_s' must be finite, got 'nan'"),
    ("simulate", "duration_s=inf", "key 'duration_s' must be finite, got 'inf'"),
    ("simulate", "duration_s=-1", "duration_s -1.0 is under one sample"),
    ("simulate", "duration_s=0", "duration_s 0.0 is under one sample"),
    ("simulate", "duration_s=0.00001", "duration_s 1e-05 is under one sample"),
    ("simulate", "duration_s=1e12", "duration_s 1000000000000.0 is over the 111.8 s an "
     "example of 8 microphones and up to 10 noises may take in 1024 MiB"),
    ("simulate", "duration_s=1e300", "duration_s 1e+300 is over the 111.8 s"),
    ("simulate", "channels=0", "channels must be >= 1, got 0"),
    ("simulate", "channels=-1", "channels must be >= 1, got -1"),
    ("train", "channels=2\nclip=-0.03", "clip must be finite and positive, got -0.03"),
    ("train", "channels=2\nlr=-0.001", "lr must be finite and positive, got -0.001"),
    ("train", "channels=2\nchunk_s=0", "chunk_seconds must be finite and positive, got 0.0"),
    ("train", "channels=2\nepochs=-1", "epochs must be >= 0, got -1"),
    ("train", "channels=2\nseed=-1", "seed must be >= 0, got -1"),
], ids=["order", "order_38", "order_100", "l_out", "hop", "batch", "snr_nan", "snr_inf",
        "duration_nan", "duration_inf", "duration_negative", "duration_zero", "duration_under_one_sample",
        "duration_over_allowance", "duration_1e300",
        "channels_zero", "channels_negative", "clip_negative", "lr_negative", "chunk_zero",
        "epochs_negative", "seed_negative"])
def test_bad_config_value_exits_1(workspace, tmp_path, capsys, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--manifest", str(workspace["manifest"])]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_negative_seed_flag_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(workspace["cfg"]), "--out", str(out),
                 "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_duration_before_direct_arrival_exits_2(tmp_path, capsys):
    # 16 samples end before the speech reaches any microphone: only sinc
    # tails (peak ~1e-18) would land in the example
    cfg = tmp_path / "short.cfg"
    cfg.write_text("count=2\nchannels=2\norder=1\nduration_s=0.001\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: example 0: speech source's direct path first reaches "
                          "a microphone at sample ")
    assert err.rstrip().endswith("past the example's 16 samples") and "Traceback" not in err
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("fault", ["short_direct", "rate_8k", "three_channels"])
def test_bad_example_file(workspace, tmp_path, capsys, fault):
    records = _example_paths(workspace)
    mixture, _ = read_wav(records[0]["mixture"])
    direct, _ = read_wav(records[0]["direct"])
    mix_path, direct_path = tmp_path / "bad.mix.wav", tmp_path / "bad.direct.wav"
    named = direct_path if fault == "short_direct" else mix_path
    if fault == "short_direct":
        direct = direct[:, :-1]
    if fault == "three_channels":
        mixture = np.concatenate([mixture, mixture[:1]])
    rate = 8000 if fault == "rate_8k" else 16000
    write_wav(mix_path, mixture, rate=rate)
    write_wav(direct_path, direct, rate=rate)
    records[0]["mixture"], records[0]["direct"] = mix_path, direct_path
    manifest_write(tmp_path / "m.txt", records)

    assert main(["train", "--config", str(workspace["cfg"]), "--manifest", str(tmp_path / "m.txt"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"error: {named}: " in err and "Traceback" not in err

    assert main(["evaluate", str(workspace["ckpt"]), str(tmp_path / "m.txt")]) == 0
    captured = capsys.readouterr()
    assert f"example {records[1]['id']}:" in captured.out and "over 1 examples" in captured.out
    assert f"error: {records[0]['id']}: {named}: " in captured.err
    assert "Traceback" not in captured.err


def test_non_finite_parameter_record_exits_2(workspace, tmp_path, capsys):
    ck = load_checkpoint(workspace["ckpt"])
    store = build_params(ck.config)
    store.load_arrays(ck.arrays)
    store["decoder.linear.bias"].data[1] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, ck.config, store, ck.step)
    mixture = workspace["data"] / manifest_read(workspace["manifest"])[0]["mixture"]
    out = tmp_path / "o.wav"
    assert main(["enhance", str(bad), str(mixture), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"error: {bad}: parameter record 'decoder.linear.bias' has non-finite value nan "
            f"at flat index 1") in err
    assert "Traceback" not in err and not out.exists()


def test_non_finite_optimizer_record_exits_2(workspace, tmp_path, capsys):
    ck = load_checkpoint(workspace["ckpt"])
    store = build_params(ck.config)
    store.load_arrays(ck.arrays)
    state = OptState.from_checkpoint(ck, store)
    v = store.views(state.v)["encoder.linear.weight"]
    v[2, 3] = np.inf
    bad = tmp_path / "inf.ckpt"
    save_checkpoint(bad, ck.config, store, ck.step, opt_state=state)
    flat = 2 * v.shape[1] + 3
    assert main(["train", "--config", str(workspace["cfg"]),
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "run"), "--resume", str(bad)]) == 2
    err = capsys.readouterr().err
    assert (f"error: {bad}: optimizer record 'encoder.linear.weight.v' has non-finite value "
            f"inf at flat index {flat}") in err
    assert "Traceback" not in err


def test_padded_checkpoint_exits_2(workspace, tmp_path, capsys):
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(workspace["ckpt"].read_bytes() + b"\0" * 8)
    mixture = workspace["data"] / manifest_read(workspace["manifest"])[0]["mixture"]
    assert main(["enhance", str(padded), str(mixture), "--out", str(tmp_path / "o.wav")]) == 2
    assert main(["evaluate", str(padded), str(workspace["manifest"])]) == 2
    err = capsys.readouterr().err
    assert "trailing bytes" in err and "Traceback" not in err


@pytest.mark.parametrize("missing", ["mixture", "direct"])
def test_manifest_without_example_field_exits_2(workspace, tmp_path, capsys, missing):
    records = _example_paths(workspace)
    del records[1][missing]
    manifest = tmp_path / f"no_{missing}.txt"
    manifest_write(manifest, records)
    assert main(["train", "--config", str(workspace["cfg"]), "--manifest", str(manifest),
                 "--out", str(tmp_path / "run")]) == 2
    assert main(["evaluate", str(workspace["ckpt"]), str(manifest)]) == 2
    err = capsys.readouterr().err
    # line 1 is the header comment, so the second record is line 3
    assert err.count(f"no_{missing}.txt:3: manifest record has no '{missing}=' field") == 2
    assert "Traceback" not in err


def test_evaluate_manifest_identity_and_oracle(tmp_path):
    # mixture file == direct file, so the unprocessed score is the 80 dB
    # self-similarity cap and an identity enhancer must tie it exactly
    rng = np.random.default_rng(0)
    names = []
    for i in range(3):
        x = rng.standard_normal((1, 400)).astype(np.float32)
        name = f"ex{i}.wav"
        write_wav(tmp_path / name, x)
        names.append(name)
    records = [{"id": i, "mixture": n, "direct": n} for i, n in enumerate(names)]
    manifest_write(tmp_path / "m.txt", records)

    report = evaluate_manifest(lambda mix: mix[:1], tmp_path / "m.txt")
    assert len(report["rows"]) == 3 and report["errors"] == []
    assert report["mean_enhanced"] == report["mean_unprocessed"] == 80.0

    limited = evaluate_manifest(lambda mix: mix[:1], tmp_path / "m.txt", limit=2)
    assert len(limited["rows"]) == 2


def test_evaluate_manifest_skips_broken_examples(tmp_path):
    x = np.ones((1, 100), np.float32)
    write_wav(tmp_path / "good.wav", x)
    records = [
        {"id": 0, "mixture": "good.wav", "direct": "good.wav"},
        {"id": 1, "mixture": "gone.wav", "direct": "good.wav"},
        {"id": 2, "mixture": "good.wav", "direct": "good.wav"},
    ]
    manifest_write(tmp_path / "m.txt", records)
    report = evaluate_manifest(lambda mix: mix[:1], tmp_path / "m.txt")
    assert [r["id"] for r in report["rows"]] == ["0", "2"]
    assert len(report["errors"]) == 1 and "1:" in report["errors"][0]


def test_unprocessed_score_band(tmp_path):
    # the published unprocessed mean is -7.5 dB; a 50-example draw from the
    # full scene distribution at half-second length should land in a generous
    # band around it
    cfg = tmp_path / "band.cfg"
    cfg.write_text("count=50\nduration_s=0.5\norder=2\nseed=11\n")
    out = tmp_path / "band"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = evaluate_manifest(lambda mix: mix[:1], out / "manifest.txt")
    assert len(report["rows"]) == 50
    assert -14.0 <= report["mean_unprocessed"] <= -2.0, report["mean_unprocessed"]
