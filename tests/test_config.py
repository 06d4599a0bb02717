"""Run-configuration parsing: defaults, exact emit/parse roundtrip, and
line-numbered rejection of junk."""

import pytest

from dllrnn.config import (RunConfig, emit_config, load_config, model_config, parse_config,
                           schedule)
from dllrnn.errors import ConfigError


def test_defaults_are_the_full_recipe():
    cfg = RunConfig()
    assert (cfg.channels, cfg.hidden, cfg.spatial, cfg.blocks) == (8, 64, 8, 8)
    assert (cfg.l_in, cfg.l_out, cfg.hop) == (256, 32, 16)
    assert cfg.lr == 2e-4 and cfg.clip == 0.03
    assert cfg.batch == 16 and cfg.chunk_s == 4.0 and cfg.epochs == 200
    assert (cfg.snr_min, cfg.snr_max) == (-10.0, 10.0)
    assert (cfg.noise_min, cfg.noise_max) == (1, 10)
    assert cfg.order == 6


def test_parse_overrides_and_comments():
    cfg = parse_config(
        "# desk-scale run\n"
        "hidden = 16\n"
        "epochs=3   # short\n"
        "\n"
        "lr=0.001\n"
        "out=run_dir\n"
    )
    assert cfg.hidden == 16 and cfg.epochs == 3 and cfg.lr == 0.001
    assert cfg.out == "run_dir"
    assert cfg.blocks == 8  # untouched fields keep defaults


def test_emit_parse_roundtrip_exact():
    cfg = RunConfig(hidden=32, lr=1.0 / 3.0, chunk_s=0.123456789, seed=9,
                    manifest="data/manifest.txt")
    assert parse_config(emit_config(cfg)) == cfg
    assert parse_config(emit_config(RunConfig())) == RunConfig()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*unknown config key 'hidden_units'"):
        parse_config("hidden=16\nhidden_units=32\n")
    with pytest.raises(ConfigError, match="line 1.*unknown config key 'checkpoint'"):
        parse_config("checkpoint=run/final.ckpt\n")
    with pytest.raises(ConfigError, match="line 3.*key=value"):
        parse_config("hidden=16\n\njust some words\n")
    with pytest.raises(ConfigError, match="line 1.*cannot parse 'many' as int"):
        parse_config("epochs=many\n")
    with pytest.raises(ConfigError, match="cannot parse 'fast' as float"):
        parse_config("lr=fast\n")
    for text in ("nan", "NaN", "inf", "-inf"):
        with pytest.raises(ConfigError, match=f"line 2: key 'snr_min' must be finite, got '{text}'"):
            parse_config(f"hidden=16\nsnr_min={text}\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("channels=2\nhidden=8\n")
    cfg = load_config(path)
    assert cfg.channels == 2 and cfg.hidden == 8
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_model_config_and_schedule_mapping():
    cfg = parse_config("channels=2\nhidden=8\nspatial=2\nblocks=3\n"
                       "l_in=32\nl_out=8\nhop=4\n"
                       "lr=0.001\nclip=0.05\nbatch=2\nchunk_s=0.5\nepochs=7\nseed=11\n")
    m = model_config(cfg)
    assert (m.channels, m.hidden, m.spatial, m.blocks) == (2, 8, 2, 3)
    assert (m.frame.l_in, m.frame.l_out, m.frame.hop) == (32, 8, 4)
    s = schedule(cfg)
    assert (s.epochs, s.batch_size, s.chunk_seconds) == (7, 2, 0.5)
    assert (s.seed, s.lr, s.clip) == (11, 0.001, 0.05)


def test_model_config_validates_frame():
    # l_out 7 is shorter than hop 16: a configuration error (exit 1), not a
    # bare DimensionError
    with pytest.raises(ConfigError, match=r"l_out <= l_in, got \(256, 7, 16\)"):
        model_config(parse_config("l_out=7\n"))
