"""Command-line surface: simulate, train, enhance, count, evaluate.

Audio, dataset examples and checkpoints each have one reader here, which
checks them: 16 kHz, the model's channel count, an example's direct path as
long as its mixture. Exit codes: 0 success, 1 usage or configuration error,
2 data error (unreadable, malformed or mismatched files, or an all-zero
input), 3 numerical failure during optimization.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, model_config, schedule
from .errors import ConfigError, DataError, DegenerateInputError, NumericalError
from .framing import SAMPLE_RATE
from .losses import si_sdr
from .model import (ModelConfig, build_params, count_flops, count_params, enhance_waveform)
from .simulate import (draw_scene, manifest_read, manifest_write, pink_noise, spatialize_mixture,
                       speech_like, white_noise)
from .train import OptState, TrainExample, fit
from .wavio import read_wav, write_wav

_EXAMPLE_STREAM = 65537


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if getattr(args, "out", None):
        cfg.out = args.out
    for key in ("count", "epochs", "batch"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    if not cfg.out:
        raise ConfigError("simulate needs an output directory (--out)")
    if cfg.count < 0:
        raise ConfigError(f"count must be >= 0, got {cfg.count}")
    if cfg.order < 0:
        raise ConfigError(f"order must be >= 0, got {cfg.order}")
    if cfg.channels < 1:
        raise ConfigError(f"channels must be >= 1, got {cfg.channels}")
    if cfg.snr_min > cfg.snr_max:
        raise ConfigError(f"snr_min {cfg.snr_min} exceeds snr_max {cfg.snr_max}")
    if not (1 <= cfg.noise_min <= cfg.noise_max <= 10):
        raise ConfigError(
            f"noise range [{cfg.noise_min}, {cfg.noise_max}] must sit inside [1, 10]"
        )
    n_samples = int(round(cfg.duration_s * SAMPLE_RATE))
    if n_samples < 1:
        raise ConfigError(f"duration_s {cfg.duration_s} is under one sample at {SAMPLE_RATE} Hz")
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{cfg.out}': {exc}") from None
    records = []
    for i in range(cfg.count):
        rng = np.random.default_rng((cfg.seed, _EXAMPLE_STREAM, i))
        scene = draw_scene(rng, n_mics=cfg.channels,
                           snr_range=(cfg.snr_min, cfg.snr_max),
                           n_noise_range=(cfg.noise_min, cfg.noise_max))
        speech = speech_like(rng, n_samples)
        noises = [white_noise(rng, n_samples) if rng.integers(0, 2) == 0
                  else pink_noise(rng, n_samples) for _ in range(scene.n_noise)]
        try:
            ex = spatialize_mixture(scene, speech, noises, order=cfg.order)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"example {i}: {exc}") from None
        mix_name = f"ex{i:05d}.mix.wav"
        direct_name = f"ex{i:05d}.direct.wav"
        write_wav(os.path.join(cfg.out, mix_name), ex.mixture.astype(np.float32))
        write_wav(os.path.join(cfg.out, direct_name), ex.s_direct.astype(np.float32))
        records.append({
            "id": i, "mixture": mix_name, "direct": direct_name, "seed": cfg.seed,
            "snr_db": repr(ex.snr_db), "n_noise": ex.n_noise,
            "room_l": repr(scene.room.length), "room_w": repr(scene.room.width),
            "room_h": repr(scene.room.height), "absorption": repr(scene.room.absorption),
        })
    manifest_path = os.path.join(cfg.out, "manifest.txt")
    manifest_write(manifest_path, records)
    print(f"wrote {len(records)} examples to {cfg.out} (manifest: {manifest_path})")
    return 0


def _read_audio(path, channels=None):
    """A 16 kHz WAV as a C×N array; with ``channels``, C must equal it (else DataError)."""
    data, rate = read_wav(path)
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {rate}, need {SAMPLE_RATE}")
    if channels is not None and data.shape[0] != channels:
        raise DataError(f"{path}: {data.shape[0]} channels, the model expects {channels}")
    return data


def _read_manifest(path):
    """``(id, mixture path, direct path)`` per record, paths resolved from its directory."""
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    return [(rec.get("id", "?"), os.path.join(base, rec["mixture"]),
             os.path.join(base, rec["direct"])) for rec in manifest_read(path)]


def _read_example(mixture_path, direct_path, channels=None):
    """An example's mixture and direct path, read by :func:`_read_audio`, of equal length."""
    mixture = _read_audio(mixture_path, channels)
    direct = _read_audio(direct_path)
    if direct.shape[1] != mixture.shape[1]:
        raise DataError(f"{direct_path}: {direct.shape[1]} samples, its mixture "
                        f"{mixture_path} has {mixture.shape[1]}")
    return mixture, direct


def _load_model(path):
    """A checkpoint and a store holding its parameters."""
    ck = load_checkpoint(path)
    store = build_params(ck.config, seed=0)
    store.load_arrays(ck.arrays)
    return ck, store


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    manifest_path = args.manifest or cfg.manifest
    if not manifest_path:
        raise ConfigError("train needs a dataset manifest (--manifest)")
    out_dir = cfg.out or "train_out"
    mconfig = model_config(cfg)
    dataset = [TrainExample(*_read_example(mixture, direct, mconfig.channels))
               for _, mixture, direct in _read_manifest(manifest_path)]
    sched = schedule(cfg)
    start_step = 0
    if args.resume:
        ck, store = _load_model(args.resume)
        if ck.config != mconfig:
            raise ConfigError(f"checkpoint is for {ck.config.name} with frame {ck.config.frame}, "
                              f"config says {mconfig.name} with frame {mconfig.frame}")
        start_step = ck.step
        state = OptState.from_checkpoint(ck, store)
    else:
        store = build_params(mconfig, seed=cfg.seed)
        state = OptState.for_store(store)
    history = fit(mconfig, store, dataset, sched, out_dir=out_dir,
                  state=state, start_step=start_step, quiet=False)
    if history:
        print(f"finished at step {history[-1]['step']}, loss {history[-1]['loss']:.6e}")
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), mconfig, store,
                    history[-1]["step"] if history else start_step, opt_state=state)
    return 0


def cmd_enhance(args) -> int:
    ck, store = _load_model(args.checkpoint)
    data = _read_audio(args.in_wav, ck.config.channels)
    enhanced = enhance_waveform(data, ck.config, store)
    write_wav(args.out, enhanced.astype(np.float32))
    print(f"wrote {args.out} ({enhanced.shape[1]} samples)")
    return 0


def _parse_count_name(name: str, channels: int) -> ModelConfig:
    parts = name.split("-")
    if len(parts) != 3:
        raise ConfigError(f"config '{name}' should look like F-S-B, e.g. 64-8-8")
    try:
        hidden, spatial, blocks = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"config '{name}' has a non-integer field") from None
    return ModelConfig(channels=channels, hidden=hidden, spatial=spatial, blocks=blocks)


def cmd_count(args) -> int:
    print(f"{'config':<20} {'params':>12} {'params(M)':>10} {'GFLOPs/s':>10}")
    for name in args.configs:
        config = _parse_count_name(name, args.channels)
        params = count_params(config)
        gflops = count_flops(config) / 1e9
        print(f"{config.name:<20} {params:>12} {params / 1e6:>10.3f} {gflops:>10.3f}")
    print(f"# convention: 2 FLOPs per multiply-accumulate, matrix contractions only, "
          f"{SAMPLE_RATE // config.frame.hop} frames/s of {args.channels}-channel audio")
    return 0


def evaluate_manifest(enhance_fn, manifest_path, limit=None, channels=None):
    """SI-SDR of enhanced vs unprocessed audio against the direct path.

    ``enhance_fn`` maps a C×N mixture to a 1×N estimate. An example that
    :func:`_read_example` rejects (given ``channels``), or whose mixture is all
    zero, is reported and skipped. Returns the per-example rows, the two
    means, and the error list."""
    rows, errors = [], []
    for example_id, mixture_path, direct_path in _read_manifest(manifest_path)[:limit]:
        try:
            mixture, direct = _read_example(mixture_path, direct_path, channels)
            estimate = np.asarray(enhance_fn(mixture)).reshape(-1)
            rows.append({
                "id": example_id,
                "enhanced": si_sdr(estimate, direct[0]),
                "unprocessed": si_sdr(mixture[0], direct[0]),
            })
        except (OSError, DataError, DegenerateInputError) as exc:
            errors.append(f"{example_id}: {exc}")
    return {
        "rows": rows,
        "errors": errors,
        "mean_enhanced": float(np.mean([r["enhanced"] for r in rows])) if rows else None,
        "mean_unprocessed": float(np.mean([r["unprocessed"] for r in rows])) if rows else None,
    }


def cmd_evaluate(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {args.limit}")
    ck, store = _load_model(args.checkpoint)
    report = evaluate_manifest(lambda mixture: enhance_waveform(mixture, ck.config, store),
                               args.manifest, limit=args.limit, channels=ck.config.channels)
    for row in report["rows"]:
        print(f"example {row['id']}: enhanced {row['enhanced']:+.2f} dB, "
              f"unprocessed {row['unprocessed']:+.2f} dB")
    for err in report["errors"]:
        print(f"error: {err}", file=sys.stderr)
    if not report["rows"]:
        raise DataError("no examples could be evaluated")
    print(f"mean SI-SDR: enhanced {report['mean_enhanced']:+.2f} dB, "
          f"unprocessed {report['mean_unprocessed']:+.2f} dB "
          f"over {len(report['rows'])} examples")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dllrnn",
                     description="low-latency multichannel speech enhancement toolkit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("simulate", help="generate a multichannel mixture dataset")
    common(p)
    p.add_argument("--out", help="output dataset directory")
    p.add_argument("--count", type=int, help="number of examples")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a simulated dataset")
    common(p)
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--out", help="checkpoint/log output directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.add_argument("--batch", type=int, help="override batch size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance a multichannel WAV file")
    p.add_argument("checkpoint", help="trained checkpoint")
    p.add_argument("in_wav", help="input multichannel 16 kHz WAV")
    p.add_argument("--out", required=True, help="output WAV path")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("count", help="parameter and FLOP accounting")
    p.add_argument("configs", nargs="+", help="model configs as F-S-B, e.g. 64-8-8")
    p.add_argument("--channels", type=int, default=8)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("evaluate", help="SI-SDR report over a dataset manifest")
    p.add_argument("checkpoint", help="trained checkpoint")
    p.add_argument("manifest", help="dataset manifest path")
    p.add_argument("--limit", type=int, help="evaluate only the first N examples")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.error("a subcommand is required (simulate/train/enhance/count/evaluate)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DegenerateInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
