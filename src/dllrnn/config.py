"""Flat key=value run configuration.

One ``key=value`` per line, ``#`` starts a comment, unknown keys are
rejected. All hyperparameters default to the full-scale training recipe
(64-8-8 model on 8 microphones, 2 ms framing, lr 2e-4, clip 0.03, batch 16,
4 s chunks, 200 epochs); desk-scale runs override the handful they need.
``emit_config`` uses ``repr`` for floats so parse(emit(c)) == c exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError, DimensionError
from .framing import FrameSpec
from .model import ModelConfig
from .train import Schedule


@dataclass
class RunConfig:
    # model
    channels: int = 8
    hidden: int = 64
    spatial: int = 8
    blocks: int = 8
    # framing
    l_in: int = 256
    l_out: int = 32
    hop: int = 16
    # training
    lr: float = 0.0002
    clip: float = 0.03
    batch: int = 16
    chunk_s: float = 4.0
    epochs: int = 200
    seed: int = 0
    # simulation
    count: int = 10
    duration_s: float = 2.0
    snr_min: float = -10.0
    snr_max: float = 10.0
    noise_min: int = 1
    noise_max: int = 10
    order: int = 6
    # paths
    out: str = ""
    manifest: str = ""


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_CASTS = {"int": int, "float": float, "str": str}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        try:
            parsed = _CASTS[_FIELDS[key]](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse '{value}' as {_FIELDS[key]} for key '{key}'"
            ) from None
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(f"line {lineno}: key '{key}' must be finite, got '{value}'")
        setattr(cfg, key, parsed)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name}={value!r}" if f.type == "float" else f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def model_config(cfg: RunConfig) -> ModelConfig:
    try:
        frame = FrameSpec(l_in=cfg.l_in, l_out=cfg.l_out, hop=cfg.hop)
    except DimensionError as exc:
        raise ConfigError(f"frame (l_in, l_out, hop): {exc}") from None
    return ModelConfig(channels=cfg.channels, hidden=cfg.hidden, spatial=cfg.spatial,
                       blocks=cfg.blocks, frame=frame)


def schedule(cfg: RunConfig) -> Schedule:
    return Schedule(epochs=cfg.epochs, batch_size=cfg.batch, chunk_seconds=cfg.chunk_s,
                    seed=cfg.seed, lr=cfg.lr, clip=cfg.clip)
