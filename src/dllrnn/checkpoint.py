"""Binary checkpoint format for parameters and optimizer state.

Layout, all integers little-endian:

    magic            8 bytes  b"DLLRNNCK"
    version          u32      currently 1
    config           7 x u32  channels, hidden, spatial, blocks, l_in, l_out, hop
    step             u64      training steps completed
    n_records        u32
    record           [name_len u16][name utf-8][rank u8][extent u32 x rank]
                     [float32-LE payload]
    opt_flag         u8       1 when optimizer state follows
    opt_step         u64      (flag only)
    n_opt_records    u32      records named "<param>.m", ".v", ".vmax"

Loading validates the magic, version and config, that the parameter
records are exactly the rows of the config's ``param_table``, each by name
and shape, that every value is finite, that the optimizer records are
exactly one ``.m``, ``.v`` and ``.vmax`` per parameter row, each shaped
like it, and that the file ends exactly after the last record, so a
truncated, padded, non-finite or mismatched file fails loudly, as a
DataError naming the record, instead of poisoning a run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .framing import FrameSpec
from .model import ModelConfig, param_table

MAGIC = b"DLLRNNCK"
VERSION = 1


def _pack_record(name: str, arr) -> bytes:
    # ascontiguousarray would promote rank-0 arrays to rank 1 and break the
    # roundtrip for scalar parameters (the PReLU slopes)
    payload = np.asarray(arr, dtype="<f4")
    if payload.ndim:
        payload = np.ascontiguousarray(payload)
    encoded = name.encode("utf-8")
    head = struct.pack("<H", len(encoded)) + encoded
    head += struct.pack("<B", payload.ndim)
    head += struct.pack(f"<{payload.ndim}I", *payload.shape)
    return head + payload.tobytes()


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError(f"{self.path}: truncated at byte {self.pos} (wanted {n} more)")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_records(r: _Reader, count: int, kind: str) -> dict:
    records = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{r.path}: {kind} record name at byte {r.pos - name_len} "
                            f"is not UTF-8") from None
        if name in records:
            raise DataError(f"{r.path}: duplicate {kind} record '{name}'")
        (rank,) = r.unpack("<B")
        if rank > 32:   # the most axes every supported numpy allows
            raise DataError(f"{r.path}: {kind} record '{name}' has rank {rank}")
        shape = r.unpack(f"<{rank}I")
        arr = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").astype(np.float32)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataError(f"{r.path}: {kind} record '{name}' has non-finite value "
                            f"{arr[bad[0]]} at flat index {bad[0]}")
        records[name] = arr.reshape(shape)
    return records


def _check_records(path, kind: str, records: dict, shapes: dict, config: ModelConfig):
    """Require exactly the records named in ``shapes``, each with its shape."""
    stray = sorted(shapes.keys() ^ records.keys())
    if stray:
        what = "unknown" if stray[0] in records else "missing"
        raise DataError(f"{path}: {what} {kind} record '{stray[0]}' for config {config.name}")
    for name, arr in records.items():
        if arr.shape != shapes[name]:
            raise DataError(f"{path}: {kind} record '{name}' has shape {arr.shape}, "
                            f"config {config.name} requires {shapes[name]}")


@dataclass
class CheckpointData:
    config: ModelConfig
    step: int
    arrays: dict
    opt_step: int = 0
    opt_arrays: dict = None


def save_checkpoint(path, config: ModelConfig, store, step: int, opt_state=None):
    """Write params (and optionally AMSGrad moments) for later resumption."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack(
        "<7I", config.channels, config.hidden, config.spatial, config.blocks,
        config.frame.l_in, config.frame.l_out, config.frame.hop,
    ))
    parts.append(struct.pack("<Q", step))
    items = list(store.items())
    parts.append(struct.pack("<I", len(items)))
    for name, tensor in items:
        parts.append(_pack_record(name, tensor.data))
    if opt_state is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(struct.pack("<Q", opt_state.step))
        moments = opt_state.moments(store)
        records = [(f"{name}.{suffix}", views[name])
                   for name, _ in items for suffix, views in moments]
        parts.append(struct.pack("<I", len(records)))
        for rec_name, arr in records:
            parts.append(_pack_record(rec_name, arr))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: bad magic at byte 0, not a checkpoint")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    c, f, s, b, l_in, l_out, hop = r.unpack("<7I")
    try:
        config = ModelConfig(channels=c, hidden=f, spatial=s, blocks=b,
                             frame=FrameSpec(l_in=l_in, l_out=l_out, hop=hop))
    except (ConfigError, DimensionError) as exc:
        raise DataError(f"{path}: bad model config in header: {exc}") from None
    (step,) = r.unpack("<Q")
    (n_records,) = r.unpack("<I")
    arrays = _read_records(r, n_records, "parameter")
    # Every block owns parameter records; this also bounds param_table's loop.
    if b > len(arrays):
        raise DataError(f"{path}: config {config.name} has {b} blocks but only "
                        f"{len(arrays)} parameter records")
    shapes = {name: shape for name, shape, _ in param_table(config)}
    _check_records(path, "parameter", arrays, shapes, config)
    (opt_flag,) = r.unpack("<B")
    opt_step, opt_arrays = 0, None
    if opt_flag:
        (opt_step,) = r.unpack("<Q")
        (n_opt,) = r.unpack("<I")
        opt_arrays = _read_records(r, n_opt, "optimizer")
        _check_records(path, "optimizer", opt_arrays,
                       {f"{name}.{moment}": shape for name, shape in shapes.items()
                        for moment in ("m", "v", "vmax")}, config)
    if r.pos != len(r.blob):
        raise DataError(f"{path}: {len(r.blob) - r.pos} trailing bytes after the last record, "
                        f"at byte {r.pos}")
    return CheckpointData(config=config, step=step, arrays=arrays,
                          opt_step=opt_step, opt_arrays=opt_arrays)
