"""Binary checkpoint format for parameters and optimizer state.

A checkpoint is a fixed-size header, all integers little-endian:

    magic            8 bytes  b"DLLRNNCK"
    version          u32      currently 2
    config           7 x u32  channels, hidden, spatial, blocks, l_in, l_out, hop
    step             u64      training steps completed
    opt_flag         u8       1 when optimizer state follows, else 0
    opt_step         u64      the optimizer's step count (0 without a flag)
    layout           32 bytes SHA-256 of the config's parameter layout

followed by the store's flat buffers as float32-LE, each in
``param_table`` order: ``store.data`` and, when ``opt_flag`` is set, the
Adam moments ``m``, ``v`` and ``v_max``. The layout digest is taken over
one ``name:d0xd1...`` line per ``param_table`` row (UTF-8, ``\\n``-ended),
so a file whose writer had another table is told apart from one whose
payload merely fits.

Loading validates the magic and version, the config, the layout digest,
that the file ends exactly after the payload, and that every value is
finite, so a truncated, padded, non-finite or mismatched file fails
loudly, as a DataError naming the record where there is one, instead of
poisoning a run. Saving refuses a store that is not float32 or whose
``(name, shape)`` rows are not the config's table.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, DimensionError
from .framing import FrameSpec
from .model import ModelConfig, param_table

MAGIC = b"DLLRNNCK"
VERSION = 2
HEADER = struct.Struct("<8sI7IQBQ32s")


def _layout(config: ModelConfig):
    """The config's ``(name, shape)`` rows and their digest."""
    rows = [(name, shape) for name, shape, _ in param_table(config)]
    text = "".join(f"{name}:{'x'.join(map(str, shape))}\n" for name, shape in rows)
    return rows, hashlib.sha256(text.encode()).digest()


@dataclass
class CheckpointData:
    """``arrays`` maps each parameter name to a read-only view of the payload;
    ``opt``, when the file holds optimizer state, is its 3×P ``(m, v, v_max)``."""

    config: ModelConfig
    step: int
    arrays: dict
    opt_step: int = 0
    opt: np.ndarray = None


def save_checkpoint(path, config: ModelConfig, store, step: int, opt_state=None):
    """Write params (and optionally AMSGrad moments) for later resumption."""
    rows, digest = _layout(config)
    got = [(name, tensor.shape) for name, tensor in store.items()]
    if got != rows:
        have, want = next(pair for pair in itertools.zip_longest(got, rows) if pair[0] != pair[1])
        raise ContractError(f"store has {have or 'no row'} where config {config.name}'s "
                            f"table has {want or 'no row'}")
    if store.dtype != np.float32:
        raise ContractError(f"checkpoints hold float32 parameters, the store's are {store.dtype}")
    flats = [store.data]
    if opt_state is not None:
        flats += [opt_state.m, opt_state.v, opt_state.v_max]
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(
            MAGIC, VERSION, config.channels, config.hidden, config.spatial, config.blocks,
            config.frame.l_in, config.frame.l_out, config.frame.hop, step,
            opt_state is not None, 0 if opt_state is None else opt_state.step, digest))
        for flat in flats:
            fh.write(np.ascontiguousarray(flat, "<f4"))


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic at byte 0, not a checkpoint")
    if len(blob) < HEADER.size:
        raise DataError(f"{path}: truncated at byte {len(blob)} "
                        f"(wanted {HEADER.size - len(blob)} more)")
    _, version, c, f, s, b, l_in, l_out, hop, step, opt_flag, opt_step, digest = \
        HEADER.unpack_from(blob)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        config = ModelConfig(channels=c, hidden=f, spatial=s, blocks=b,
                             frame=FrameSpec(l_in=l_in, l_out=l_out, hop=hop))
    except (ConfigError, DimensionError) as exc:
        raise DataError(f"{path}: bad model config in header: {exc}") from None
    if opt_flag > 1 or (not opt_flag and opt_step):
        raise DataError(f"{path}: bad optimizer flag {opt_flag} with step {opt_step}")
    # Every block owns parameter values; this also bounds param_table's walk.
    n_values = (len(blob) - HEADER.size) // 4
    if b > n_values:
        raise DataError(f"{path}: config {config.name} has {b} blocks but the payload "
                        f"holds only {n_values} values")
    rows, want = _layout(config)
    if digest != want:
        raise DataError(f"{path}: parameter layout {digest.hex()[:16]} does not match "
                        f"config {config.name}'s table ({want.hex()[:16]})")
    starts = [0, *itertools.accumulate(math.prod(shape) for _, shape in rows)]
    n_params = starts.pop()
    end = HEADER.size + 4 * n_params * (4 if opt_flag else 1)
    if len(blob) < end:
        raise DataError(f"{path}: truncated at byte {len(blob)} (wanted {end - len(blob)} more)")
    if len(blob) > end:
        raise DataError(f"{path}: {len(blob) - end} trailing bytes after the last record, "
                        f"at byte {end}")
    values = np.frombuffer(blob, "<f4", offset=HEADER.size)
    finite = np.isfinite(values)
    if not finite.all():
        at = int(finite.argmin())
        moment, flat = divmod(at, n_params)
        row = bisect.bisect_right(starts, flat) - 1
        name = rows[row][0] + ("", ".m", ".v", ".vmax")[moment]
        raise DataError(f"{path}: {'optimizer' if moment else 'parameter'} record '{name}' "
                        f"has non-finite value {values[at]} at flat index {flat - starts[row]}")
    arrays = {name: values[start:start + math.prod(shape)].reshape(shape)
              for (name, shape), start in zip(rows, starts)}
    return CheckpointData(config=config, step=step, arrays=arrays, opt_step=opt_step,
                          opt=values[n_params:].reshape(3, -1) if opt_flag else None)
