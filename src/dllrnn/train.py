"""Optimization: AMSGrad-flavored Adam, global gradient clipping, the fit loop.

Determinism is the organizing principle. Every stochastic choice — epoch
shuffling and per-example chunk cropping — is drawn from a generator keyed on
(seed, a fixed stream tag, the epoch or step counter), never from a shared
mutable RNG. Together with checkpoints that carry the optimizer moments and
the step counter, this makes a resumed run reproduce the continuation of the
original run bit for bit in single-threaded mode.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .framing import SAMPLE_RATE
from .losses import pcm_loss
from .model import ModelConfig, ParamStore, model_forward
from .tensor import Tape

_EPOCH_STREAM = 7919
_STEP_STREAM = 104729
# Adam's moment decay rates and denominator offset; the step size is Schedule.lr
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptState:
    """Adam's step count and moments, with the AMSGrad running maximum of the
    second moment: flat arrays laid out like the store's ``data``."""

    m: np.ndarray
    v: np.ndarray
    v_max: np.ndarray
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "OptState":
        return cls(*(np.zeros(store.data.shape, store.dtype) for _ in range(3)))

    @classmethod
    def from_checkpoint(cls, ck, store: ParamStore) -> "OptState":
        """The moments and step a checkpoint carries (checked by ``load_checkpoint``),
        or fresh ones if it has none."""
        state = cls.for_store(store)
        if ck.opt is not None:
            state.m[...], state.v[...], state.v_max[...] = ck.opt
            state.step = ck.opt_step
        return state


def adam_step(store: ParamStore, state: OptState, lr: float):
    """One bias-corrected update of step size ``lr``, applied to the store's
    whole flat buffer; v_max (not v) feeds the denominator.

    Aborts before touching any parameter if some gradient is non-finite.
    """
    g = store.grad
    if not np.isfinite(g).all():
        name = next(name for name, t in store.items() if not np.isfinite(t.grad).all())
        raise NumericalError(f"non-finite gradient in parameter '{name}' at step {state.step + 1}")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    m, v, v_max = state.m, state.v, state.v_max
    # Two scratch buffers carry every temporary, in the operation order of
    # data -= (lr/bc1)·m / (sqrt(v_max/bc2) + eps), so the bits match it.
    update, denom = np.empty_like(g), np.empty_like(g)
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=update)
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=update)
    v += np.multiply(update, g, out=update)
    np.maximum(v_max, v, out=v_max)
    np.multiply(lr / bc1, m, out=update)
    np.divide(v_max, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPS
    update /= denom
    store.data -= update


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, computed in double precision and summed one
    parameter at a time, so each parameter's sum keeps its own reduction order.
    """
    norm = math.sqrt(sum(float(np.sum(t.grad.astype(np.float64) ** 2))
                         for t in store.tensors()))
    if norm > max_norm:
        store.grad *= store.dtype.type(max_norm / norm)
    return norm


@dataclass
class TrainExample:
    """One training item: C×N mixture and its C×N direct-path target."""

    mixture: np.ndarray
    s_direct: np.ndarray


@dataclass
class Schedule:
    epochs: int = 1
    batch_size: int = 16
    chunk_seconds: float = 4.0
    seed: int = 0
    lr: float = 2e-4
    clip: float = 0.03


def _crop(rng, n: int, chunk_len: int) -> slice:
    if n <= chunk_len:
        return slice(0, n)
    start = int(rng.integers(0, n - chunk_len + 1))
    return slice(start, start + chunk_len)


def fit(config: ModelConfig, store: ParamStore, dataset, schedule: Schedule, *,
        out_dir=None, state: OptState = None, start_step: int = 0, quiet: bool = True):
    """Train ``store`` in place on a list of examples; returns the step history.

    Each step draws one seeded random chunk per batch example. Each example
    gets its own tape: the model runs on the mixture, the spectral loss
    scores the estimate against the first-microphone direct path, and the
    backward sweep follows at once, so only one example's activations are
    alive at a time. The parameters' gradients add up over the batch and are
    scaled by 1/B into the batch mean; then the global gradient norm is
    clipped and one optimizer step applied. With ``out_dir`` set, a
    checkpoint is written per epoch plus a best-loss one, and log lines go to
    ``train.log``.
    """
    from .checkpoint import save_checkpoint

    if not dataset:
        raise ConfigError("training dataset is empty")
    if schedule.batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {schedule.batch_size}")
    for key, value in (("lr", schedule.lr), ("clip", schedule.clip),
                       ("chunk_seconds", schedule.chunk_seconds)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be finite and positive, got {value}")
    for key, value in (("epochs", schedule.epochs), ("seed", schedule.seed)):
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    if state is None:
        state = OptState.for_store(store)
    chunk_len = max(1, int(round(schedule.chunk_seconds * SAMPLE_RATE)))
    steps_per_epoch = -(-len(dataset) // schedule.batch_size)
    start_epoch = start_step // steps_per_epoch
    history = []
    best_loss = np.inf
    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_fh = open(os.path.join(out_dir, "train.log"), "a", encoding="utf-8")
    step = start_step
    try:
        for epoch in range(start_epoch, schedule.epochs):
            order = np.random.default_rng((schedule.seed, _EPOCH_STREAM, epoch)).permutation(
                len(dataset))
            epoch_losses = []
            for k in range(steps_per_epoch):
                batch = order[k * schedule.batch_size:(k + 1) * schedule.batch_size]
                rng = np.random.default_rng((schedule.seed, _STEP_STREAM, step))
                t0 = time.perf_counter()
                store.zero_grad()
                total = 0
                for idx in batch:
                    ex = dataset[idx]
                    window = _crop(rng, ex.mixture.shape[1], chunk_len)
                    mix = ex.mixture[:, window].astype(store.dtype, copy=False)
                    target = ex.s_direct[0, window].astype(store.dtype, copy=False)
                    with Tape() as tape:
                        est = model_forward(mix, config, store)
                        item = pcm_loss(est, target, mix[0])
                        tape.backward(item)
                    total = total + item.data
                inv_batch = store.dtype.type(1.0 / len(batch))
                store.grad *= inv_batch
                loss_value = float(total * inv_batch)
                if not np.isfinite(loss_value):
                    raise NumericalError(f"non-finite loss {loss_value} at step {step + 1}")
                grad_norm = clip_grad_norm(store, schedule.clip)
                adam_step(store, state, schedule.lr)
                step += 1
                wall = time.perf_counter() - t0
                record = {"step": step, "epoch": epoch, "loss": loss_value,
                          "grad_norm": grad_norm, "wall_s": wall}
                history.append(record)
                epoch_losses.append(loss_value)
                line = (f"step={step} epoch={epoch} loss={loss_value:.6e} "
                        f"grad_norm={grad_norm:.6e} wall_s={wall:.3f}")
                if log_fh is not None:
                    log_fh.write(line + "\n")
                    log_fh.flush()
                if not quiet:
                    print(line)
            if out_dir is not None:
                save_checkpoint(os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt"),
                                config, store, step, opt_state=state)
                mean_loss = float(np.mean(epoch_losses))
                if mean_loss < best_loss:
                    best_loss = mean_loss
                    save_checkpoint(os.path.join(out_dir, "best.ckpt"),
                                    config, store, step, opt_state=state)
    finally:
        if log_fh is not None:
            log_fh.close()
    return history
