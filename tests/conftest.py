"""Shared test helpers: finite-difference oracles and the overfit fixture."""

import time

import numpy as np
import pytest

from dllrnn.losses import si_sdr
from dllrnn.model import ModelConfig, build_params, model_forward
from dllrnn.simulate import draw_scene, spatialize_mixture, speech_like, white_noise
from dllrnn.tensor import Tape, Tensor, from_op
from dllrnn.train import Schedule, TrainExample, fit


def fd_grad(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar-valued f at x (float64)."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = f(x)
        flat[i] = keep - eps
        fm = f(x)
        flat[i] = keep
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def rel_err(got, want):
    """Normalized gradient-check error: ||got - want|| / max(||got|| + ||want||, tiny)."""
    got = np.asarray(got, dtype=np.float64).reshape(-1)
    want = np.asarray(want, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(got) + np.linalg.norm(want), 1e-12)
    return float(np.linalg.norm(got - want) / denom)


def tape_grad(f, x):
    """Gradient of scalar f(Tensor) at x via one reverse sweep, float64."""
    leaf = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        tape.backward(f(leaf))
    return leaf.grad


def tape_sum(t):
    """Sum of all elements as a scalar tensor: a test-local op built with from_op."""
    return from_op(np.asarray(t.data.sum(), dtype=t.data.dtype), (t,),
                   lambda g: (np.full_like(t.data, g.reshape(())),))


def tape_add(a, b):
    """Elementwise sum of two same-shape tensors: a test-local op built with from_op."""
    return from_op(a.data + b.data, (a, b), lambda g: (g, g))


def tape_mul(a, b):
    """Elementwise product of two same-shape tensors: a test-local op built with from_op."""
    return from_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def make_anechoic_example(seed=42, n_mics=2, snr_db=0.0, n=4000):
    """One reflection-free mixture with a single point noise source.

    With no reverberation a two-microphone array can null one interferer
    exactly, so a small model can fit this scene hard within a short step
    budget — which is what the overfit check needs.
    """
    rng = np.random.default_rng(seed)
    scene = draw_scene(rng, n_mics=n_mics, n_noise_range=(1, 1))
    scene.snr_db = snr_db
    speech = speech_like(rng, n)
    noises = [white_noise(rng, n) for _ in range(scene.n_noise)]
    return spatialize_mixture(scene, speech, noises, order=0)


@pytest.fixture(scope="session")
def overfit_run():
    """Train a tiny model on one fixed mixture for 500 steps; shared result.

    Returns a dict with the loss ratio, the SI-SDR change of the enhanced
    estimate over the unprocessed first channel, and the wall time.
    """
    ex = make_anechoic_example()
    config = ModelConfig(channels=2, hidden=48, spatial=2, blocks=2)
    store = build_params(config, seed=0)
    item = TrainExample(mixture=ex.mixture.astype(np.float32),
                        s_direct=ex.s_direct.astype(np.float32))
    sched = Schedule(epochs=500, batch_size=1, chunk_seconds=1.0, seed=0,
                     lr=3e-3, clip=0.03)
    t0 = time.perf_counter()
    history = fit(config, store, [item], sched)
    elapsed = time.perf_counter() - t0
    estimate = model_forward(item.mixture, config, store).data[0]
    enhanced = si_sdr(estimate, ex.s_direct[0])
    unprocessed = si_sdr(ex.mixture[0], ex.s_direct[0])
    losses = [h["loss"] for h in history]
    return {
        "losses": losses,
        "ratio": losses[-1] / losses[0],
        "si_enhanced": enhanced,
        "si_unprocessed": unprocessed,
        "si_gain": enhanced - unprocessed,
        "elapsed_s": elapsed,
        "steps": len(history),
    }
