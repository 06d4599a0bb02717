"""The three benchmark workloads, each one client in a closed loop.

* ``stream-64-8-8`` — the real-time path users run: a seeded 64-8-8 model is
  saved and loaded back, a seeded 8-channel WAV is read, and the file is
  enhanced one 16-sample ``push`` at a time as ``dllrnn enhance`` does. An op
  is one push. Kernels run at T=1, so per-frame Python glue weighs heavily.
* ``train-64-8-8`` — ``fit`` steps of batch 4 on 1 s chunks of seeded 2 s
  examples made with plain numpy. An op is one step. Kernels run at T≈1000,
  and backward, the tape and the loss dominate.
* ``simulate-8mic`` — one example at the ``simulate`` CLI defaults (2 s,
  order 6, 8 mics, 1–10 noise sources), seeded per example the way
  ``cmd_simulate`` seeds it. An op is one example. The model is not involved.

Every input comes from a generator seeded by the benchmark's seed. A failed
op (it raised, or its output failed a check) is counted in :class:`OpLog`;
nothing raises out of a run.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from dllrnn import checkpoint, simulate, train, wavio
from dllrnn.framing import SAMPLE_RATE, FrameSpec, normalize_variance
from dllrnn.model import (ModelConfig, StreamingEnhancer, build_params, count_macs_per_frame,
                          enhance_waveform, model_forward)

from spans import Tracer, merge, traced

# Stream tags keep each workload's generator independent of the others.
STREAM_TAG = 1001
TRAIN_TAG = 1002
# dllrnn.cli derives example i of a simulate run from (seed, 65537, i).
EXAMPLE_STREAM = 65537

WAV_STD = 0.1
# Streamed output against model_forward, as tight as test_streaming_matches_batch.
STREAM_RTOL, STREAM_ATOL = 1e-4, 1e-6
# Against the stored reference: loose enough to survive a change in summation order.
REFERENCE_RTOL = 1e-4
REFERENCE_SEED = 0


class OpLog:
    """Wall time, audio seconds and outcome of each op of one measured run.

    Whole-run checks (stored references, the FLOP cross-check) count as one
    attempted op each, and as a failed op when they fail.
    """

    def __init__(self, tracer=None):
        self.times = []
        self.audio = []
        self.ok = []
        self.errors = []
        self.checks = 0
        self.checks_failed = 0
        self.tracer = tracer
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])

    @property
    def attempted(self):
        return len(self.times) + self.checks

    @property
    def failed(self):
        return self.ok.count(False) + self.checks_failed

    def more(self, deadline, max_ops=None):
        return time.perf_counter() < deadline and (max_ops is None or len(self.times) < max_ops)

    def call(self, fn, *args, audio):
        """Time ``fn(*args)`` as one op; returns (succeeded, result).

        ``audio`` is the op's audio seconds, or a function of its result.
        """
        result, ok = None, False
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                with self.tracer.span("op"):
                    result = fn(*args)
            ok = True
        except Exception as exc:  # a failing op is counted, never raised out of the run
            self._note(f"op {len(self.times)}: {type(exc).__name__}: {exc}")
        finally:
            self.times.append(time.perf_counter() - t0)
            if self.tracer is not None:
                merge(self.layers, self.tracer.take())
        self.audio.append((audio(result) if callable(audio) else audio) if ok else 0.0)
        self.ok.append(ok)
        return ok, result

    def reject(self, index, message):
        """Mark op ``index`` failed because its output failed a check."""
        if self.ok[index]:
            self.ok[index] = False
            self._note(message)

    def check(self, passed, message):
        self.checks += 1
        if not passed:
            self.checks_failed += 1
            self._note(message)

    def _note(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)


def _close(got, want, rtol, atol):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamSize:
    config: ModelConfig = field(default_factory=ModelConfig)
    wav_seconds: float = 2.0
    warmup_pushes: int = 100


def stream_inputs(seed, size):
    """Seeded weights and a C×N float32 waveform."""
    rng = np.random.default_rng((seed, STREAM_TAG))
    n = round(size.wav_seconds * SAMPLE_RATE)
    wav = (WAV_STD * rng.standard_normal((size.config.channels, n))).astype(np.float32)
    return build_params(size.config, seed=seed), wav


def push_blocks(data, spec):
    """Split C×N input into hop blocks, tail-padded as ``enhance_waveform`` pads it."""
    n = data.shape[1]
    total = (spec.n_frames(n) + spec.l_out // spec.hop - 1) * spec.hop
    padded = np.zeros((data.shape[0], total), dtype=data.dtype)
    padded[:, :n] = data
    return [padded[:, k:k + spec.hop] for k in range(0, total, spec.hop)]


class StreamWorkload:
    def __init__(self, size=StreamSize()):
        self.size = size
        self.config = size.config

    @property
    def frame(self):
        return self.config.frame

    def setup(self, seed, workdir):
        store, wav = stream_inputs(seed, self.size)
        ckpt_path = os.path.join(workdir, "model.ckpt")
        wav_path = os.path.join(workdir, "input.wav")
        checkpoint.save_checkpoint(ckpt_path, self.config, store, step=0)
        wavio.write_wav(wav_path, wav)
        ck = checkpoint.load_checkpoint(ckpt_path)
        self.store = build_params(ck.config, seed=0)
        self.store.load_arrays(ck.arrays)
        self.data, rate = wavio.read_wav(wav_path)
        if rate != SAMPLE_RATE or ck.config != self.config:
            raise RuntimeError(f"round trip changed the rate ({rate}) or the config ({ck.config})")
        _, self.scale = normalize_variance(self.data)
        self.blocks = push_blocks(self.data, self.frame)
        self.passes = []

    def warm_up(self):
        session = StreamingEnhancer(self.config, self.store, self.scale)
        for block in self.blocks[:self.size.warmup_pushes]:
            session.push(block)

    def run(self, log, deadline, max_ops=None):
        """Stream the file again and again until the deadline.

        A failed push ends its session; the next op starts a new one.
        """
        hop_s = self.frame.hop / SAMPLE_RATE
        while True:
            session = StreamingEnhancer(self.config, self.store, self.scale)
            outputs = []
            self.passes.append((len(log.times), outputs))
            for block in self.blocks:
                if not log.more(deadline, max_ops):
                    return
                ok, out = log.call(session.push, block, audio=hop_s)
                if not ok:
                    break
                outputs.append(out)

    def verify(self, log, reference=None):
        spec = self.frame
        lag = spec.l_out // spec.hop - 1
        want = model_forward(self.data, self.config, self.store, scale=self.scale).data[0]
        for first, outputs in self.passes:
            for j, out in enumerate(outputs):
                t = j - lag
                if t < 0:
                    good = out is None
                else:
                    seg = want[t * spec.hop:(t + 1) * spec.hop]
                    good = (out is not None and out.shape == (1, spec.hop)
                            and bool(np.all(np.isfinite(out)))
                            and _close(out[0, :seg.size], seg, STREAM_RTOL, STREAM_ATOL))
                if not good:
                    log.reject(first + j, f"push {first + j}: output differs from model_forward")
        macs = frame_macs(self.config, self.store, self.scale, self.blocks)
        expected = count_macs_per_frame(self.config)
        log.check(sum(macs.values()) == expected,
                  f"per-kernel MACs {sum(macs.values())} != count_macs_per_frame {expected}")
        details = {"frame_macs": macs, "count_macs_per_frame": expected}
        if reference is not None:
            got = stream_reference_output(self.size, reference["wav_seconds"])
            want_ref = np.asarray(reference["output"], dtype=np.float64)
            atol = REFERENCE_RTOL * float(np.max(np.abs(want_ref)))
            log.check(_close(got, want_ref, REFERENCE_RTOL, atol),
                      "stream output differs from the stored reference")
        return details


def frame_macs(config, store, scale, blocks):
    """MACs per kernel for one stream frame, computed from the kernels' call shapes."""
    lag = config.frame.l_out // config.frame.hop - 1
    session = StreamingEnhancer(config, store, scale)
    for block in blocks[:lag]:
        session.push(block)
    tracer = Tracer()
    with traced(tracer, config.frame):
        session.push(blocks[lag])
    return {name[:-len(".macs")]: int(value) for name, value in sorted(tracer.counts.items())
            if name.endswith(".macs") and value}


def stream_reference_output(size, wav_seconds):
    """Enhanced output for the fixed reference seed and a short input."""
    store, wav = stream_inputs(REFERENCE_SEED, replace(size, wav_seconds=wav_seconds))
    _, scale = normalize_variance(wav)
    return enhance_waveform(wav, size.config, store, scale=scale)[0]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSize:
    config: ModelConfig = field(default_factory=ModelConfig)
    examples: int = 4
    example_seconds: float = 2.0
    batch: int = 4
    chunk_seconds: float = 1.0


def train_inputs(seed, size):
    """Seeded weights and examples: a smoothed noise source reaching each mic
    with its own delay and gain, plus white noise at a random SNR."""
    rng = np.random.default_rng((seed, TRAIN_TAG))
    n = round(size.example_seconds * SAMPLE_RATE)
    channels = size.config.channels
    dataset = []
    for _ in range(size.examples):
        source = np.convolve(rng.standard_normal(n + 15), np.hanning(16), mode="valid")
        delays = rng.integers(0, 8, channels)
        gains = rng.uniform(0.5, 1.0, channels)
        direct = np.stack([g * np.roll(source, d) for g, d in zip(gains, delays)])
        direct *= WAV_STD / direct.std()
        noise = rng.standard_normal((channels, n)) * WAV_STD * 10.0 ** (-rng.uniform(-5, 5) / 20)
        dataset.append(train.TrainExample(mixture=(direct + noise).astype(np.float32),
                                          s_direct=direct.astype(np.float32)))
    return build_params(size.config, seed=seed), dataset


class TrainWorkload:
    def __init__(self, size=TrainSize()):
        self.size = size
        self.config = size.config

    @property
    def frame(self):
        return self.config.frame

    @property
    def examples_per_op(self):
        return self.size.batch

    def setup(self, seed, workdir):
        self.seed = seed
        self.store, self.dataset = train_inputs(seed, self.size)
        self.opt = train.OptState.for_store(self.store)

    def warm_up(self):
        """One full-size step on a copy of the model: the first step of a
        process grows the heap that later steps reuse."""
        train.fit(self.config, build_params(self.config, seed=self.seed),
                  self.dataset[:self.size.batch],
                  train.Schedule(epochs=1, batch_size=self.size.batch, seed=self.seed,
                                 chunk_seconds=self.size.chunk_seconds))

    def run(self, log, deadline, max_ops=None):
        """One ``fit`` call per op, each running exactly the next step of one run."""
        size = self.size
        chunk = min(round(size.chunk_seconds * SAMPLE_RATE), self.dataset[0].mixture.shape[1])
        audio = min(size.batch, len(self.dataset)) * chunk / SAMPLE_RATE
        step = 0
        while log.more(deadline, max_ops):
            schedule = train.Schedule(epochs=step + 1, batch_size=size.batch, seed=self.seed,
                                      chunk_seconds=size.chunk_seconds)
            ok, history = log.call(_fit_step, self.config, self.store, self.dataset, schedule,
                                   self.opt, step, audio=audio)
            if ok and not (len(history) == 1 and math.isfinite(history[0]["loss"])
                           and math.isfinite(history[0]["grad_norm"])):
                log.reject(-1, f"step {step + 1}: non-finite loss or grad norm {history}")
            step += 1

    def verify(self, log, reference=None):
        if reference is None:
            return {}
        got = train_reference_trajectory(self.size, reference)
        log.check(all(_close(got[key], reference[key], reference["rtol"][key], 0.0)
                      for key in ("loss", "grad_norm")),
                  f"trajectory {got} differs from the stored one")
        return {"reference_trajectory": got}


def _fit_step(config, store, dataset, schedule, opt, step):
    return train.fit(config, store, dataset, schedule, state=opt, start_step=step)


def train_reference_trajectory(size, reference):
    """Losses and grad norms of a short fixed-seed run on the workload's model."""
    ref_size = replace(size, examples=reference["examples"],
                       example_seconds=reference["example_seconds"])
    store, dataset = train_inputs(REFERENCE_SEED, ref_size)
    history = train.fit(size.config, store, dataset,
                        train.Schedule(epochs=reference["steps"], batch_size=reference["batch"],
                                       chunk_seconds=reference["chunk_seconds"],
                                       seed=REFERENCE_SEED))
    return {"loss": [h["loss"] for h in history], "grad_norm": [h["grad_norm"] for h in history]}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimSize:
    duration_s: float = 2.0
    order: int = 6
    mics: int = 8
    snr_range: tuple = (-10.0, 10.0)
    noise_range: tuple = (1, 10)


def example_inputs(seed, index, size):
    """Scene and source waveforms of example ``index``, drawn as ``cmd_simulate`` draws them."""
    rng = np.random.default_rng((seed, EXAMPLE_STREAM, index))
    scene = simulate.draw_scene(rng, n_mics=size.mics, snr_range=size.snr_range,
                                n_noise_range=size.noise_range)
    n = int(round(size.duration_s * SAMPLE_RATE))
    speech = simulate.speech_like(rng, n)
    noises = [simulate.white_noise(rng, n) if rng.integers(0, 2) == 0
              else simulate.pink_noise(rng, n) for _ in range(scene.n_noise)]
    return scene, speech, noises


def render_example(seed, index, size):
    scene, speech, noises = example_inputs(seed, index, size)
    return simulate.spatialize_mixture(scene, speech, noises, order=size.order)


def example_problem(ex, size):
    """Why a rendered example is wrong, or None."""
    shape = (size.mics, int(round(size.duration_s * SAMPLE_RATE)))
    if ex.mixture.shape != shape or not np.all(np.isfinite(ex.mixture)):
        return f"mixture has shape {ex.mixture.shape} or non-finite samples"
    snr = simulate.achieved_snr(ex)
    if not abs(snr - ex.scene.snr_db) <= 1e-6:
        return f"achieved SNR {snr!r} dB, drawn {ex.scene.snr_db!r} dB"
    if not np.array_equal(ex.mixture, ex.s_direct + ex.s_reverb + ex.noise):
        return "mixture != s_direct + s_reverb + noise"
    return None


class SimulateWorkload:
    frame = FrameSpec()  # no model runs; names the kernel spans if one did

    def __init__(self, size=SimSize()):
        self.size = size

    def setup(self, seed, workdir):
        self.seed = seed

    def warm_up(self):
        # A fixed example: examples carry 1-10 noise sources, so a seeded one
        # would make set-up time vary by 3x from seed to seed.
        render_example(REFERENCE_SEED, 0, self.size)

    def run(self, log, deadline, max_ops=None):
        """Render examples 0, 1, 2, ... of the seed until the deadline.

        An example's audio is its rendered source audio: the speech and
        every noise source, each ``duration_s`` long.
        """
        size = self.size
        index = 0
        while log.more(deadline, max_ops):
            ok, ex = log.call(render_example, self.seed, index, size,
                              audio=lambda ex: (1 + ex.n_noise) * size.duration_s)
            if ok:
                problem = example_problem(ex, size)
                if problem:
                    log.reject(-1, f"example {index}: {problem}")
            index += 1

    def verify(self, log, reference=None):
        return {}


WORKLOADS = {
    "stream-64-8-8": StreamWorkload,
    "train-64-8-8": TrainWorkload,
    "simulate-8mic": SimulateWorkload,
}
