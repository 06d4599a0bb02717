"""Acceptance gate: one test per shipping criterion, each printing a
[criterion N] PASS/FAIL line with the measured numbers before asserting.

Oracles and tolerances are stated inline; the component tests in the rest of
the suite cover the same ground at finer grain."""

import os
import time

import numpy as np

from dllrnn.cli import main
from dllrnn.framing import FrameSpec, frame_signal, latency_check, overlap_add
from dllrnn.losses import pcm_loss, si_sdr
from dllrnn.model import ModelConfig, build_params, count_flops, count_params, model_forward
from dllrnn.simulate import draw_scene, image_sources, spatialize_mixture, speech_like, white_noise
from test_model import TABLE, full_model_grad_check


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_parameter_counts():
    t0 = time.perf_counter()
    worst = 0.0
    for (f, s, b), (params_m, _) in TABLE.items():
        got = count_params(ModelConfig(channels=8, hidden=f, spatial=s, blocks=b)) / 1e6
        worst = max(worst, abs(got - params_m) / params_m)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 1.0
    _verdict(1, ok, f"six configs, worst param deviation {worst:.1%} "
                    f"(limit 10%), {elapsed * 1e3:.1f} ms")


def test_criterion_2_flop_counts():
    t0 = time.perf_counter()
    worst = 0.0
    for (f, s, b), (_, gflops) in TABLE.items():
        got = count_flops(ModelConfig(channels=8, hidden=f, spatial=s, blocks=b)) / 1e9
        worst = max(worst, abs(got - gflops) / gflops)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.15 and elapsed < 1.0
    _verdict(2, ok, f"six configs, worst GFLOP deviation {worst:.1%} "
                    f"(limit 15%), {elapsed * 1e3:.1f} ms")


def test_criterion_3_full_model_gradients():
    t0 = time.perf_counter()
    worst = full_model_grad_check(n_params=50, seed=0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    _verdict(3, ok, f"two configs, every parameter plus 50 sampled, worst FD relative "
                    f"error {worst:.2e} (limit 1e-4), {elapsed:.1f} s")


def test_criterion_4_latency_bound():
    config = ModelConfig()  # 64-8-8 on 8 microphones, 256/32/16 framing
    store = build_params(config, seed=0)

    def model_fn(y):
        return model_forward(y, config, store, scale=1.0).data

    t0 = time.perf_counter()
    report = latency_check(model_fn, config.frame, trials=32,
                           n_samples=2048, channels=8, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    earliest = min((t.earliest_changed - t.perturbed for t in report.trials
                    if t.earliest_changed >= 0), default=None)
    _verdict(4, ok, f"32 perturbations, bound {report.bound} samples, earliest "
                    f"response at m{earliest:+d} samples (must stay > -{report.bound}), "
                    f"bit-exact below bound, {elapsed:.1f} s")


def test_criterion_5_framing_roundtrip():
    spec = FrameSpec()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(64, 4097))
        x = rng.standard_normal(n)
        frames = frame_signal(x, spec)
        recon = overlap_add(frames[:, :, -spec.l_out:], spec, n)[0]
        worst = max(worst, float(np.max(np.abs(recon[spec.l_out:] - x[spec.l_out:]))))
    ok = worst <= 1e-12
    _verdict(5, ok, f"100 random lengths, worst interior roundtrip error {worst:.2e} "
                    f"(limit 1e-12)")


def test_criterion_6_single_example_overfit(overfit_run):
    r = overfit_run
    ok = (r["steps"] <= 500 and r["ratio"] <= 0.10 and r["si_gain"] >= 10.0
          and r["elapsed_s"] < 300.0)
    _verdict(6, ok, f"loss ratio {r['ratio']:.3f} (limit 0.10) after {r['steps']} steps, "
                    f"SI-SDR {r['si_unprocessed']:+.1f} -> {r['si_enhanced']:+.1f} dB "
                    f"(gain {r['si_gain']:+.1f}, limit +10.0), {r['elapsed_s']:.0f} s")


def test_criterion_7_simulator_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    scene = draw_scene(rng, n_mics=4, n_noise_range=(1, 2))
    n = 2000
    speech = speech_like(rng, n)
    noises = [white_noise(rng, n) for _ in scene.noise_pos]
    ex = spatialize_mixture(scene, speech, noises, order=2)
    e_direct = float(np.sum(ex.s_direct ** 2))
    e_noise = float(np.sum(ex.noise ** 2))
    snr_err = abs(10.0 * np.log10(e_direct / e_noise) - ex.snr_db)
    add_err = float(np.max(np.abs(ex.mixture - (ex.s_direct + ex.s_reverb + ex.noise))))

    _, refl = image_sources(scene.room, scene.speech_pos, 1)
    first_order = int(np.sum(refl == 1))

    impulse = np.zeros(n)
    impulse[0] = 1.0
    direct = spatialize_mixture(scene, impulse, noises, order=0).s_direct
    arrival_err = 0.0
    for c in range(4):
        expected = np.linalg.norm(scene.speech_pos - scene.mics[c]) * 16000.0 / 343.0
        arrival_err = max(arrival_err, abs(int(np.argmax(np.abs(direct[c]))) - expected))
    elapsed = time.perf_counter() - t0
    ok = (snr_err < 1e-6 and add_err < 1e-6 and first_order == 6
          and arrival_err <= 1.0 and elapsed < 60.0)
    _verdict(7, ok, f"SNR error {snr_err:.1e} (limit 1e-6), additivity {add_err:.1e} "
                    f"(limit 1e-6), {first_order} first-order images (want 6), "
                    f"arrival error {arrival_err:.2f} samples (limit 1), {elapsed:.1f} s")


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1000).astype(np.float32)
    y = x + 0.3 * rng.standard_normal(1000).astype(np.float32)
    perfect = pcm_loss(x, x, y).item()

    s = rng.standard_normal(1000)
    s_hat = s + 0.2 * rng.standard_normal(1000)
    base = si_sdr(s_hat, s)
    scale_err = max(abs(si_sdr(c * s_hat, s) - base) for c in (2.0, 0.003, -1.0, -17.5))

    ones_zero = si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    ok = perfect == 0.0 and scale_err < 1e-9 and ones_zero == 0.0
    _verdict(8, ok, f"perfect-estimate loss {perfect} (want 0.0 exactly), scale "
                    f"invariance {scale_err:.1e} (limit 1e-9), "
                    f"si_sdr((1,1),(1,0)) = {ones_zero} (want 0.0 exactly)")


def _strip_wall(log_path):
    lines = []
    for line in open(log_path, encoding="utf-8"):
        lines.append(" ".join(tok for tok in line.split() if not tok.startswith("wall_s=")))
    return lines


def test_criterion_9_byte_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "channels=2\nhidden=4\nspatial=1\nblocks=2\n"
        "l_in=16\nl_out=4\nhop=2\n"
        "lr=0.001\nbatch=1\nchunk_s=0.05\nepochs=2\nseed=3\n"
        "count=2\nduration_s=0.1\norder=1\nnoise_max=2\n"
    )
    outputs = []
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        run = tmp_path / f"run_{tag}"
        wav = tmp_path / f"enhanced_{tag}.wav"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--manifest", str(data / "manifest.txt"), "--out", str(run)]) == 0
        assert main(["enhance", str(run / "final.ckpt"),
                     str(data / "ex00000.mix.wav"), "--out", str(wav)]) == 0
        outputs.append((data, run, wav))

    (data_a, run_a, wav_a), (data_b, run_b, wav_b) = outputs
    mismatched = []
    for name in sorted(os.listdir(data_a)):
        if (data_a / name).read_bytes() != (data_b / name).read_bytes():
            mismatched.append(f"data/{name}")
    for name in sorted(os.listdir(run_a)):
        if name == "train.log":
            if _strip_wall(run_a / name) != _strip_wall(run_b / name):
                mismatched.append("train.log (ignoring wall_s)")
        elif (run_a / name).read_bytes() != (run_b / name).read_bytes():
            mismatched.append(f"run/{name}")
    if wav_a.read_bytes() != wav_b.read_bytes():
        mismatched.append("enhanced.wav")

    n_files = len(os.listdir(data_a)) + len(os.listdir(run_a)) + 1
    ok = not mismatched
    _verdict(9, ok, f"two seeded simulate/train/enhance runs, {n_files} artifacts "
                    f"byte-identical (log compared without wall-clock fields)"
                    + (f"; mismatches: {mismatched}" if mismatched else ""))
