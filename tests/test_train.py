"""Optimizer semantics, gradient clipping, the fit loop, checkpoint
roundtrips, and deterministic resume."""

import os
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dllrnn import train
from dllrnn.checkpoint import HEADER, load_checkpoint, save_checkpoint
from dllrnn.errors import ConfigError, ContractError, DataError, NumericalError
from dllrnn.framing import FrameSpec
from dllrnn.losses import pcm_loss
from dllrnn.model import ModelConfig, ParamStore, build_params, model_forward
from dllrnn.tensor import Tape
from dllrnn.train import OptState, Schedule, TrainExample, adam_step, clip_grad_norm, fit
from conftest import make_anechoic_example

SMALL = ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                    frame=FrameSpec(l_in=32, l_out=8, hop=4))


def _toy_store(values=(0.5, -1.0, 2.0)):
    return ParamStore([("w", np.array(values, dtype=np.float32)),
                       ("b", np.array([0.25], dtype=np.float32))])


def test_opt_state_for_store():
    store = _toy_store()
    state = OptState.for_store(store)
    assert state.step == 0
    for name in ("w", "b"):
        for bank in (state.m, state.v, state.v_max):
            npt.assert_array_equal(store.views(bank)[name], np.zeros_like(store[name].data))


def test_adam_zero_grad_is_noop():
    store = _toy_store()
    before = {n: store[n].data.copy() for n in store.names()}
    state = OptState.for_store(store)
    adam_step(store, state, 2e-4)  # all grads zero
    assert state.step == 1
    for name in store.names():
        npt.assert_array_equal(store[name].data, before[name])


def test_adam_first_step_moves_by_lr():
    # bias correction makes the very first update -lr * g/|g| for constant g
    store = _toy_store()
    state = OptState.for_store(store)
    for name in store.names():
        store[name].grad[...] = 1.0
    before = {n: store[n].data.copy() for n in store.names()}
    adam_step(store, state, 0.01)
    for name in store.names():
        # float32 parameters: agreement is to the ulp of the stored values
        delta = store[name].data - before[name]
        npt.assert_allclose(delta, -0.01, atol=3e-7)


def test_adam_vmax_never_decreases():
    store = _toy_store()
    state = OptState.for_store(store)
    rng = np.random.default_rng(0)
    v_max = store.views(state.v_max)
    prev = {n: v_max[n].copy() for n in store.names()}
    for _ in range(100):
        for name in store.names():
            store[name].grad[...] = rng.standard_normal(store[name].shape).astype(np.float32)
        adam_step(store, state, 1e-3)
        for name in store.names():
            assert np.all(v_max[name] >= prev[name])
            assert np.all(np.isfinite(store[name].data))
            prev[name] = v_max[name].copy()


def test_adam_rejects_nonfinite_gradient():
    store = _toy_store()
    state = OptState.for_store(store)
    before = {n: store[n].data.copy() for n in store.names()}
    store["w"].grad[...] = [1.0, np.inf, 0.0]
    store["b"].grad[...] = 0.0
    with pytest.raises(NumericalError, match="'w'"):
        adam_step(store, state, 2e-4)
    assert state.step == 0  # aborted before any mutation
    for name in store.names():
        npt.assert_array_equal(store[name].data, before[name])


def test_clip_below_threshold_is_identity():
    store = _toy_store()
    store["w"].grad[...] = [0.006, 0.0, 0.008]  # norm 0.01
    store["b"].grad[...] = 0.0
    kept = store["w"].grad.copy()
    norm = clip_grad_norm(store, 0.03)
    assert norm == pytest.approx(0.01, abs=1e-9)
    npt.assert_array_equal(store["w"].grad, kept)


def test_clip_scales_to_threshold():
    store = _toy_store()
    store["w"].grad[...] = [0.18, 0.0, 0.24]  # norm 0.3
    store["b"].grad[...] = 0.0
    norm = clip_grad_norm(store, 0.03)
    assert norm == pytest.approx(0.3, abs=1e-7)
    total = sum(float(np.sum(store[n].grad.astype(np.float64) ** 2)) for n in store.names())
    assert np.sqrt(total) <= 0.03 + 1e-9
    npt.assert_allclose(store["w"].grad, [0.018, 0.0, 0.024], rtol=1e-6)


def test_clip_ignores_missing_grads():
    # a parameter no op reached keeps the zeros zero_grad gave it
    store = _toy_store()
    store.zero_grad()
    store["b"].grad[...] = 0.5
    norm = clip_grad_norm(store, 0.03)
    assert norm == pytest.approx(0.5, rel=1e-6)
    assert abs(store["b"].grad[0] - 0.03) < 1e-7


def test_flat_clip_and_adam_match_a_per_parameter_loop():
    # Reference: the per-parameter loops clip_grad_norm and adam_step replace,
    # on separate arrays. The whole-buffer forms must give their bytes on a
    # 64-8-8 store, with a clip that fires at every step.
    store = build_params(ModelConfig(), seed=0)
    state = OptState.for_store(store)
    ref = {name: [t.data.copy()] + [np.zeros_like(t.data) for _ in range(3)]
           for name, t in store.items()}
    rng = np.random.default_rng(9)
    lr, max_norm = 1e-3, 0.03
    for step in range(1, 4):
        grads = {name: rng.standard_normal(t.shape).astype(np.float32)
                 for name, t in store.items()}
        for name, tensor in store.items():
            tensor.grad[...] = grads[name]
        total = 0.0
        for g in grads.values():
            total += float(np.sum(g.astype(np.float64) ** 2))
        norm = float(np.sqrt(total))
        assert norm > max_norm
        for g in grads.values():
            g *= np.asarray(max_norm / norm, dtype=g.dtype)
        bc1 = 1.0 - train.BETA1 ** step
        bc2 = 1.0 - train.BETA2 ** step
        for name, (p, m, v, v_max) in ref.items():
            g = grads[name]
            m *= train.BETA1
            m += (1.0 - train.BETA1) * g
            v *= train.BETA2
            v += (1.0 - train.BETA2) * g * g
            np.maximum(v_max, v, out=v_max)
            ref[name][0] = p - (lr / bc1) * m / (np.sqrt(v_max / bc2) + train.EPS)

        assert clip_grad_norm(store, max_norm) == norm
        adam_step(store, state, lr)
        assert state.step == step
        moments = [store.views(flat) for flat in (state.m, state.v, state.v_max)]
        for name, (p, m, v, v_max) in ref.items():
            assert store[name].grad.tobytes() == grads[name].tobytes(), name
            assert store[name].data.tobytes() == p.tobytes(), name
            for got, want in zip(moments, (m, v, v_max)):
                assert got[name].tobytes() == want.tobytes(), name


def _adam_expression(data, g, m, v, v_max, step, lr):
    """The whole-buffer update ``adam_step`` computed before it wrote its
    temporaries into scratch buffers, kept as its exact reference."""
    bc1 = 1.0 - train.BETA1 ** step
    bc2 = 1.0 - train.BETA2 ** step
    m *= train.BETA1
    m += (1.0 - train.BETA1) * g
    v *= train.BETA2
    v += (1.0 - train.BETA2) * g * g
    np.maximum(v_max, v, out=v_max)
    data -= (lr / bc1) * m / (np.sqrt(v_max / bc2) + train.EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_bytes_match_the_whole_buffer_expression(dtype):
    store = build_params(ModelConfig(), seed=0, dtype=dtype)
    state = OptState.for_store(store)
    ref = [store.data.copy()] + [np.zeros_like(store.data) for _ in range(3)]
    rng = np.random.default_rng(21)
    for step in range(1, 4):
        store.grad[...] = 1e-2 * rng.standard_normal(store.grad.shape)
        _adam_expression(*ref[:1], store.grad, *ref[1:], step, 1e-3)
        adam_step(store, state, 1e-3)
        for got, want in zip((store.data, state.m, state.v, state.v_max), ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), step


def test_adam_step_peak_memory():
    # two scratch buffers of the flat store (1.75 MiB each at 64-8-8); the
    # whole-buffer expression held three at once, a 5.25 MiB peak
    store = build_params(ModelConfig(), seed=0)
    state = OptState.for_store(store)
    store.grad[...] = 1e-2 * np.random.default_rng(22).standard_normal(store.grad.shape)
    tracemalloc.start()
    try:
        adam_step(store, state, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * 2 ** 20, peak / 2 ** 20


def _tiny_dataset(n_examples=2, n=900, seed=0):
    out = []
    for i in range(n_examples):
        ex = make_anechoic_example(seed=seed + 10 * i, n=n)
        out.append(TrainExample(mixture=ex.mixture.astype(np.float32),
                                s_direct=ex.s_direct.astype(np.float32)))
    return out


def test_fit_rejects_empty_dataset():
    store = build_params(SMALL, seed=0)
    with pytest.raises(ConfigError):
        fit(SMALL, store, [], Schedule(epochs=1))


@pytest.mark.parametrize("change,message", [
    ({"lr": float("nan")}, "lr must be finite and positive"),
    ({"lr": 0.0}, "lr must be finite and positive"),
    ({"clip": float("inf")}, "clip must be finite and positive"),
    ({"chunk_seconds": -1.0}, "chunk_seconds must be finite and positive"),
    ({"epochs": -2}, "epochs must be >= 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["lr_nan", "lr_zero", "clip_inf", "chunk_negative", "epochs_negative", "seed_negative"])
def test_fit_rejects_schedule_that_trains_wrong(change, message):
    store = build_params(SMALL, seed=0)
    before = {n: store[n].data.copy() for n in store.names()}
    with pytest.raises(ConfigError, match=message):
        fit(SMALL, store, _tiny_dataset(n_examples=1), Schedule(batch_size=1, **change))
    for name in store.names():
        npt.assert_array_equal(store[name].data, before[name])


def test_fit_with_given_state_steps_by_schedule_lr():
    # the schedule owns the learning rate: a passed optimizer state steps
    # exactly as the one fit makes itself, and the first Adam step moves a
    # parameter with a nonzero gradient by about lr
    dataset = _tiny_dataset(n_examples=1)
    sched = Schedule(epochs=1, batch_size=1, chunk_seconds=0.04, seed=0, lr=1e-2)
    start = build_params(SMALL, seed=0)
    runs = []
    for given in (False, True):
        store = build_params(SMALL, seed=0)
        fit(SMALL, store, dataset, sched, state=OptState.for_store(store) if given else None)
        runs.append(store)
    for name in start.names():
        npt.assert_array_equal(runs[1][name].data, runs[0][name].data)
    moved = np.abs(runs[1]["decoder.linear.bias"].data - start["decoder.linear.bias"].data)
    npt.assert_allclose(moved, 1e-2, rtol=1e-3)


def test_fit_history_and_loss_decrease():
    dataset = _tiny_dataset(n_examples=1)
    store = build_params(SMALL, seed=0)
    # chunk longer than the example -> every step sees the same full signal,
    # so the loss sequence is directly comparable across steps
    sched = Schedule(epochs=30, batch_size=1, chunk_seconds=1.0, seed=0, lr=3e-3)
    history = fit(SMALL, store, dataset, sched)
    assert [h["step"] for h in history] == list(range(1, 31))
    assert history[0]["epoch"] == 0 and history[-1]["epoch"] == 29
    for h in history:
        assert np.isfinite(h["loss"]) and h["loss"] >= 0.0
        assert np.isfinite(h["grad_norm"]) and h["grad_norm"] >= 0.0
        assert h["wall_s"] > 0.0
    assert history[-1]["loss"] < history[0]["loss"]


def test_fit_backward_follows_each_forward(monkeypatch):
    # one tape per example: each forward is differentiated before the next
    # example runs, so only one example's activations are alive at a time
    calls = []
    forward, backward = train.model_forward, Tape.backward

    def traced_forward(*args, **kwargs):
        calls.append("f")
        return forward(*args, **kwargs)

    def traced_backward(self, root):
        calls.append("b")
        return backward(self, root)

    monkeypatch.setattr(train, "model_forward", traced_forward)
    monkeypatch.setattr(Tape, "backward", traced_backward)
    fit(SMALL, build_params(SMALL, seed=0), _tiny_dataset(n_examples=3, n=300),
        Schedule(epochs=1, batch_size=3, chunk_seconds=0.01, seed=0))
    assert calls == ["f", "b"] * 3


def test_fit_gradient_is_batch_mean():
    # history's loss and pre-clip grad norm, and the gradient fit leaves on
    # the store (an unreachable clip leaves it unscaled), are the mean over
    # the batch of each example's loss and gradient, each on its own tape
    dataset = _tiny_dataset(n_examples=3)
    start = build_params(SMALL, seed=0, dtype=np.float64)
    losses, grads = [], []
    for ex in dataset:
        store = build_params(SMALL, seed=0, dtype=np.float64)
        mix = ex.mixture.astype(np.float64)
        with Tape() as tape:
            item = pcm_loss(model_forward(mix, SMALL, store),
                            ex.s_direct[0].astype(np.float64), mix[0])
            tape.backward(item)
        losses.append(item.item())
        grads.append({name: t.grad for name, t in store.items()})
    mean = {name: sum(g[name] for g in grads) / 3 for name in start.names()}
    norm = np.sqrt(sum(np.sum(g ** 2) for g in mean.values()))

    history = fit(SMALL, start, dataset,
                  Schedule(epochs=1, batch_size=3, chunk_seconds=1.0, seed=0, clip=1e9))
    assert len(history) == 1
    assert history[0]["loss"] == pytest.approx(np.mean(losses), rel=1e-12, abs=0.0)
    assert history[0]["grad_norm"] == pytest.approx(norm, rel=1e-12, abs=0.0)
    for name, g in mean.items():
        npt.assert_allclose(start[name].grad, g, rtol=0.0, atol=1e-12 * np.abs(g).max(),
                            err_msg=name)


def test_fit_nonfinite_loss_aborts_before_update():
    # the second example's loss is NaN; its backward has already run when
    # the batch loss is checked, but no parameter or optimizer state moves
    dataset = _tiny_dataset(n_examples=2)
    dataset[1].s_direct[0, 5] = np.nan
    store = build_params(SMALL, seed=0)
    before = {n: store[n].data.copy() for n in store.names()}
    state = OptState.for_store(store)
    with pytest.raises(NumericalError, match="^non-finite loss nan at step 1$"):
        fit(SMALL, store, dataset, Schedule(epochs=1, batch_size=2, chunk_seconds=1.0),
            state=state)
    assert state.step == 0
    for name in store.names():
        npt.assert_array_equal(store[name].data, before[name])


def test_fit_writes_log_and_checkpoints(tmp_path):
    dataset = _tiny_dataset(n_examples=2)
    store = build_params(SMALL, seed=0)
    sched = Schedule(epochs=2, batch_size=1, chunk_seconds=0.05, seed=0, lr=1e-3)
    out = tmp_path / "run"
    history = fit(SMALL, store, dataset, sched, out_dir=str(out))
    assert len(history) == 4  # 2 examples x 2 epochs

    lines = (out / "train.log").read_text().splitlines()
    assert len(lines) == 4
    pattern = re.compile(r"^step=\d+ epoch=\d+ loss=\d\.\d{6}e[+-]\d+ "
                         r"grad_norm=\d\.\d{6}e[+-]\d+ wall_s=\d+\.\d{3}$")
    for line in lines:
        assert pattern.match(line), line

    for name in ("epoch_0001.ckpt", "epoch_0002.ckpt", "best.ckpt"):
        assert (out / name).exists()
    ck = load_checkpoint(out / "epoch_0002.ckpt")
    assert ck.config == SMALL and ck.step == 4
    for name in store.names():
        npt.assert_array_equal(ck.arrays[name], store[name].data)


def test_fit_deterministic():
    dataset = _tiny_dataset(n_examples=2)
    sched = Schedule(epochs=2, batch_size=2, chunk_seconds=0.04, seed=3, lr=1e-3)
    runs = []
    for _ in range(2):
        store = build_params(SMALL, seed=1)
        history = fit(SMALL, store, dataset, sched)
        runs.append(([h["loss"] for h in history],
                     {n: store[n].data.copy() for n in store.names()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        npt.assert_array_equal(runs[0][1][name], runs[1][1][name])


def test_resume_reproduces_uninterrupted_run(tmp_path):
    dataset = _tiny_dataset(n_examples=1)
    lr = 1e-3

    store_full = build_params(SMALL, seed=2)
    fit(SMALL, store_full, dataset,
        Schedule(epochs=6, batch_size=1, chunk_seconds=0.04, seed=5, lr=lr))

    out = tmp_path / "half"
    store_half = build_params(SMALL, seed=2)
    fit(SMALL, store_half, dataset,
        Schedule(epochs=3, batch_size=1, chunk_seconds=0.04, seed=5, lr=lr),
        out_dir=str(out))
    ck = load_checkpoint(out / "epoch_0003.ckpt")
    assert ck.step == 3 and ck.opt is not None

    store_resumed = build_params(SMALL, seed=2)
    store_resumed.load_arrays(ck.arrays)
    state = OptState.from_checkpoint(ck, store_resumed)
    history = fit(SMALL, store_resumed, dataset,
                  Schedule(epochs=6, batch_size=1, chunk_seconds=0.04, seed=5, lr=lr),
                  state=state, start_step=ck.step)
    assert [h["step"] for h in history] == [4, 5, 6]
    for name in store_full.names():
        npt.assert_array_equal(store_resumed[name].data, store_full[name].data)


def test_resume_inside_an_epoch_runs_what_the_schedule_has_left(tmp_path, monkeypatch):
    # 5 examples of distinct lengths at batch 1 make 5 steps per epoch; a
    # batch-2 run of 3 epochs stops at step 9, inside epoch 1. Resumed there
    # with 4 epochs, fit runs steps 10-20 and feeds each the example the
    # uninterrupted run feeds it
    dataset = []
    for i in range(5):
        ex = make_anechoic_example(seed=10 * i, n=300 + 16 * i)
        dataset.append(TrainExample(mixture=ex.mixture.astype(np.float32),
                                    s_direct=ex.s_direct.astype(np.float32)))
    seen = []
    forward = train.model_forward

    def traced_forward(mix, *args, **kwargs):
        seen.append(mix.shape[1])
        return forward(mix, *args, **kwargs)

    monkeypatch.setattr(train, "model_forward", traced_forward)
    sched = Schedule(epochs=4, batch_size=1, chunk_seconds=1.0, seed=4, lr=1e-3)
    fit(SMALL, build_params(SMALL, seed=0), dataset, sched)
    uninterrupted = seen[9:]
    seen.clear()

    out = tmp_path / "run"
    history = fit(SMALL, build_params(SMALL, seed=0), dataset, sched, out_dir=str(out),
                  start_step=9)
    assert [h["step"] for h in history] == list(range(10, 21))
    assert [h["epoch"] for h in history] == [index // 5 for index in range(9, 20)]
    assert seen == uninterrupted
    assert sorted(p.name for p in out.glob("epoch_*.ckpt")) == [
        "epoch_0002.ckpt", "epoch_0003.ckpt", "epoch_0004.ckpt"]
    assert [load_checkpoint(out / f"epoch_{e:04d}.ckpt").step for e in (2, 3, 4)] == [10, 15, 20]
    assert len((out / "train.log").read_text().splitlines()) == 11


def test_fit_refuses_a_negative_start_step(tmp_path):
    store = build_params(SMALL, seed=0)
    before = store.data.copy()
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="^start_step must be >= 0, got -1$"):
        fit(SMALL, store, _tiny_dataset(n_examples=1), Schedule(epochs=1, batch_size=1),
            out_dir=str(out), start_step=-1)
    npt.assert_array_equal(store.data, before)
    assert not out.exists()


@pytest.mark.parametrize("seconds", [1e-300, 0.5 / 16000])
def test_fit_refuses_a_chunk_under_one_sample(tmp_path, seconds):
    # a one-sample chunk would score 0 with zero gradients: the loss's Hann
    # window is 0 at its first tap. Half a sample rounds to none
    out = tmp_path / "run"
    with pytest.raises(ConfigError,
                       match=f"^chunk_seconds {seconds} is under one sample at 16000 Hz$"):
        fit(SMALL, build_params(SMALL, seed=0), _tiny_dataset(n_examples=1),
            Schedule(epochs=1, batch_size=1, chunk_seconds=seconds), out_dir=str(out))
    assert not out.exists()


def test_fit_chunk_longer_than_any_sample_count_crops_nothing():
    # 1e305 s is past every integer sample count; like any chunk longer than
    # the examples it trains on each one whole
    dataset = _tiny_dataset(n_examples=2, n=300)
    runs = []
    for seconds in (1.0, 1e305):
        history = fit(SMALL, build_params(SMALL, seed=0), dataset,
                      Schedule(epochs=2, batch_size=1, chunk_seconds=seconds, seed=1))
        runs.append([(h["loss"], h["grad_norm"]) for h in history])
    assert runs[0] == runs[1]


def _saved(tmp_path, store, opt_state=None):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SMALL, store, 1, opt_state=opt_state)
    return path


def test_checkpoint_roundtrip_exact(tmp_path):
    store = build_params(SMALL, seed=7)
    state = OptState.for_store(store)
    state.step = 11
    store.views(state.m)["encoder.prelu"][...] = 0.125
    store.views(state.v_max)["decoder.linear.bias"][...] = 0.5
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SMALL, store, 42, opt_state=state)
    ck = load_checkpoint(path)
    assert ck.config == SMALL and ck.step == 42 and ck.opt_step == 11
    for name in store.names():
        npt.assert_array_equal(ck.arrays[name], store[name].data)
    npt.assert_array_equal(ck.opt, np.stack([state.m, state.v, state.v_max]))
    resumed = OptState.from_checkpoint(ck, store)
    assert resumed.step == 11
    for got, want in zip((resumed.m, resumed.v, resumed.v_max), (state.m, state.v, state.v_max)):
        npt.assert_array_equal(got, want)
    assert load_checkpoint(_saved(tmp_path, store)).opt is None


def test_checkpoint_is_its_header_and_the_flat_buffers(tmp_path):
    store = build_params(SMALL, seed=3)
    state = OptState.for_store(store)
    state.m[:], state.v[:], state.v_max[:] = 0.25, 0.5, 0.75
    for opt_state, flats in ((None, [store.data]),
                             (state, [store.data, state.m, state.v, state.v_max])):
        blob = _saved(tmp_path, store, opt_state).read_bytes()
        assert blob[HEADER.size:] == b"".join(flat.astype("<f4").tobytes() for flat in flats)
        assert len(blob) == HEADER.size + 4 * store.data.size * len(flats)


def test_checkpoint_refuses_version_1_by_name(tmp_path):
    blob = bytearray(_saved(tmp_path, build_params(SMALL, seed=0)).read_bytes())
    blob[8:12] = (1).to_bytes(4, "little")
    bad = tmp_path / "v1.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DataError, match=re.escape(f"{bad}: unsupported checkpoint version 1")):
        load_checkpoint(bad)


def test_checkpoint_refuses_a_store_that_is_not_float32(tmp_path):
    store = build_params(SMALL, seed=0, dtype=np.float64)
    path = tmp_path / "f64.ckpt"
    with pytest.raises(ContractError, match="float32 parameters, the store's are float64"):
        save_checkpoint(path, SMALL, store, 1)
    assert not path.exists()


def test_checkpoint_rejects_corruption(tmp_path):
    store = build_params(SMALL, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, SMALL, store, 1)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(bad)

    # valid container whose config disagrees with the payload size
    other = tmp_path / "other.ckpt"
    save_checkpoint(other, ModelConfig(channels=2, hidden=4, spatial=2, blocks=2,
                                       frame=FrameSpec(l_in=32, l_out=8, hop=4)),
                    build_params(ModelConfig(channels=2, hidden=4, spatial=2, blocks=2,
                                             frame=FrameSpec(l_in=32, l_out=8, hop=4)), seed=0),
                    0)
    good_blob = other.read_bytes()
    # bump the hidden-width field (bytes 16:20 after magic+version+channels)
    tampered = bytearray(good_blob)
    tampered[16:20] = (8).to_bytes(4, "little")
    bad.write_bytes(bytes(tampered))
    with pytest.raises(DataError, match=re.escape(f"{bad}: parameter layout ") +
                       ".* does not match config D-LL-RNN-8-2-2's table"):
        load_checkpoint(bad)


@pytest.mark.parametrize("fault,message", [
    ("renamed", "store has ('encoder.linear.weights', (8, 32)) where config D-LL-RNN-8-2-2's "
                "table has ('encoder.linear.weight', (8, 32))"),
    ("reshaped", "store has ('encoder.linear.weight', (32, 8)) where config D-LL-RNN-8-2-2's "
                 "table has ('encoder.linear.weight', (8, 32))"),
    ("missing", "store has no row where config D-LL-RNN-8-2-2's "
                "table has ('decoder.linear.bias', (8,))"),
    ("unknown", "store has ('extra.weight', (3,)) where config D-LL-RNN-8-2-2's "
                "table has no row"),
], ids=["renamed", "reshaped", "missing", "unknown"])
def test_checkpoint_rejects_mismatched_records(tmp_path, fault, message):
    # the file holds no names, so a store off the config's table is refused
    # at save, before the file is opened
    rows = []
    for name, tensor in build_params(SMALL, seed=0).items():
        arr = tensor.data
        if name == "encoder.linear.weight" and fault == "renamed":
            name = "encoder.linear.weights"
        elif name == "encoder.linear.weight" and fault == "reshaped":
            arr = arr.T   # same scalar count
        elif name == "decoder.linear.bias" and fault == "missing":
            continue
        rows.append((name, arr))
    if fault == "unknown":
        rows.append(("extra.weight", np.zeros(3, np.float32)))
    store = ParamStore(rows)
    path = tmp_path / f"{fault}.ckpt"
    with pytest.raises(ContractError, match=re.escape(message)):
        save_checkpoint(path, SMALL, store, 1)
    assert not path.exists()


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    store = build_params(SMALL, seed=0)
    path = tmp_path / "model.ckpt"
    bad = tmp_path / "padded.ckpt"
    for opt_state in (None, OptState.for_store(store)):
        save_checkpoint(path, SMALL, store, 1, opt_state=opt_state)
        blob = path.read_bytes()
        bad.write_bytes(blob + b"\0" * 8)
        with pytest.raises(DataError, match=f"8 trailing bytes .* at byte {len(blob)}"):
            load_checkpoint(bad)


def test_overfit_single_example(overfit_run):
    assert overfit_run["steps"] == 500
    assert overfit_run["ratio"] <= 0.10, overfit_run["ratio"]
    assert overfit_run["si_gain"] >= 10.0, overfit_run["si_gain"]
    assert overfit_run["elapsed_s"] < 300.0
