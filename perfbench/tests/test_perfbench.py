"""The benchmark's own checks, with every workload at a tiny size."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import metrics
import run
from dllrnn.framing import FrameSpec
from dllrnn.model import ModelConfig, count_macs_per_frame
from spans import self_times, summarize
from workloads import (WORKLOADS, OpLog, SimSize, StreamSize, TrainSize, example_inputs,
                       frame_macs, stream_inputs, stream_reference_output, train_inputs)

TINY_MODEL = ModelConfig(channels=2, hidden=12, spatial=2, blocks=2,
                         frame=FrameSpec(l_in=32, l_out=8, hop=4))
TINY_SIZES = {
    "stream-64-8-8": StreamSize(config=TINY_MODEL, wav_seconds=0.01, warmup_pushes=4),
    "train-64-8-8": TrainSize(config=TINY_MODEL, examples=2, example_seconds=0.05, batch=2,
                              chunk_seconds=0.025),
    "simulate-8mic": SimSize(duration_s=0.05, order=1, mics=2, noise_range=(1, 2)),
}


def tiny(name):
    return WORKLOADS[name](TINY_SIZES[name])


FAR = float("inf")


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _inputs_digest(name, seed):
    if name.startswith("stream"):
        store, wav = stream_inputs(seed, TINY_SIZES[name])
        return _digest(wav, *(t.data for t in store.tensors()))
    if name.startswith("train"):
        store, dataset = train_inputs(seed, TINY_SIZES[name])
        return _digest(*(a for ex in dataset for a in (ex.mixture, ex.s_direct)),
                       *(t.data for t in store.tensors()))
    parts = []
    for index in range(3):
        scene, speech, noises = example_inputs(seed, index, TINY_SIZES[name])
        parts += [scene.room.dims, scene.mics, scene.speech_pos, *scene.noise_pos,
                  [scene.snr_db], speech, *noises]
    return _digest(*parts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name):
    assert _inputs_digest(name, 5) == _inputs_digest(name, 5)
    assert _inputs_digest(name, 5) != _inputs_digest(name, 6)


def test_self_time_is_parent_minus_covered_child_time():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: the union [1, 6] is covered once
        ["c", 2.0, 3.0, 1],    # grandchild: covers a, not root
        ["d", 8.0, 12.0, 0],   # runs past the parent: only [8, 10] counts
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]
    summary = summarize(spans)
    assert summary["root"] == [1, 10.0, 3.0]
    assert summary["a"] == [1, 3.0, 2.0]


def test_quiet_window_median_takes_the_lowest_full_window():
    times = [0.1, 0.1, 0.1, 0.3, 0.1, 0.1, 0.1]
    ratios = [5.0, 1.0, 2.0, 9.0, 3.0, 3.0, 0.5]
    # windows of >= 0.25 s: [5, 1, 2], [9], [3, 3]; the trailing [0.5] never fills
    assert metrics.quiet_window_median(times, ratios, 0.25) == 2.0
    assert metrics.quiet_window_median(times[:2], ratios[:2], 0.25) == 3.0


def test_wrong_shape_push_is_a_failed_op(tmp_path):
    workload = tiny("stream-64-8-8")
    workload.setup(1, str(tmp_path))
    bad = len(workload.blocks) - 2
    workload.blocks[bad] = np.zeros((TINY_MODEL.channels, TINY_MODEL.frame.hop + 1), np.float32)
    log = OpLog()
    workload.run(log, FAR, max_ops=len(workload.blocks))
    workload.verify(log)
    assert len(log.times) == len(workload.blocks)
    assert log.failed == 1 and not log.ok[bad]
    assert "DimensionError" in log.errors[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    record, log = run.measure(tiny(name), seed=3, seconds=FAR, trace=trace, import_s=0.0,
                              max_ops=12, workdir=str(tmp_path))
    assert record["correct"], record["errors"]
    assert len(log.times) == 12 and record["failed"] == 0
    assert set(record["end_to_end"]) == {m["name"] for m in metrics.END_TO_END}
    assert all(v > 0 for v in record["end_to_end"].values())
    if trace:
        layers = record["per_layer"]
        assert set(layers) == {m["name"] for m in metrics.PER_LAYER}
        assert layers["trace.op_ms"] > 0
    assert not os.listdir(tmp_path)  # set-up files are removed


def test_traced_rows_cover_the_op():
    _, log = run.measure(tiny("train-64-8-8"), seed=3, seconds=FAR, trace=1, import_s=0.0,
                         max_ops=3)
    layers = metrics.per_layer(log, [], examples_per_op=2)
    parts = (sum(layers[f"kernels.{op}.{d}_ms"] for op in
                 ("encoder", "spatial_conv", "layer_norm", "lstm", "post_lstm_linear", "decoder")
                 for d in ("fwd", "bwd"))
             + layers["model.forward_self_ms"] + layers["tensor.backward_self_ms"]
             + layers["losses.pcm_loss_ms"] + layers["train.clip_ms"] + layers["train.adam_ms"]
             + layers["trace.unaccounted_ms"])
    assert parts == pytest.approx(layers["trace.op_ms"], rel=1e-9)


def test_frame_macs_equal_count_macs_per_frame(tmp_path):
    workload = tiny("stream-64-8-8")
    workload.setup(2, str(tmp_path))
    macs = frame_macs(TINY_MODEL, workload.store, workload.scale, workload.blocks)
    assert sum(macs.values()) == count_macs_per_frame(TINY_MODEL)
    assert set(macs) == {"kernels.encoder.fwd", "kernels.spatial_conv.fwd", "kernels.lstm.fwd",
                         "kernels.post_lstm_linear.fwd", "kernels.decoder.fwd"}


def test_stream_reference_mismatch_is_a_failed_check(tmp_path):
    workload = tiny("stream-64-8-8")
    workload.setup(2, str(tmp_path))
    stored = stream_reference_output(workload.size, 0.005)
    for scale, failed in ((1.0, 0), (1.01, 1)):
        log = OpLog()
        workload.verify(log, {"wav_seconds": 0.005, "output": list(stored * scale)})
        assert log.failed == failed


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert spec["end_to_end"] == metrics.END_TO_END
    assert spec["per_layer"] == metrics.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-64-8-8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def _record(blas_threads, value):
    return {"workload": "stream-64-8-8", "env": {"use_numba": False, "blas_threads": blas_threads},
            "end_to_end": {"p99_s_per_audio_s": value}}


def test_compare_refuses_different_blas_threads(tmp_path, capsys):
    paths = []
    for i, threads in enumerate((1, 2)):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(_record(threads, 1.0)))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(p) for p in paths]) == 2
    assert "BLAS" in capsys.readouterr().err
