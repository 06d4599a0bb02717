"""Metric catalogue, statistics over an :class:`~workloads.OpLog`, and the
environment record every result carries.

End-to-end metrics are the same on every workload, so each time is defined
per second of audio an op handles: a push handles one 16-sample hop (1 ms),
a training step its batch of chunks, and a simulated example the audio of
each source it renders (speech plus every noise source). On stream a ratio
is therefore a push time in units of the 1 ms hop budget.

On a machine whose cores are shared with other tenants, core speed moves by
up to 1.7x, in plateaus from a fraction of a second to several minutes. The
p99 over every op of a run lands in the slow plateaus, which every run meets,
so it holds within about 10% from one set of runs to the next; any median
moves by a third or more when the machine changes plateau. Only the p99 is
therefore bounded. The medians are reported unbounded, as aliases: the plain
run-wide ones under each workload's own names (``push_p50_ms``, ``rtf``,
``train_s_per_audio_s``, ``sim_s_per_example``...) and
``quiet_p50_s_per_audio_s``, the median op cost in the run's quietest window:
the ops are cut into consecutive windows of at least ``WINDOW_S`` seconds (and
at least one op), and the lowest window median is reported. On stream a
window holds some 150 pushes, on train and simulate one op. Within one
plateau it is the steadier median, which suits paired comparisons.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics

import numpy as np

from dllrnn.framing import SAMPLE_RATE
from spans import KERNEL_OPS

END_TO_END = [
    {"name": "p99_s_per_audio_s", "unit": "s/s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
WINDOW_S = 0.25

# Layers with no matrix products in count_macs_per_frame get no GFLOP/s row.
_MAC_OPS = tuple(op for op in KERNEL_OPS if op != "layer_norm")


def _per_layer_catalogue():
    rows = []
    for op in KERNEL_OPS:
        rows.append({"name": f"kernels.{op}.fwd_ms", "unit": "ms", "better": "lower"})
        rows.append({"name": f"kernels.{op}.bwd_ms", "unit": "ms", "better": "lower"})
        if op in _MAC_OPS:
            rows.append({"name": f"kernels.{op}.gflops", "unit": "GFLOP/s-computed",
                         "better": "higher"})
        rows.append({"name": f"kernels.{op}.moved_mb", "unit": "MB-computed", "better": "lower"})
    rows.append({"name": "kernels.calls", "unit": "count", "better": "lower"})
    for name in ("model.push_self_ms", "model.forward_self_ms", "tensor.backward_self_ms"):
        rows.append({"name": name, "unit": "ms", "better": "lower"})
    rows.append({"name": "tensor.tape_entries", "unit": "count", "better": "lower"})
    for name in ("losses.pcm_loss_ms", "train.clip_ms", "train.adam_ms",
                 "simulate.place_taps_ms", "simulate.fftconvolve_ms",
                 "simulate.image_sources_ms", "simulate.rir_self_ms", "simulate.sources_ms"):
        rows.append({"name": name, "unit": "ms", "better": "lower"})
    rows.append({"name": "simulate.rirs", "unit": "count", "better": "lower"})
    rows.append({"name": "simulate.images", "unit": "count", "better": "lower"})
    for name in ("checkpoint.load_ms", "wavio.read_ms", "trace.op_ms", "trace.unaccounted_ms"):
        rows.append({"name": name, "unit": "ms", "better": "lower"})
    return rows


PER_LAYER = _per_layer_catalogue()
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def quiet_window_median(times, ratios, window_s=WINDOW_S):
    """Lowest median of ``ratios`` over consecutive windows of at least
    ``window_s`` seconds of ``times``; the run-wide median if no window fills."""
    best, start, busy = None, 0, 0.0
    for i, t in enumerate(times):
        busy += t
        if busy >= window_s:
            median = statistics.median(ratios[start:i + 1])
            best = median if best is None else min(best, median)
            start, busy = i + 1, 0.0
    return statistics.median(ratios) if best is None else best


def end_to_end(log, setup_s):
    """The bounded metrics, from the ops that succeeded."""
    ratios = [t / a for t, a, ok in zip(log.times, log.audio, log.ok) if ok]
    return {
        "p99_s_per_audio_s": float(np.percentile(ratios, 99)) if ratios else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def aliases(workload, log):
    """Run-wide statistics under each workload's own names: name -> (value, unit)."""
    good = [i for i, ok in enumerate(log.ok) if ok]
    if not good:
        return {}
    times = [log.times[i] for i in good]
    audio = sum(log.audio[i] for i in good)
    quiet = {"quiet_p50_s_per_audio_s": (
        quiet_window_median(times, [log.times[i] / log.audio[i] for i in good]), "s/s")}
    if workload.startswith("stream"):
        hop_ms = 1e3 * log.audio[good[0]]
        return quiet | {
            "push_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
            "push_p99_ms": (1e3 * float(np.percentile(times, 99)), "ms"),
            "rtf": (sum(times) / audio, "s/s"),
            "pushes_over_budget": (sum(1e3 * t > hop_ms for t in times) + log.ok.count(False),
                                   "count"),
            "pushes": (len(log.times), "count"),
        }
    if workload.startswith("train"):
        step_audio = log.audio[good[0]]
        return quiet | {"train_s_per_audio_s": (statistics.median(times) / step_audio, "s/s"),
                        "steps": (len(log.times), "count")}
    return quiet | {"sim_s_per_example": (statistics.median(times), "s"),
                    "examples": (len(log.times), "count")}


def per_layer(log, setup_layers, examples_per_op=1):
    """Per-op averages of every traced layer, plus set-up I/O medians."""
    layers, counts = log.layers, log.tracer.counts
    n_ops = max(len(log.times), 1)

    def ms(name, column=1):
        return 1e3 * layers[name][column] / n_ops if name in layers else 0.0

    out = {}
    for op in KERNEL_OPS:
        fwd, bwd = f"kernels.{op}.fwd", f"kernels.{op}.bwd"
        out[f"kernels.{op}.fwd_ms"] = ms(fwd)
        out[f"kernels.{op}.bwd_ms"] = ms(bwd)
        busy_ms = out[f"kernels.{op}.fwd_ms"] + out[f"kernels.{op}.bwd_ms"]
        if op in _MAC_OPS:
            macs = (counts[fwd + ".macs"] + counts[bwd + ".macs"]) / n_ops
            out[f"kernels.{op}.gflops"] = 2.0 * macs / (busy_ms * 1e6) if busy_ms else 0.0
        out[f"kernels.{op}.moved_mb"] = (counts[fwd + ".bytes"] + counts[bwd + ".bytes"]) / n_ops / 1e6
    out["kernels.calls"] = sum(row[0] for name, row in layers.items()
                               if name.startswith("kernels.")) / n_ops
    out["model.push_self_ms"] = ms("model.push", 2)
    out["model.forward_self_ms"] = ms("model.forward", 2)
    out["tensor.backward_self_ms"] = ms("tensor.backward", 2)
    out["tensor.tape_entries"] = counts["tensor.tape_entries"] / (n_ops * examples_per_op)
    out["losses.pcm_loss_ms"] = ms("losses.pcm_loss")
    out["train.clip_ms"] = ms("train.clip")
    out["train.adam_ms"] = ms("train.adam")
    out["simulate.place_taps_ms"] = ms("simulate.place_taps")
    out["simulate.fftconvolve_ms"] = ms("simulate.fftconvolve")
    out["simulate.image_sources_ms"] = ms("simulate.image_sources")
    out["simulate.rir_self_ms"] = ms("simulate.rir", 2)
    out["simulate.sources_ms"] = ms("simulate.sources")
    out["simulate.rirs"] = layers["simulate.rir"][0] / n_ops if "simulate.rir" in layers else 0.0
    out["simulate.images"] = counts["simulate.images"] / n_ops
    for name in ("checkpoint.load", "wavio.read"):
        runs = [1e3 * s[name][1] if name in s else 0.0 for s in setup_layers]
        out[name + "_ms"] = statistics.median(runs) if runs else 0.0
    out["trace.op_ms"] = ms("op")
    out["trace.unaccounted_ms"] = ms("op", 2)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def environment():
    import scipy

    import dllrnn

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": blas_threads(),
        "use_numba": bool(dllrnn.USE_NUMBA),
        "sample_rate": SAMPLE_RATE,
    }
