"""Spans recorded around the public names dllrnn's modules call through.

A :class:`Tracer` keeps spans in memory as ``[name, start, end, parent]``
rows, where ``parent`` is the index of the enclosing span in the same list
(-1 for a root). Spans are recorded only from this directory: :func:`traced`
temporarily replaces module attributes such as ``dllrnn.kernels.lstm_forward``
with recording wrappers and restores them on exit, so nothing under ``src/``
changes. Counts (multiply-accumulates, bytes moved, tape entries) are added
at the same boundaries.

A span's self time is its duration minus the part of that interval its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

KERNEL_OPS = ("encoder", "spatial_conv", "layer_norm", "lstm", "post_lstm_linear", "decoder")


class Tracer:
    """In-memory span recorder; one instance per run, single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, fn, name, account=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's positional arguments
        returning one. ``account(counts, label, args, result)`` runs after the
        span closes and adds to :attr:`counts`.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        fixed = name if isinstance(name, str) else None

        def recorded(*args, **kwargs):
            label = fixed or name(args)
            row = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if account is not None:
                account(counts, label, args, result)
            return result

        recorded.__wrapped__ = fn
        return recorded

    @contextmanager
    def span(self, name):
        row = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Summarize and forget the spans recorded so far (between ops)."""
        summary = summarize(self.spans)
        self.spans.clear()
        return summary


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans):
    """name -> [calls, total seconds, self seconds]."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return out


def merge(into, summary):
    for name, (calls, total, own) in summary.items():
        row = into[name]
        row[0] += calls
        row[1] += total
        row[2] += own


# ---------------------------------------------------------------------------
# What each wrapped dllrnn name is called, and what it counts
# ---------------------------------------------------------------------------

def _linear_label(frame, direction):
    def label(args):
        w = args[1] if direction == "fwd" else args[2]
        n_out, n_in = w.shape
        if n_in == frame.l_in:
            return f"kernels.encoder.{direction}"
        if n_out == frame.l_out:
            return f"kernels.decoder.{direction}"
        return f"kernels.post_lstm_linear.{direction}"
    return label


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _kernel_account(macs):
    """Adds multiply-accumulates and bytes moved, both computed from call shapes.

    The first two arguments' shapes fix every other shape of a kernel call, so
    the computed cost is cached on them to keep tracing overhead low.
    """
    cache = {}

    def account(counts, label, args, result):
        key = (label, args[0].shape, args[1].shape, args[0].dtype)
        cost = cache.get(key)
        if cost is None:
            cost = cache[key] = (label + ".macs", macs(args),
                                 label + ".bytes", _nbytes(args) + _nbytes(result))
        counts[cost[0]] += cost[1]
        counts[cost[2]] += cost[3]
    return account


# MACs from the call shapes; a backward pass does the forward's products twice
# (input gradient and weight gradient).
def _linear_fwd_macs(args):
    x, w = args[0], args[1]
    return x.shape[0] * w.size


def _linear_bwd_macs(args):
    x, w = args[1], args[2]
    return 2 * x.shape[0] * w.size


def _conv_fwd_macs(args):
    x, w = args[0], args[1]
    return x.shape[1] * w.size


def _conv_bwd_macs(args):
    x, w = args[1], args[2]
    return 2 * x.shape[1] * w.size


def _lstm_fwd_macs(args):
    x, wx, wh = args[0], args[1], args[2]
    return x.shape[0] * (wx.size + wh.size)


def _lstm_bwd_macs(args):
    x, wx, wh = args[1], args[2], args[3]
    return 2 * x.shape[0] * (wx.size + wh.size)


def _no_macs(args):
    return 0


def _tape_account(counts, label, args, result):
    counts["tensor.tape_entries"] += len(args[0])


def _images_account(counts, label, args, result):
    counts["simulate.images"] += len(result[1])


def patch_table(frame):
    """(module, attribute, span name, account) for every name the bench wraps."""
    from dllrnn import checkpoint, kernels, model, simulate, tensor, train, wavio

    def kernel(attr, label, macs):
        return (kernels, attr, label, _kernel_account(macs))

    return [
        kernel("linear_forward", _linear_label(frame, "fwd"), _linear_fwd_macs),
        kernel("linear_backward", _linear_label(frame, "bwd"), _linear_bwd_macs),
        kernel("spatial_conv_forward", "kernels.spatial_conv.fwd", _conv_fwd_macs),
        kernel("spatial_conv_backward", "kernels.spatial_conv.bwd", _conv_bwd_macs),
        kernel("layer_norm_forward", "kernels.layer_norm.fwd", _no_macs),
        kernel("layer_norm_backward", "kernels.layer_norm.bwd", _no_macs),
        kernel("lstm_forward", "kernels.lstm.fwd", _lstm_fwd_macs),
        kernel("lstm_backward", "kernels.lstm.bwd", _lstm_bwd_macs),
        (kernels, "place_taps", "simulate.place_taps", None),
        (model.StreamingEnhancer, "push", "model.push", None),
        (train, "model_forward", "model.forward", None),
        (train, "pcm_loss", "losses.pcm_loss", None),
        (train, "clip_grad_norm", "train.clip", None),
        (train, "adam_step", "train.adam", None),
        (tensor.Tape, "backward", "tensor.backward", _tape_account),
        (simulate, "image_sources", "simulate.image_sources", _images_account),
        (simulate, "fftconvolve", "simulate.fftconvolve", None),
        (simulate, "simulate_rir", "simulate.rir", None),
        (simulate, "speech_like", "simulate.sources", None),
        (simulate, "white_noise", "simulate.sources", None),
        (simulate, "pink_noise", "simulate.sources", None),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
        (wavio, "read_wav", "wavio.read", None),
    ]


@contextmanager
def traced(tracer, frame):
    """Route the wrapped dllrnn names through ``tracer``; restore them on exit."""
    saved = []
    try:
        for owner, attr, label, account in patch_table(frame):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, label, account))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
