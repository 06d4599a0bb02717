"""The dllrnn names the benchmark wraps still exist and are restored after tracing.

``perfbench/spans.py`` replaces module attributes such as
``dllrnn.kernels.place_taps`` with recording wrappers. It is loaded here by
file path so that renaming one of those attributes fails this suite, not
only the benchmark's own tests.
"""

import importlib.util
import os

import numpy as np

from dllrnn import kernels as K
from dllrnn.framing import FrameSpec

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_an_existing_callable():
    spans = _load_spans()
    table = spans.patch_table(FrameSpec())
    assert table
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_restores_every_original():
    spans = _load_spans()
    table = spans.patch_table(FrameSpec())
    originals = [getattr(owner, attr) for owner, attr, _, _ in table]
    tracer = spans.Tracer()
    with spans.traced(tracer, FrameSpec()):
        for (owner, attr, _, _), original in zip(table, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
        K.place_taps(np.array([3.5]), np.array([1.0]), 16)
    assert [row[0] for row in tracer.spans] == ["simulate.place_taps"]
    for (owner, attr, _, _), original in zip(table, originals):
        assert getattr(owner, attr) is original, attr
