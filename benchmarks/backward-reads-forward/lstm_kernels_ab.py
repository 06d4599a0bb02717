"""Time the parent's and the change's LSTM kernels in one process, alternating.

    python3 lstm_kernels_ab.py PARENT/src/dllrnn/kernels.py CHANGE/src/dllrnn/kernels.py

Loads both ``kernels.py`` files as separate modules, checks that the change's
forward returns the parent's rows behind its initial-state row 0 and that both
backwards are bit-equal, then times 30 alternating rounds at T=1000, F=64,
float32: the forward, the backward, and the mean of 1,000 one-frame forwards
(the streaming call). Prints the median and quartiles of each, in ms.
"""

import importlib.util
import statistics
import sys
import time

import numpy as np


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(parent_path, change_path):
    P, C = load(parent_path, "kernels_parent"), load(change_path, "kernels_change")
    rng = np.random.default_rng(0)
    t_len, f = 1000, 64

    def draw(*shape):
        return (0.2 * rng.standard_normal(shape)).astype(np.float32)

    x, wx, wh, b, h0, c0, dh = (draw(t_len, f), draw(4 * f, f), draw(4 * f, f), draw(4 * f),
                                draw(f), draw(f), draw(t_len, f))
    hp, gp, cp, tp = P.lstm_forward(x, wx, wh, b, h0, c0)
    hc, gc, cc, tc = C.lstm_forward(x, wx, wh, b, h0, c0)
    assert np.array_equal(hp, hc[1:]) and np.array_equal(cp, cc[1:]) and np.array_equal(gp, gc)
    back = {"parent": (dh, x, wx, wh, gp, cp, tp, hp, h0, c0),
            "change": (dh, x, wx, wh, gc, cc, tc, hc)}
    assert all(np.array_equal(u, v) for u, v in zip(P.lstm_backward(*back["parent"]),
                                                     C.lstm_backward(*back["change"])))
    x1 = x[:1].copy()
    times = {(side, op): [] for side in back for op in ("forward", "backward", "one-frame")}
    for i in range(30):
        for side, K in ((("parent", P), ("change", C)) if i % 2 == 0
                        else (("change", C), ("parent", P))):
            t0 = time.perf_counter()
            K.lstm_forward(x, wx, wh, b, h0, c0)
            times[side, "forward"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            K.lstm_backward(*back[side])
            times[side, "backward"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(1000):
                K.lstm_forward(x1, wx, wh, b, h0, c0)
            times[side, "one-frame"].append((time.perf_counter() - t0) / 1000)
    for (side, op), v in times.items():
        q1, q3 = np.percentile(v, [25, 75]) * 1e3
        print(f"{side:7s} {op:10s} median {statistics.median(v) * 1e3:.3f} ms "
              f"quartiles {q1:.3f}/{q3:.3f}")


if __name__ == "__main__":
    main(*sys.argv[1:])
