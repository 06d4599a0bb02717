"""The package runs on numpy alone: scipy stays off every runtime path."""

import os
import subprocess
import sys

import dllrnn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dllrnn.__file__)))

# Runs with scipy blocked: a None entry in sys.modules makes any import of it
# raise ImportError, so each step fails if it reaches scipy.
SCRIPT = """
import contextlib, io, sys
sys.modules["scipy"] = None
import numpy as np
import dllrnn
from dllrnn import cli
from dllrnn.framing import FrameSpec

cfg = dllrnn.ModelConfig(channels=2, hidden=8, spatial=2, blocks=2,
                         frame=FrameSpec(l_in=32, l_out=8, hop=4))
store = dllrnn.build_params(cfg, seed=0)
rng = np.random.default_rng(0)
y = rng.standard_normal((2, 800)).astype(np.float32)
assert dllrnn.enhance_waveform(y, cfg, store).shape == (1, 800)
item = dllrnn.TrainExample(mixture=y, s_direct=0.5 * y)
history = dllrnn.fit(cfg, store, [item], dllrnn.Schedule(epochs=1, batch_size=1,
                                                         chunk_seconds=0.05, seed=0))
assert len(history) == 1
scene = dllrnn.draw_scene(rng, n_mics=2, n_noise_range=(1, 1))
ex = dllrnn.spatialize_mixture(scene, dllrnn.simulate.speech_like(rng, 1600),
                               [dllrnn.simulate.pink_noise(rng, 1600)], order=1)
assert ex.mixture.shape == (2, 1600)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["count", "64-8-8"]) == 0
assert sys.modules["scipy"] is None
print(sorted(name for name in sys.modules if name.startswith("scipy") and name != "scipy"))
"""


def test_runtime_paths_import_no_scipy():
    # import, one enhancement, a one-step fit, one rendered mixture and the
    # CLI's count, all in one fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
