"""Low-latency multichannel speech enhancement: model, trainer, simulator, CLI."""

from .errors import (ConfigError, ContractError, DataError, DegenerateInputError,
                     DimensionError, GeometryError, NumericalError, WavFormatError)
from .framing import (SAMPLE_RATE, FrameSpec, frame_signal, latency_check, normalize_variance,
                      overlap_add)
from .losses import pcm_loss, si_sdr, stft
from .model import (ModelConfig, ParamStore, StreamingEnhancer, build_params, count_flops,
                    count_params, enhance_waveform, model_forward)
from .checkpoint import load_checkpoint, save_checkpoint
from .simulate import (MixtureExample, RoomSpec, Scene, achieved_snr, draw_scene, image_sources,
                       mic_circle, simulate_rir, spatialize_mixture)
from .tensor import Tape, Tensor
from .train import OptState, Schedule, TrainExample, adam_step, clip_grad_norm, fit

__version__ = "0.1.0"

# Recorded by benchmark results to name the kernel set; there is one, in numpy.
USE_NUMBA = False
