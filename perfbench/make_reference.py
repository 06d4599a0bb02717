"""Write perfbench/reference.json: stored outputs the benchmark checks against.

    python3 perfbench/make_reference.py

For the fixed reference seed it stores the streamed output of the stream
workload's model on a short input, and the loss and grad-norm trajectory of
a short training run of the train workload's model. Regenerate it only when
a change is meant to alter those outputs, and say so with the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STREAM = {"wav_seconds": 0.05}
TRAIN = {"examples": 2, "example_seconds": 0.5, "batch": 2, "chunk_seconds": 0.25, "steps": 3,
         "rtol": {"loss": 1e-4, "grad_norm": 1e-3}}


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import (StreamSize, TrainSize, stream_reference_output,
                           train_reference_trajectory)

    stream = dict(STREAM, output=[float(v) for v in stream_reference_output(StreamSize(),
                                                                            **STREAM)])
    train = dict(TRAIN, **train_reference_trajectory(TrainSize(), TRAIN))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"stream-64-8-8": stream, "train-64-8-8": train}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
