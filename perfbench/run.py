"""Benchmark dllrnn: streaming push latency, training throughput, simulator cost.

Run from the repository root:

    python3 perfbench/run.py --workload stream-64-8-8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1 --out r.json

One run sets the workload up several times and warms it up once at full size
(set-up time is the median import time of fresh interpreters, plus the median
set-up, plus the warm-up), measures ops in a closed loop for ``--seconds``,
then checks the outputs. It prints every metric by name with its unit, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. ``--out`` also writes the full record: environment,
end-to-end and per-layer metrics, aliases and check details.
``--workload all`` runs every workload in turn, each in its own process.

The program under test is imported from ``src/`` of the same checkout, with
BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, scipy.signal, dllrnn; "
                "print(time.perf_counter() - t0)")
WORKLOAD_NAMES = ("stream-64-8-8", "train-64-8-8", "simulate-8mic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record to this JSON file")
    return parser.parse_args(argv)


def measure(workload, seed, seconds, trace, import_s, reference=None, max_ops=None,
            workdir=ROOT):
    """Set up, run and verify one workload; returns the result record."""
    import metrics
    from spans import Tracer, traced
    from workloads import OpLog

    tracer = Tracer() if trace else None
    setup_runs, setup_layers = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as scratch:
        with traced(tracer, workload.frame) if trace else nullcontext():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup(seed, scratch)
                setup_runs.append(time.perf_counter() - t0)
                if tracer is not None:
                    setup_layers.append(tracer.take())
            t0 = time.perf_counter()
            workload.warm_up()
            warm_up_s = time.perf_counter() - t0
            if tracer is not None:
                tracer.take()
                tracer.counts.clear()
            log = OpLog(tracer)
            gc.collect()
            workload.run(log, time.perf_counter() + seconds, max_ops)
        try:
            details = workload.verify(log, reference)
        except Exception as exc:  # a check that cannot run counts as failed
            log.check(False, f"verify: {type(exc).__name__}: {exc}")
            details = {}
    record = {
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "env": metrics.environment(),
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "warm_up_s": warm_up_s,
        "end_to_end": metrics.end_to_end(
            log, import_s + statistics.median(setup_runs) + warm_up_s),
        "checks": details,
    }
    if trace:
        record["per_layer"] = metrics.per_layer(log, setup_layers,
                                                getattr(workload, "examples_per_op", 1))
    return record, log


def import_seconds(src):
    """Median time a fresh interpreter takes to import numpy, scipy.signal and dllrnn."""
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        runs.append(float(probe.stdout))
    return statistics.median(runs)


def _print_rows(rows, units):
    for name, value in rows.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")


def run_one(args):
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "dllrnn")):
        print(f"error: no dllrnn package under {src}; run from a dllrnn checkout",
              file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, src)
    import metrics
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload)
    record, log = measure(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace,
                          import_s, reference)
    record["workload"] = args.workload
    record["aliases"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.aliases(args.workload, log).items()}

    env = record["env"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"| {env['blas_threads']} BLAS thread(s), numba={env['use_numba']}, "
          f"nproc={env['nproc']}")
    print(f"ops attempted {record['attempted']}, failed {record['failed']}")
    for message in record["errors"]:
        print(f"  failure: {message}")
    print("end-to-end:")
    _print_rows(record["end_to_end"], metrics.UNITS)
    _print_rows({k: v["value"] for k, v in record["aliases"].items()},
                {k: v["unit"] for k, v in record["aliases"].items()})
    if args.trace:
        print("per layer (per op; computed = from call shapes):")
        _print_rows(record["per_layer"], metrics.UNITS)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    shown = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in shown.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another; merged record."""
    records = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        for name in WORKLOAD_NAMES:
            out = os.path.join(scratch, name + ".json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                cwd=ROOT, timeout=900, check=False)
            if proc.returncode != 0:
                print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            with open(out, encoding="utf-8") as fh:
                records[name] = json.load(fh)
    if args.out:
        merged = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "env": records[WORKLOAD_NAMES[0]]["env"], "workloads": records}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import metrics

    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{name}/{k}": {"value": v, "unit": metrics.UNITS[k]}
                    for name, r in records.items() for k, v in r[key].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
