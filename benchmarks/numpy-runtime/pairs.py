"""Paired benchmark runs of two dllrnn checkouts, and their summary table.

    python3 pairs.py run PARENT_DIR CHANGE_DIR --pairs 10 --seconds 30 --out runs.json
    python3 pairs.py table runs.json

``run`` runs ``perfbench/run.py --trace 0`` of each checkout on each workload,
pair k at seed base+k, the parent first in even pairs and second in odd
ones, with ``PYTHONDONTWRITEBYTECODE=1``; it rewrites ``--out`` after every
run. ``table`` prints each metric's medians, ranges, quartiles and how many
pairs the change read lower.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

SEED_BASE = {"stream-64-8-8": 300, "train-64-8-8": 310, "simulate-8mic": 320}
METRICS = ("p99_s_per_audio_s", "setup_s", "peak_rss_mb")


def run_pair_side(checkout, workload, seed, seconds):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "record.json")
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                        "--out", out], cwd=checkout, check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), timeout=900)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def cmd_run(args):
    sides = {"parent": args.parent, "change": args.change}
    result = {"order": "parent first in even pairs, change first in odd pairs", "runs": []}
    for workload, base in SEED_BASE.items():
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_pair_side(sides[side], workload, base + pair, args.seconds)
                result["env"] = record["env"]
                result["runs"].append({
                    "workload": workload, "pair": pair, "seed": base + pair, "side": side,
                    "first": order[0], "seconds": args.seconds,
                    "correct": record["correct"], "attempted": record["attempted"],
                    "failed": record["failed"], "end_to_end": record["end_to_end"],
                    "aliases": record["aliases"]})
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(result, fh, indent=1, sort_keys=True)
                print(workload, pair, side, record["end_to_end"], flush=True)


def _span(values):
    return "%.4g [%.4g, %.4g]" % (np.median(values), values.min(), values.max())


def _quartiles(values):
    return "%.4g/%.4g" % tuple(np.percentile(values, [25, 75]))


def cmd_table(args):
    with open(args.runs, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    print("| workload | metric | parent median [min, max] | change median [min, max] "
          "| change lower | median change | parent quartiles | change quartiles |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in SEED_BASE:
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        for i, metric in enumerate(METRICS):
            par = np.array([p["parent"]["end_to_end"][metric] for p in pairs])
            chg = np.array([p["change"]["end_to_end"][metric] for p in pairs])
            if not len(par):
                continue
            name = f"`{workload}` ({len(pairs)} pairs)" if i == 0 else ""
            print(f"| {name} | `{metric}` | {_span(par)} | {_span(chg)} "
                  f"| {int(np.sum(chg < par))}/{len(pairs)} "
                  f"| {100 * (np.median(chg) / np.median(par) - 1):+.1f}% "
                  f"| {_quartiles(par)} | {_quartiles(chg)} |")
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    print(f"\n{len(runs)} runs, {len(bad)} incorrect or with failed ops")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("table")
    p.add_argument("runs")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_table(args)


if __name__ == "__main__":
    sys.exit(main())
