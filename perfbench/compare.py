"""Compare two result records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload in both records it prints every end-to-end metric, every
alias (``rtf``, ``train_s_per_audio_s``, ``sim_s_per_example``...) and, when
both records carry them, every per-layer metric: the base value, the new
value, and the change as a share of the base. An end-to-end change worse
than the metric's bound in BENCHMARK.json is flagged. Comparing an untraced
record with a traced one of the same seed gives the tracing overhead.

Two results whose kernel set (``dllrnn.USE_NUMBA``) or BLAS thread count
differ measure different programs; comparing them is refused with exit 2.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _by_workload(record):
    return record["workloads"] if "workloads" in record else {record["workload"]: record}


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return _by_workload(json.load(fh))


def _values(record, section):
    """metric -> number; aliases are stored as {"value": ..., "unit": ...}."""
    rows = record.get(section) or {}
    return {k: v["value"] if isinstance(v, dict) else v for k, v in rows.items()}


def _catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 1
    base, new = _load(argv[0]), _load(argv[1])
    for name in sorted(set(base) & set(new)):
        env_a, env_b = base[name]["env"], new[name]["env"]
        for key, what in (("use_numba", "kernel set (USE_NUMBA)"),
                          ("blas_threads", "BLAS thread count")):
            if env_a.get(key) != env_b.get(key):
                print(f"error: {name}: {what} differs ({env_a.get(key)} vs {env_b.get(key)}); "
                      f"the results are not comparable", file=sys.stderr)
                return 2
    catalogue = _catalogue()
    print(f"{'workload':<15} {'metric':<34} {'base':>12} {'new':>12} {'change':>9}")
    for name in sorted(set(base) & set(new)):
        for section in ("end_to_end", "aliases", "per_layer"):
            rows_a, rows_b = _values(base[name], section), _values(new[name], section)
            for metric in rows_a:
                a, b = rows_a[metric], rows_b.get(metric)
                if b is None:
                    continue
                change = (b - a) / a if a else 0.0
                spec = catalogue.get(metric, {})
                worse = change if spec.get("better") == "lower" else -change
                flag = "  worse than bound" if "bound" in spec and worse > spec["bound"] else ""
                print(f"{name:<15} {metric:<34} {a:>12.6g} {b:>12.6g} {change:>+8.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
