#!/usr/bin/env python3
"""Compares two sets of benchmark runs metric by metric.

    python3 perfbench/compare.py --base base/*.log --new new/*.log
    python3 perfbench/compare.py --base runs/*.log          # one set: spreads only

Each file holds the standard output of one or more runs of perfbench/run.py;
the detail record each run prints ({"perfbench": "run", ...}) names its
workload and trace mode. For every workload and every metric of
BENCHMARK.json the script prints each set's median and quartiles (Python's
statistics.quantiles, n=4), the spread (interquartile range over median),
and, given two sets, a verdict for the new set against the metric's bound:

    worse       the median moved the wrong way by more than the bound
    better      the median moved the right way by more than the bound
    unresolved  a set's spread exceeds the bound and the runs overlap
    same        neither

Per-layer metrics, which have no bound, get medians only. With one set, a
spread over the bound is flagged. Exit code 1 when any metric is worse (or,
with one set, spreads past its bound), else 0. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    """{(workload, trace): [metrics dict, ...]} from run output files."""
    runs = {}
    for path in paths:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("perfbench") != "run":
                    continue
                key = (record["workload"], int(record["trace"]))
                runs.setdefault(key, []).append(
                    {name: m["value"] for name, m in record["metrics"].items()})
    return runs


def summarize(values):
    """(median, q1, q3, spread) of a list of numbers."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf") if q3 != q1 else 0.0
    return median, q1, q3, spread


def verdict(base, new, better, bound):
    """Classifies `new` against `base` (lists of values) for one metric."""
    base_med, _, _, base_spread = summarize(base)
    new_med, _, _, new_spread = summarize(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    if max(base_spread, new_spread) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="run output files")
    parser.add_argument("--new", nargs="+", help="run output files of the candidate")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    flagged = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            base_runs = base.get((workload, trace), [])
            if not base_runs:
                continue
            new_runs = new.get((workload, trace), []) if new else []
            print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, "
                  f"{len(base_runs)} base runs"
                  + (f", {len(new_runs)} new runs" if new else "") + ")")
            for metric in metrics:
                name = metric["name"]
                base_values = [r[name] for r in base_runs if name in r]
                if not base_values:
                    continue
                med, q1, q3, spread = summarize(base_values)
                line = (f"  {name:28s} base {med:<12.6g} [{q1:.6g}, {q3:.6g}] "
                        f"spread {spread:.3f}")
                bound = metric.get("bound")
                new_values = [r[name] for r in new_runs if name in r]
                if new_values:
                    n_med, n_q1, n_q3, n_spread = summarize(new_values)
                    line += (f" | new {n_med:<12.6g} [{n_q1:.6g}, {n_q3:.6g}] "
                             f"spread {n_spread:.3f}")
                    if bound is not None:
                        result = verdict(base_values, new_values, metric["better"], bound)
                        line += f" -> {result} (bound {bound})"
                        flagged |= result == "worse"
                elif bound is not None and not new:
                    over = spread > bound and name != "setup_s"
                    line += f" (bound {bound}{', OVER' if over else ''})"
                    flagged |= over
                print(line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
