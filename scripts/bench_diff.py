#!/usr/bin/env python3
"""Compare two benchmark summaries against BENCHMARK.json's bounds.

Usage: scripts/bench_diff.py PARENT.json CHANGE.json [--benchmark FILE]

Both inputs are `bench/suite/run.py --all --summary` outputs (the committed
BENCH_<n>.json files). For every workload and every bounded end-to-end
metric it prints both medians, the relative change, the bound, and one
label:

  worse beyond bound                 the change's median is worse than the
                                     parent's by more than the bound
  unresolved (IQR wider than bound)  either side's interquartile range,
                                     relative to its median, exceeds the
                                     bound, so the medians cannot tell
  ok                                 neither of the above

It only warns: the exit status is always 0, so it is not a gate.
"""
import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def label(parent, change, metric):
    bound = metric["bound"]
    delta = (change["median"] - parent["median"]) / parent["median"]
    worse = delta if metric["better"] == "lower" else -delta
    if worse > bound:
        return delta, "worse beyond bound"
    if max(parent["iqr_over_median"], change["iqr_over_median"]) > bound:
        return delta, "unresolved (IQR wider than bound)"
    return delta, "ok"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args()
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent = json.loads(Path(args.parent).read_text())["workloads"]
    change = json.loads(Path(args.change).read_text())["workloads"]

    print(f"{'workload':<10} {'metric':<12} {'parent':>10} {'change':>10} "
          f"{'delta':>8} {'bound':>6}  label")
    for workload in sorted(set(parent) | set(change)):
        for m in metrics:
            name = m["name"]
            a = parent.get(workload, {}).get(name)
            b = change.get(workload, {}).get(name)
            if a is None or b is None or a["median"] == 0:
                print(f"{workload:<10} {name:<12} {'-':>10} {'-':>10} "
                      f"{'-':>8} {m['bound']:>6.0%}  missing")
                continue
            delta, verdict = label(a, b, m)
            print(f"{workload:<10} {name:<12} {a['median']:>10.4g} "
                  f"{b['median']:>10.4g} {delta:>+8.1%} {m['bound']:>6.0%}"
                  f"  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
