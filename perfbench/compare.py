#!/usr/bin/env python3
"""Compare two sets of benchmark results, base against change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Both files are repeat.py outputs (one JSON line per run). For every
workload found in both, prints the end-to-end metrics (trace 0 runs) with
the median of each side, the change as a share of the base median
(positive = worse, in the metric's direction), the bound from
BENCHMARK.json and a verdict; then the per-layer metrics (trace 1 runs),
with the same deltas and no bound. A verdict is "unresolved" when the
base runs' own spread (q3 - q1) / median is wider than the bound.
Exits with code 1 when an end-to-end metric is worse by more than its
bound, or the share of failed operations differs. Standard library only.
"""

import argparse
import sys

from repeat import by_workload, load_results, metric_specs, quartiles, \
    read_benchmark


def worse_share(base, change, better):
    """How much worse `change` is than `base`, as a share of base."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return -delta if better == "higher" else delta


def compare_table(base, change, specs, with_bounds):
    regressions = []
    for workload in sorted(set(base) & set(change)):
        b, c = base[workload], change[workload]
        b_fail = sum(f for f, _, _ in b["shares"]) / max(
            1, sum(a for _, a, _ in b["shares"]))
        c_fail = sum(f for f, _, _ in c["shares"]) / max(
            1, sum(a for _, a, _ in c["shares"]))
        print(f"\n{workload}: {len(b['shares'])} base runs, "
              f"{len(c['shares'])} change runs, failed share "
              f"{b_fail:.6f} -> {c_fail:.6f}")
        if b_fail != c_fail:
            regressions.append(f"{workload}: failed share changed")
        print(f"  {'metric':40} {'unit':>8} {'base':>12} {'change':>12} "
              f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
        for name in b["metrics"]:
            if name not in c["metrics"]:
                print(f"  {name:40} missing from the change runs")
                continue
            spec = specs.get(name, {})
            q1, b_med, q3 = quartiles(b["metrics"][name])
            _, c_med, _ = quartiles(c["metrics"][name])
            spread = (q3 - q1) / abs(b_med) if b_med else 0.0
            worse = worse_share(b_med, c_med, spec.get("better", "lower"))
            bound = spec.get("bound") if with_bounds else None
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "unresolved (base spread over bound)"
                elif worse > bound:
                    verdict = "WORSE beyond bound"
                    regressions.append(f"{workload} {name}")
                elif worse < -spread:
                    verdict = "better"
                else:
                    verdict = "within bound"
            print(f"  {name:40} {spec.get('unit', ''):>8} {b_med:12.6g} "
                  f"{c_med:12.6g} {worse:+9.3f} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    specs = metric_specs(read_benchmark())
    base = load_results(args.base)
    change = load_results(args.change)

    print("== end-to-end (trace 0 runs) ==")
    regressions = compare_table(by_workload(base, 0), by_workload(change, 0),
                                specs, with_bounds=True)
    print("\n== per layer (trace 1 runs) ==")
    compare_table(by_workload(base, 1), by_workload(change, 1), specs,
                  with_bounds=False)
    if regressions:
        print("\nregressions: " + "; ".join(regressions))
        sys.exit(1)


if __name__ == "__main__":
    main()
