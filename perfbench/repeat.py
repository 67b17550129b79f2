#!/usr/bin/env python3
"""Run the benchmark repeatedly on one commit and summarise the spread.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--out results.jsonl]
    python3 perfbench/repeat.py --summarise results.jsonl [--trace 0|1]

Each run's result is appended to --out as one JSON line
({"workload", "seed", "trace", "result"}). The summary prints, per
workload and metric, the median, quartiles, min and max over the runs,
and the spread (q3 - q1) / median beside the metric's bound from
BENCHMARK.json. The quartiles are those of statistics.quantiles(n=4).
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(bench):
    """name -> spec dict, end-to-end and per-layer together."""
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for spec in bench[kind]:
            specs[spec["name"]] = dict(spec, kind=kind)
    return specs


def load_results(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records, trace):
    """workload -> metric -> list of values, plus failed/attempted shares."""
    out = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        w = out.setdefault(rec["workload"], {"metrics": {}, "shares": []})
        res = rec["result"]
        w["shares"].append((res["failed"], res["attempted"], res["correct"]))
        for name, m in res["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return out


def summarise(records, trace, specs):
    table = by_workload(records, trace)
    worst = 0.0
    for workload, data in table.items():
        shares = data["shares"]
        failed = sum(f for f, _, _ in shares)
        attempted = sum(a for _, a, _ in shares)
        correct = all(c for _, _, c in shares)
        print(f"\n{workload}: {len(shares)} runs, {failed}/{attempted} "
              f"operations failed, all correct: {correct}")
        print(f"  {'metric':40} {'unit':>8} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name, values in data["metrics"].items():
            spec = specs.get(name, {})
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " <-- over bound/3" if spread > bound / 3 else ""
            print(f"  {name:40} {spec.get('unit', ''):>8} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {min(values):12.6g} "
                  f"{max(values):12.6g} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
    if worst:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")


def main():
    bench = read_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench-results.jsonl")
    parser.add_argument("--summarise", metavar="RESULTS",
                        help="only summarise an existing results file")
    args = parser.parse_args()
    specs = metric_specs(bench)

    if args.summarise:
        summarise(load_results(args.summarise), args.trace, specs)
        return

    records = []
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed}: run failed "
                             f"(exit {proc.returncode})")
                rec = {"workload": workload, "seed": seed,
                       "trace": args.trace, "result": json.loads(lines[-1])}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
                print(f"{workload} seed {seed} done", file=sys.stderr)
    summarise(records, args.trace, specs)


if __name__ == "__main__":
    main()
