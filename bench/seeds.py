"""Run bench/run.py once per seed and summarize each metric across seeds.

Usage, from the root of a source checkout:

    python3 bench/seeds.py --workload oracle-exact --seeds 1-10 --seconds 25

For every metric it prints the median of the per-run values, their
quartiles (statistics.quantiles, n=4) and the spread, the quartile distance
over the median. The summary is also written to
.bench_out/seeds-<workload>-trace<t>.json. Runs are sequential; a run that
is not correct stops the loop.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    per_metric, runs = {}, []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if not result or not result["correct"]:
            print(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: run failed")
        runs.append({"seed": seed, **result})
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                per_metric.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if v["value"] is not None), flush=True)

    summary = {name: summarize(values) for name, values in per_metric.items()}
    for name, s in summary.items():
        spread = s.get("spread")
        print(f"{args.workload} {name}: median {s['median']:.4g} "
              f"(n={s['n']}, spread {spread if spread is None else round(spread, 4)})")
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"seeds-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "summary": summary, "runs": runs}, fh, indent=1)


if __name__ == "__main__":
    main()
