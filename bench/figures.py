"""Run every workload and print the reference figures of bench/README.md.

    python3 bench/figures.py [--seeds 1 2 3] [--seconds S]

For each workload and seed: one untraced run (the end-to-end metrics,
with their median and quartiles over the seeds, and the attempted and
failed operations), then one traced run.  The per-layer metrics shown are
those of the first seed.  The tracing overhead is the traced
cli.op_s.p50 over the untraced op_s.p50 of the same seed, minus one,
median over the seeds; on a machine whose speed drifts by several percent
it resolves only an overhead larger than that drift.  S defaults to
run_seconds of BENCHMARK.json.  Runs are made one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()

    for wl in (w["name"] for w in bench["workloads"]):
        runs, traced_runs = [], []
        for seed in args.seeds:
            runs.append(run(wl, seed, args.seconds, 0))
            traced_runs.append(run(wl, seed, args.seconds, 1))
        traced = traced_runs[0]
        print(f"\n### {wl}\n")
        print("| run | attempted | failed | correct |")
        print("|---|---|---|---|")
        for seed, res in zip(args.seeds, runs):
            print(f"| seed {seed} | {res['attempted']} | {res['failed']} | {res['correct']} |")
        for seed, res in zip(args.seeds, traced_runs):
            print(f"| traced, seed {seed} | {res['attempted']} | {res['failed']} | {res['correct']} |")
        print("\n| metric | unit | median | q1 | q3 |")
        print("|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            print(f"| {m['name']} | {m['unit']} | {statistics.median(vals):.4g} "
                  f"| {q1:.4g} | {q3:.4g} |")
        ratios = [t["metrics"]["cli.op_s.p50"]["value"] / u["metrics"]["op_s.p50"]["value"] - 1.0
                  for u, t in zip(runs, traced_runs)]
        print(f"\ntracing overhead on op_s.p50, median over seeds: {statistics.median(ratios):+.1%} "
              f"(per seed: {', '.join(f'{r:+.1%}' for r in ratios)})\n")
        print("| per-layer metric | unit | per operation |")
        print("|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| {name} | {m['unit']} | {m['value']:.4g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
