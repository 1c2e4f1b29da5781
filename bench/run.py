"""Benchmark of what a robinstrip user waits for, checked answer by answer.

    python3 bench/run.py --workload {point,sweep_a,oracle} --seed N \
        --seconds S --trace {0,1}

One run is one process and a closed loop: it calls robinstrip.cli.main in
process, one operation after the other, in whole rounds (see
workloads.py) until S seconds of operations have passed.  Each operation
is timed on its own; its answer is read back and checked against bounds
computed without the solver (checks.py) after the loop, outside every
timed region.  Outputs go to bench/out/, which git ignores.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: setup_s (median of three fresh interpreters, each
timed from its start until its first operation could begin), op_s.p50
(median wall time of the operations that succeeded) and peak_rss_mb
(peak resident memory of this process).  With --trace 1 the run makes
one cycle through the workload's strata, whatever S is, with the
per-layer wrappers of tracing.py installed, and reports the per-layer
metrics instead, as means per successful operation.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3

sys.path.insert(0, SRC)
try:
    import robinstrip.cli as cli  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import robinstrip from {SRC}: {exc}")
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"robinstrip was imported from {cli.__file__}, not from {SRC}")

from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, argvs, check_answer, cycle, read_answer, round_ops  # noqa: E402


class OpTimeout(Exception):
    """Raised in the main thread when an operation outlives its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Result:
    op: Op
    status: str                     # "ok", "timeout", "exit N" or a read error
    seconds: float
    answer: object = None
    fails: list = field(default_factory=list)


def run_op(op: Op, run_dir: str, main, tracer: Tracer | None) -> Result:
    out_dir = os.path.join(run_dir, op.key)
    os.makedirs(out_dir)
    calls = argvs(op, out_dir)
    stdouts, stderr = [], io.StringIO()
    status = "ok"
    if tracer is not None:
        tracer.begin_op(op.key)
    if op.time_limit is not None:
        signal.setitimer(signal.ITIMER_REAL, op.time_limit)
    t0 = time.perf_counter()
    try:
        for argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(stderr):
                code = main(argv)
            stdouts.append(buf.getvalue())
            if code != 0:
                status = f"exit {code}: {stderr.getvalue().strip()}"
                break
    except OpTimeout:
        status = "timeout"
    finally:
        if op.time_limit is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(status == "ok", seconds)
    result = Result(op, status, seconds)
    if status == "ok":
        try:
            result.answer = read_answer(op, out_dir, stdouts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.status = f"unreadable output: {exc!r}"
    return result


def measure(workload: str, seed: int, seconds: float, tracer: Tracer | None,
            run_dir: str) -> list[Result]:
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    results = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in round_ops(workload, seed, r):
            results.append(run_op(op, run_dir, main, tracer))
        r += 1
        if tracer is not None:
            if r == cycle(workload):
                return results
        elif time.perf_counter() - start >= seconds:
            return results


def setup_probe(args) -> float:
    """Seconds from the start of a fresh interpreter running this script
    until its first operation could begin."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
         "--setup-probe", str(t0)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    round_ops(args.workload, args.seed, 0)     # input generation is part of set-up
    if args.setup_probe is not None:
        print(repr((time.monotonic_ns() - args.setup_probe) / 1e9))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    signal.signal(signal.SIGALRM, _on_alarm)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        results = measure(args.workload, args.seed, args.seconds, tracer, run_dir)
        answers = {res.op.key: res.answer for res in results if res.status == "ok"}
        for res in results:
            if res.status == "ok":
                res.fails = check_answer(res.op, res.answer, answers)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [res for res in results if res.status == "ok" and not res.fails]
    for res in results:
        for msg in ([res.status] if res.status != "ok" else []) + res.fails:
            print(f"{args.workload} {res.op.key} {res.op.well}: {msg}", file=sys.stderr)
    if not good:
        print("no operation succeeded", file=sys.stderr)
        return 1

    if tracer is not None:
        for res, op in zip(results, tracer.ops):
            op["ok"] = res.status == "ok" and not res.fails
        values = tracer.metrics()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s.p50": {"value": statistics.median(res.seconds for res in good), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    summary = {
        "correct": not any(res.fails for res in results),
        "attempted": len(results),
        "failed": len(results) - len(good),
        "metrics": metrics,
    }
    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} attempted, "
          f"{summary['failed']} failed, correct={summary['correct']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
