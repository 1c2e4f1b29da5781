"""Run one robinstrip command in a fresh process and check its time and memory.

    python scripts/within_budget.py SECONDS MEGABYTES SUBCOMMAND [ARG ...]

The command runs as `python -m robinstrip SUBCOMMAND ARG ...` with this
checkout's src/ on PYTHONPATH and one BLAS and OpenMP thread, and is killed
after SECONDS.  It prints the wall time and the child's peak resident
memory, and exits 0 when the command succeeded within SECONDS and MEGABYTES,
1 otherwise.  Each call measures one command: RUSAGE_CHILDREN keeps the
largest peak of all children this process has waited for.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    seconds, megabytes, command = float(argv[0]), float(argv[1]), argv[2:]
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "robinstrip", *command], env=env,
                          timeout=seconds).returncode
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall {wall:.1f} s, peak RSS {rss_mb:.0f} MB, exit {code}")
    return int(code != 0 or wall > seconds or rss_mb > megabytes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
