"""Result containers and exporters (CSV, JSON, wavefunction grids).

Floats are serialized with repr(), the shortest decimal that round-trips
binary64, so files are byte-stable across runs and diffs are meaningful.
All text output uses UTF-8 with LF line endings regardless of platform.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError
from .modematch import WavefunctionGrid

CSV_HEADER = "sweep_value,sector,n,lambda,lambda_pi2,bracket_lo,bracket_hi,gap1"


@dataclass(frozen=True)
class SweepRow:
    """One bound state at one sweep point.

    n is the ordinal in the merged (both sectors) spectrum at this sweep
    point; bracket_lo/hi are the Neumann/Dirichlet comparison bounds for
    that ordinal; gap1 is the point's first spectral gap (to the second
    eigenvalue, else to the continuum threshold), repeated on each of the
    point's rows."""

    sweep_value: float
    sector: str
    n: int
    lam: float
    lam_pi2: float
    bracket_lo: float
    bracket_hi: float
    gap1: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows sorted by (sweep value, lambda); may be empty."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        key = [(r.sweep_value, r.lam) for r in self.rows]
        if key != sorted(key):
            raise ContractError("rows must be sorted by (sweep_value, lambda)")


def _fmt(v: float) -> str:
    return repr(float(v))


def sweep_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(",".join((
            _fmt(r.sweep_value), r.sector, str(r.n), _fmt(r.lam), _fmt(r.lam_pi2),
            _fmt(r.bracket_lo), _fmt(r.bracket_hi), _fmt(r.gap1),
        )))
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(sweep_csv(result))


def write_sweep_json(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps([asdict(r) for r in result.rows], indent=2) + "\n")


def write_wavefunction(grid: WavefunctionGrid, path: str) -> None:
    """Header `# nx ny x0 x1 y0 y1 lambda parity`, then one row of ny
    psi values per x sample."""
    x, y = grid.x_samples, grid.y_samples
    head = "# {} {} {} {} {} {} {} {}".format(
        len(x), len(y), _fmt(x[0]), _fmt(x[-1]), _fmt(y[0]), _fmt(y[-1]),
        _fmt(grid.state.lam), grid.state.parity.value,
    )
    lines = [head]
    for row in grid.values:
        lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_wavefunction(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, str]:
    """Inverse of write_wavefunction for uniformly spaced exports (the
    only kind the CLI writes): (x, y, values, lambda, parity)."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 9 or head[0] != "#":
            raise ContractError(f"{path!r} does not look like a wavefunction export")
        nx, ny = int(head[1]), int(head[2])
        x0, x1, y0, y1, lam = (float(v) for v in head[3:8])
        parity = head[8]
        vals = np.loadtxt(fh, ndmin=2)
    if vals.shape != (nx, ny):
        raise ContractError(f"expected {nx} x {ny} values, got {vals.shape}")
    return (np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), vals, lam, parity)
