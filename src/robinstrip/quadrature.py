"""Quadrature helpers shared across the package.

Everything here is deterministic: fixed node counts, fixed panel splits,
no randomness.  The adaptive Simpson rule refines by doubling the panel
count until two consecutive levels agree to a relative tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

# Adaptive Simpson: starting panel count, relative agreement between two
# consecutive levels, and the number of doublings allowed.
_SIMPSON_PANELS = 32
_SIMPSON_REL_TOL = 1e-8
_SIMPSON_DOUBLINGS = 16


@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1];
    cached and shared, so both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    for arr in (x, w):
        arr.flags.writeable = False
    return x, w


def composite_gl(lo: float, hi: float, knots=(),
                 max_panel_width: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [lo, hi], 64 per panel.

    The interval is split at every interior knot (so integrand kinks or
    coefficient jumps land on panel boundaries) and long panels are further
    subdivided to at most ``max_panel_width``.
    """
    if hi <= lo:
        return np.empty(0), np.empty(0)
    xs, ws = gauss_legendre(64)
    edges = sorted({lo, hi, *(k for k in knots if lo < k < hi)})
    X, W = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nsub = 1
        if max_panel_width is not None and max_panel_width > 0:
            nsub = max(1, int(np.ceil((b - a) / max_panel_width)))
        for j in range(nsub):
            aa = a + (b - a) * j / nsub
            bb = a + (b - a) * (j + 1) / nsub
            X.append(0.5 * (bb - aa) * xs + 0.5 * (bb + aa))
            W.append(0.5 * (bb - aa) * ws)
    return np.concatenate(X), np.concatenate(W)


def adaptive_simpson(f, lo, hi, *params):
    """Integrate a smooth callable by composite Simpson with doubling.

    Starts from 32 panels and doubles until two consecutive levels agree
    to 1e-8 (relative, with an absolute floor for near-zero integrals).
    Raises ConvergenceError after 16 doublings.  Arrays lo and hi give
    one integral per row, each stopping at its own doubling, and float lo
    and hi one float.  f(x, *params) sees x of shape (rows, points) and
    each 1-D array of params as a (rows, 1) column, for the rows still
    refining.  Row sums run over contiguous copies, so a row has the bits
    of a one-row call.
    """
    scalar = np.ndim(lo) == 0
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    out = np.zeros(lo.shape)
    live = np.flatnonzero(hi > lo)

    def simpson(npanels: int) -> np.ndarray:
        x = np.linspace(lo[live], hi[live], 2 * npanels + 1, axis=-1)
        y = np.asarray(f(x, *(p[live, None] for p in params)), dtype=float)
        h = (hi[live] - lo[live]) / (2 * npanels)
        odd = np.ascontiguousarray(y[:, 1:-1:2]).sum(axis=1)
        even = np.ascontiguousarray(y[:, 2:-2:2]).sum(axis=1)
        return (h / 3.0) * (y[:, 0] + y[:, -1] + 4.0 * odd + 2.0 * even)

    npanels = _SIMPSON_PANELS
    prev = simpson(npanels) if live.size else None
    for _ in range(_SIMPSON_DOUBLINGS):
        if not live.size:
            break
        npanels *= 2
        cur = simpson(npanels)
        done = np.abs(cur - prev) <= _SIMPSON_REL_TOL * np.maximum(np.abs(cur), 1e-300) + 1e-300
        out[live[done]] = cur[done]
        live, prev = live[~done], cur[~done]
    if live.size:
        raise ConvergenceError(
            f"Simpson rule did not reach relative tolerance {_SIMPSON_REL_TOL:g} within "
            f"{_SIMPSON_DOUBLINGS} doublings on [{lo[live[0]]:g}, {hi[live[0]]:g}]")
    return float(out[0]) if scalar else out
