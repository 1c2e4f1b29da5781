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


def adaptive_simpson(f, lo: float, hi: float) -> float:
    """Integrate a smooth callable by composite Simpson with doubling.

    Starts from 32 panels and doubles until two consecutive levels agree
    to 1e-8 (relative, with an absolute floor for near-zero integrals).
    Raises ConvergenceError after 16 doublings.
    """
    if hi <= lo:
        return 0.0

    def simpson(npanels: int) -> float:
        x = np.linspace(lo, hi, 2 * npanels + 1)
        y = np.asarray(f(x), dtype=float)
        h = (hi - lo) / (2 * npanels)
        return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())

    npanels = _SIMPSON_PANELS
    prev = simpson(npanels)
    for _ in range(_SIMPSON_DOUBLINGS):
        npanels *= 2
        cur = simpson(npanels)
        if abs(cur - prev) <= _SIMPSON_REL_TOL * max(abs(cur), 1e-300) + 1e-300:
            return cur
        prev = cur
    raise ConvergenceError(
        f"Simpson rule did not reach relative tolerance {_SIMPSON_REL_TOL:g} "
        f"within {_SIMPSON_DOUBLINGS} doublings on [{lo:g}, {hi:g}]"
    )
