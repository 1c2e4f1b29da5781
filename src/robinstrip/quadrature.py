"""Quadrature helpers shared across the package.

Everything here is deterministic: fixed node counts, fixed panel splits,
no randomness.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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
