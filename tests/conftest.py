"""Test-local references shared by the test modules: transversal roots by
bisection on the parity factors of the dispersion, and mode overlaps by a
Gauss-Legendre rule built here, nothing of the package's level tables or
quadrature."""

import numpy as np
from scipy.optimize import brentq


def even_factor(k, cs):
    """alpha cos(kd/2) - k sin(kd/2); vanishes iff k tan(kd/2) = alpha,
    the even-parity (about y = d/2) quantization condition."""
    return cs.alpha * np.cos(k * cs.d / 2) - k * np.sin(k * cs.d / 2)


def odd_factor(k, cs):
    """k cos(kd/2) + alpha sin(kd/2); vanishes iff tan(kd/2) = -k/alpha,
    the odd-parity quantization condition."""
    return k * np.cos(k * cs.d / 2) + cs.alpha * np.sin(k * cs.d / 2)


def factor_roots(cs, n_max):
    """Independent root finder: bisect each parity factor on its own
    tangent branch; level n is even-parity for odd n, odd-parity for even
    n, with k_n in ((n-1) pi/d, n pi/d)."""
    roots = []
    eps = 1e-9
    for n in range(1, n_max + 1):
        lo = (n - 1) * np.pi / cs.d + eps / cs.d
        hi = n * np.pi / cs.d - eps / cs.d
        f = even_factor if n % 2 == 1 else odd_factor
        roots.append(brentq(f, lo, hi, args=(cs,), xtol=1e-15, rtol=1e-15))
    return np.array(roots)


def reference_overlaps(inner, outer, n_max, panels=16):
    """O[m, n] = int chi_{n+1}(inner) chi_{m+1}(outer) for all n_max levels,
    y-odd ones included, from the factor roots, normalized and integrated
    by a composite 64-point Gauss-Legendre rule on (0, d)."""
    d = inner.d
    t, w = np.polynomial.legendre.leggauss(64)
    h = d / panels
    y = (np.arange(panels)[:, None] * h + 0.5 * h * (t + 1.0)).ravel()
    w = np.tile(0.5 * h * w, panels)

    def modes(cs):
        k = factor_roots(cs, n_max)[:, None]
        u = (cs.alpha / k) * np.sin(k * y) + np.cos(k * y)
        return u / np.sqrt((u * u) @ w)[:, None]

    return (modes(outer) * w) @ modes(inner).T
