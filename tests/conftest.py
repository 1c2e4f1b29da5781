"""Test-local references shared by the test modules: transversal roots by
bisection on the parity factors of the dispersion, and mode overlaps by a
Gauss-Legendre rule built here, nothing of the package's level tables or
quadrature; the variational form Q by plain 2D quadrature, which does
read the package's level table, trial profile and Gauss-Legendre panels but
skips the separable reduction that q_form relies on; the Neumann cap on
the bound-state count; a mode-matching scan of the whole window, with no
Neumann floor; an FD sector block assembled as a CSR matrix, which the
package never builds, and its lowest eigenvalue by ARPACK, not the
package's solver."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from robinstrip import (BumpProfile, ContractError, WellConfig, transversal_eigenvalues,
                        transversal_levels)
from robinstrip import modematch, transverse
from robinstrip.fdoracle import _stencil
from robinstrip.quadrature import composite_gl
from robinstrip.variational import trial_scale


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


def q_form_direct(config: WellConfig, bump: BumpProfile, n: int) -> float:
    """Q[psi_n] by direct 2D quadrature of h[psi_n] - E_1(alpha0)||psi_n||^2
    on the truncated domain [-s n, s n] x [0, d], 64-point Gauss-Legendre
    panels split at the kinks: no separable reduction, no eigen-identity.
    Cross-validates q_form."""
    if n < 1:
        raise ContractError("n must be >= 1")
    a, d = config.a, config.d
    sn, pn = bump.support * n, bump.plateau * n
    knots = sorted({v for v in (-a, a, -pn, pn) if -sn < v < sn})
    x, wx = composite_gl(-sn, sn, knots=tuple(knots))
    y, wy = composite_gl(0.0, d)

    level = transversal_levels(config.outer, 1)
    E1 = float(level.energy[0])
    chi = level.chi(y)[0]
    chi_p = level.chi_deriv(y)[0]
    chi0, chid = (float(v) for v in level.chi(np.array([0.0, d]))[0])

    phi = trial_scale(bump, n, x)
    phi_p = bump.derivative(x / n) / n**1.5
    alpha_x = np.where(np.abs(x) < a, config.alpha1, config.alpha0)

    grad_sq = phi_p[:, None] ** 2 * chi[None, :] ** 2 + phi[:, None] ** 2 * chi_p[None, :] ** 2
    norm_sq = phi[:, None] ** 2 * chi[None, :] ** 2
    bulk = wx @ (grad_sq - E1 * norm_sq) @ wy
    walls = wx @ (alpha_x * phi**2) * (chi0**2 + chid**2)
    return float(bulk + walls)


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An assembled sector block: a symmetric positive-semidefinite CSR
    matrix with 5-point sparsity, and its dimension."""

    dimension: int
    matrix: sp.csr_matrix


def assemble(config, grid, sector) -> SparseOperator:
    """The operator of fdoracle._stencil(config, grid, sector) as a CSR
    matrix, y the fast index: the reference the oracle's matrix-free solve
    is checked against."""
    main, ex, ey = _stencil(config, grid, sector)
    nx, ny = main.shape
    # the y coupling stops at each column's end
    ey_cols = np.tile(np.append(ey, 0.0), nx)[:-1]
    ex_cols = np.repeat(ex, ny)
    A = sp.diags([ex_cols, ey_cols, main.ravel(), ey_cols, ex_cols], [-ny, -1, 0, 1, ny],
                 format="csr")
    return SparseOperator(dimension=A.shape[0], matrix=A)


def lowest_fd_value(config, grid, sector) -> float:
    """The lowest eigenvalue of assemble(config, grid, sector), by
    shift-invert Lanczos about 0 (the block is positive definite).  A
    constant coupling has nothing below the alpha0 operator's lowest value,
    so lowest_eigenpairs returns no pair for it."""
    A = assemble(config, grid, sector).matrix
    return float(eigsh(A.tocsc(), k=1, sigma=0.0, which="LM", v0=np.ones(A.shape[0]))[0][0])


@pytest.fixture
def newton_levels(monkeypatch):
    """The (cross-section, n_max) of every _newton_levels call, after
    emptying the level tables."""
    calls, solve = [], transverse._newton_levels

    def counting(cs, n_max):
        calls.append((cs, n_max))
        return solve(cs, n_max)

    transverse._tables.cache_clear()
    monkeypatch.setattr(transverse, "_newton_levels", counting)
    return calls


def admitted_alpha(alpha_d, d):
    """alpha_d / d for alpha_d in [1e-7, 1e15], moved inward an ulp at a
    time while alpha * d rounds outside the admitted range."""
    alpha = alpha_d / d
    while alpha * d > transverse._MAX_ALPHA_D:
        alpha = np.nextafter(alpha, 0.0)
    while alpha * d < transverse._MIN_ALPHA_D:
        alpha = np.nextafter(alpha, np.inf)
    return float(alpha)


@pytest.fixture
def scanned_channels(monkeypatch):
    """The channel count of every table modematch._scan_roots scans."""
    sizes, scan = [], modematch._scan_roots

    def recording(table, *args):
        sizes.append(table.overlaps.shape[0])
        return scan(table, *args)

    monkeypatch.setattr(modematch, "_scan_roots", recording)
    return sizes


def neumann_state_cap(config: WellConfig) -> int:
    """Rigorous upper bound on the total bound-state count (both sectors):
    cutting the strip by Neumann lines at x = +-a decouples a finite well
    segment whose below-threshold eigenvalues are E_1(alpha1) +
    (j pi / 2a)^2, j >= 0, while the outer half-strips contribute nothing
    below E_1(alpha0).  The count of those segment values below
    E_1(alpha0) bounds the true count from above."""
    E1_in = float(transversal_eigenvalues(config.inner, 1)[0])
    E1_out = float(transversal_eigenvalues(config.outer, 1)[0])
    if not E1_in < E1_out:
        return 0
    return 1 + int(np.floor(np.sqrt(E1_out - E1_in) * 2.0 * config.a / np.pi
                            * (1.0 - 1e-15)))


def full_window_roots(table, a, parity, points=400):
    """Roots of one sector's scan matrix over the whole window: the sign of
    det on a grid of points energies over the solver's window (400, the
    solver's first grid up to N = 204), each sign change narrowed by
    the solver's Illinois steps one sector at a time.  The solver starts
    each sector's grid at its Neumann floor and steps all sectors of a
    table together; on a sector with no root below the floor both give the
    same bits."""
    win = modematch._window(table)
    if win is None:
        return []
    grid = np.linspace(*win, points)
    sg, lg = modematch._scan_slogdet(table, a, parity, grid)
    j = np.flatnonzero(sg[:-1] * sg[1:] < 0.0)
    x, ell, sl = grid[[j, j + 1]], lg[[j, j + 1]], sg[j]
    kept, widths = np.full(j.size, -1), np.full((3, j.size), np.inf)
    while True:
        w = x[1] - x[0]
        t = x[0] + w / (1.0 + np.exp(np.minimum(ell[1] - ell[0], 700.0)))
        act = np.flatnonzero(w > 8.0 * np.spacing(x[1]))
        if not act.size:
            break
        lo, hi, w = x[0, act], x[1, act], w[act]
        t = np.where(w > 0.5 * widths[2, act], 0.5 * (lo + hi),
                     np.clip(t[act], np.nextafter(lo, hi), np.nextafter(hi, lo)))
        st, lt = modematch._scan_slogdet(table, a, parity, t)
        keep = (st == sl[act]).astype(int)
        again = keep == kept[act]
        ell[keep[again], act[again]] -= np.log(2.0)
        x[1 - keep, act], ell[1 - keep, act] = t, lt
        x[:, act[st == 0.0]] = t[st == 0.0]
        kept[act] = keep
        widths[:, act] = np.vstack([w, widths[:2, act]])
    return np.sort(np.concatenate([grid[sg == 0.0], t])).tolist()
