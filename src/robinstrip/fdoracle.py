"""Finite-difference cross-check on a truncated strip.

Independent verification path for the mode-matching solver: discretize
-Laplace on [-L, L] x [0, d] with the 5-point stencil, the Robin walls
-d_y psi + alpha(x) psi = 0 (y = 0) and d_y psi + alpha(x) psi = 0
(y = d) eliminated through symmetric ghost points, and Dirichlet rows at
x = +-L, the one closure.  The wall rows carry half trapezoid weights (mass
W = diag(1/2, 1, ..., 1, 1/2) per column); the similarity by W^(-1/2) gives
an ordinary symmetric matrix with the same spectrum, a Kronecker sum of 1D
operators in which each wall row's diagonal doubles and its coupling
carries sqrt(2) = (1/2)^(-1/2).

The well is symmetric under x -> -x and y -> d - y, so that matrix is
block-diagonal in the orthonormal parity bases, and each block is again
a Kronecker sum, of folded 1D operators on the kept half:

- x, symmetric sector: nodes x >= 0, the node at x = 0 with half weight
  (diagonal 2/hx^2, coupling -sqrt(2)/hx^2 to its neighbour);
- x, antisymmetric sector: nodes x > 0, Dirichlet at x = 0;
- y, even: nodes y <= d/2, a half-weight node on y = d/2 (coupling
  -sqrt(2)/hy^2), or, when y = d/2 falls between two rows, a cell-centred
  mirror (last diagonal 1/hy^2).

The oracle solves at most the two y-even blocks, the ones that hold the
bound states.  The y-odd blocks are shown to hold nothing it could keep,
without solving them: Tx >= 0, alpha(x) >= min(alpha0, alpha1) and the
wall term is >= 0, so every y-odd eigenvalue is at least the lowest one
of the 1D tridiagonal Ty_odd + min(alpha) walls_odd.  A y-even block is
skipped too when a discrete Neumann cut at |x| = a (the x edge across
the jump dropped) puts its whole spectrum at or above E_1(alpha0), where
the keep rule accepts nothing (sector_floor, from 1D spectra);
on a well whose Neumann cap is 1 that is the antisymmetric sector.

A solved block is the separable alpha0 operator, diagonal in the basis
Vx (x) Qy (fast diagonalisation, Lynch, Rice and Thomas, Numer. Math. 6
(1964) 185), less (alpha0 - alpha1) 2/hy on its p = a/hx inner wall
nodes.  Its eigenvalues below the alpha0 spectrum are the roots of a p x
p capacitance matrix (Buzbee, Dorr, George and Golub, SIAM J. Numer.
Anal. 8 (1971) 722) whose inertia counts them, each pair checked by
applying the block's 5-point stencil to it.  The wall entry of the
wall-free Ty's resolvent, which the matrix is built from, has a closed
form (a lattice Green's function), so a Newton step costs O(n) before its
p x p eigensolve; the count is the inertia of one LDL^T factorisation,
and both, like the bisection for a tridiagonal's lowest eigenvalue, are
direct LAPACK calls (dsytrf, dsyevr, dstebz) whose info and outputs are
checked.  The 1D y spectra of a grid
are set up once per oracle_bound_states call and shared by its floors,
tops and both sectors' solves, and the fine grid's Newton steps start at
the coarse grid's roots.  No solve assembles a matrix, and the module
does not load scipy.sparse.  The Richardson step between
two grids assumes order 2 (the order observed so far is 0.90-0.99, so its
error bar is optimistic), and the oracle shares none of the mode matching
machinery it checks.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, dst
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz, dsyevr, dsyevr_lwork, dsytrf

from .errors import ConfigError, ContractError, NumericalError
from .modematch import ParitySector, WellConfig
from .transverse import transversal_eigenvalues

_SQRT2 = np.sqrt(2.0)
# lowest_eigenpairs accepts a pair when ||A v - lambda v|| <= this * ||A||_inf.
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FdGrid:
    """Tensor grid on [-L, L] x [0, d]: nx interior x columns (the
    Dirichlet rows at x = +-L are eliminated), ny y rows including both
    walls."""

    L: float
    nx: int
    ny: int
    hx: float
    hy: float

    def __post_init__(self):
        for name in ("L", "hx", "hy"):
            v = getattr(self, name)
            if not (v > 0.0) or not np.isfinite(v):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if self.nx < 16 or self.ny < 16:
            raise ConfigError(f"grid too coarse: nx={self.nx}, ny={self.ny} (need >= 16)")
        if abs(self.hx - 2.0 * self.L / (self.nx + 1)) > 1e-9 * self.hx:
            raise ConfigError("hx inconsistent with L and nx (expect hx = 2L/(nx+1))")


def make_grid(config: WellConfig, L: float, h: float) -> FdGrid:
    """Build a grid with target spacing h, snapped so the coupling jump at
    |x| = a falls exactly on a grid line (hx = a/ceil(a/h)) and the
    half-length on a multiple of hx.  A sector solve above 2^27 doubles
    (1 GiB) is a ConfigError: 64 n + 16 p^2 for n unknowns (A, the
    separable terms, the vectors) and p = a/hx (the capacitance matrices),
    or (b + 66) n, b = (ny - 1)//2 + 1, the bound of a band factor once
    held, kept so that no grid refused before is accepted now."""
    if not (h > 0.0) or not np.isfinite(h):
        raise ConfigError(f"h must be positive and finite, got {h!r}")
    # over 2^27 nodes on an axis is over the bound below, whose counts may not fit an int
    if max(config.a, config.d, L) / h > 2**27:
        raise ConfigError(f"grid h={h!r}, L={L!r}: a sector solve needs more than 2^27 doubles")
    m = int(np.ceil(config.a / h))
    hx = config.a / m
    half = int(round(L / hx))
    if half <= m:
        raise ConfigError("truncation half-length must exceed the well half-width")
    ny1 = int(round(config.d / h))
    n = half * (ny1 // 2 + 1)
    cells = max(64 * n + 16 * m * m, (ny1 // 2 + 66) * n)
    if cells > 2**27:
        raise ConfigError(f"grid h={h!r}, L={L!r}: a sector solve needs {cells:.3g} doubles > 2^27")
    return FdGrid(L=half * hx, nx=2 * half - 1, ny=ny1 + 1, hx=hx, hy=config.d / ny1)


def _x_rows(grid: FdGrid, sector: ParitySector) -> int:
    """The number of folded Tx rows of the sector."""
    return (grid.nx + 1) // 2 - (0 if sector is ParitySector.SYMMETRIC else 1)


def _folded_tx(grid: FdGrid, sector: ParitySector) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Tx folded onto the nodes x >= 0 of the
    symmetric sector (row 0 the half-weight node on x = 0) or x > 0 of the
    antisymmetric one (Dirichlet at x = 0); the last row is the one next
    to the Dirichlet row at x = L."""
    n = _x_rows(grid, sector)
    diag = np.full(n, 2.0)
    off = -np.ones(n - 1)
    if sector is ParitySector.SYMMETRIC:
        off[0] = -_SQRT2
    return diag / grid.hx**2, off / grid.hx**2


def _folded_ty(grid: FdGrid, even: bool) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Ty folded onto the rows y <= d/2, for
    the y-even (even=True) or y-odd functions; row 0 is the wall."""
    ny1 = grid.ny - 1
    diag = np.full(ny1 // 2 + 1, 2.0)
    off = -np.ones(ny1 // 2)
    off[0] = -_SQRT2
    if ny1 % 2 == 1:
        # y = d/2 lies midway between the last kept row and its mirror
        diag[-1] = 1.0 if even else 3.0
    elif even:
        off[-1] = -_SQRT2
    else:
        diag, off = diag[:-1], off[:-1]
    return diag / grid.hy**2, off / grid.hy**2


def _inner_rows(config: WellConfig, grid: FdGrid, sector: ParitySector) -> int:
    """The number of folded Tx rows with |x| < a (alpha1), for a grid that
    fits the well as _stencil requires."""
    if abs(grid.hy * (grid.ny - 1) - config.d) > 1e-9 * config.d:
        raise ConfigError("grid hy/ny inconsistent with the strip width d")
    m = config.a / grid.hx
    if abs(m - round(m)) > 1e-9 or grid.nx % 2 == 0:
        raise ContractError(f"a/hx = {m!r}, nx = {grid.nx}: x = 0 and |x| = a "
                            "must fall on grid lines")
    return round(m) - (0 if sector is ParitySector.SYMMETRIC else 1)


def _lowest(diag: np.ndarray, off: np.ndarray) -> float:
    """The lowest eigenvalue of a symmetric tridiagonal, by bisection
    (LAPACK dstebz, called directly)."""
    _, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info != 0 or not np.isfinite(w[0]):
        raise NumericalError(f"tridiagonal eigenvalue bisection failed (info {info})")
    return float(w[0])


def _alpha_x(config: WellConfig, grid: FdGrid, sector: ParitySector) -> np.ndarray:
    """alpha on the folded Tx rows: alpha1 on |x| < a, alpha0 outside (a
    node exactly on the jump gets alpha0)."""
    inner = np.arange(_x_rows(grid, sector)) < _inner_rows(config, grid, sector)
    return np.where(inner, config.alpha1, config.alpha0).astype(float)


def _stencil(config: WellConfig, grid: FdGrid,
             sector: ParitySector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric FD operator of one x-parity sector on the y-even half
    of the grid, for the coupling profile _alpha_x: A = Tx (x) I + I (x) Ty
    + diag(alpha(x)) (x) diag(walls) with the folded Tx and Ty of the
    module docstring (Dirichlet at x = L) and walls = (2/hy, 0, ..., 0), as
    its 5-point stencil: the main diagonal (x rows, y rows), the x coupling
    ex and the y coupling ey.  alpha is classified by integer offset, so
    the grid needs a node at x = 0 (nx odd) and a/hx an integer within
    1e-9 (as make_grid ensures); any other grid is a ContractError."""
    alpha_x = _alpha_x(config, grid, sector)
    tx, ex = _folded_tx(grid, sector)
    ty, ey = _folded_ty(grid, even=True)
    main = ty[None, :] + tx[:, None]
    main[:, 0] += alpha_x * (2.0 / grid.hy)
    return main, ex, ey


def _apply(main: np.ndarray, ex: np.ndarray, ey: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for grid values u shaped like main, from the stencil of A."""
    out = main * u
    out[1:] += ex[:, None] * u[:-1]
    out[:-1] += ex[:, None] * u[1:]
    out[:, 1:] += ey * u[:, :-1]
    out[:, :-1] += ey * u[:, 1:]
    return out


def _abs_row_sums(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The row sums of |T| for a tridiagonal T with a positive diagonal."""
    out = diag.copy()
    out[1:] -= off
    out[:-1] -= off
    return out


def _norm_inf(config: WellConfig, grid: FdGrid, sector: ParitySector) -> float:
    """||A||_inf of _stencil(config, grid, sector) from its 1D parts, with
    no pass over the grid: row (i, j) of |A| sums to X_i + Y_j + alpha_x[i]
    walls_j, X and Y the row sums of |Tx| and |Ty| (off-diagonals < 0), and
    walls is nonzero on the wall row j = 0 alone."""
    x = _abs_row_sums(*_folded_tx(grid, sector))
    y = _abs_row_sums(*_folded_ty(grid, even=True))
    wall = (x + _alpha_x(config, grid, sector) * (2.0 / grid.hy)).max() + y[0]
    return float(max(wall, x.max() + y[1:].max()))


def y_odd_floor(config: WellConfig, grid: FdGrid) -> float:
    """Lower bound on every eigenvalue of the grid's operator on y-odd
    functions (either x sector): the lowest eigenvalue of the folded y-odd
    Ty + min(alpha0, alpha1) walls."""
    ty, ey = _folded_ty(grid, even=False)
    ty[0] += min(config.alpha0, config.alpha1) * 2.0 / grid.hy
    return _lowest(ty, ey)


@dataclass(frozen=True, eq=False)
class _YSpectra:
    """The y spectra of one grid, which its sector floors, tops and solves
    share: the eigenvalues lam_y and orthonormal eigenvectors qy (columns,
    row 0 the wall) of the folded y-even Ty + alpha0 walls, ascending, and
    the lowest eigenvalue low1 of Ty + alpha1 walls."""

    lam_y: np.ndarray
    qy: np.ndarray
    low1: float


def _y_spectra(config: WellConfig, grid: FdGrid) -> _YSpectra:
    """The _YSpectra of grid, for both x sectors: one tridiagonal
    eigendecomposition and one lowest eigenvalue.  Ty itself needs none:
    the wall entry of its resolvent has a closed form (_inverse_corner)."""
    ty, ey = _folded_ty(grid, even=True)
    ty0 = ty.copy()
    ty0[0] += config.alpha0 * 2.0 / grid.hy
    lam_y, qy = eigh_tridiagonal(ty0, ey)
    ty[0] += 2.0 * config.alpha1 / grid.hy
    return _YSpectra(lam_y=lam_y, qy=qy, low1=_lowest(ty, ey))


def _inverse_corner(mu: np.ndarray, m: int, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """psi = 1/phi and dpsi/dmu for phi(mu) = e_0^T (Ty - mu)^(-1) e_0, Ty
    the folded y-even Ty of a grid with m = ny - 1 intervals across the
    strip, at every mu < (2 sin(pi/2m)/hy)^2, the first zero of phi.

    phi is the wall entry of the resolvent of the Neumann second
    difference, a lattice Green's function in closed form (Economou,
    Green's Functions in Quantum Physics, ch. 5).  With s = mu hy^2,
    s = -4 sinh^2(kappa/2) below the spectrum of Ty and s = 4 sin^2(theta/2)
    in it:

        phi = hy^2 coth(m kappa/2) / (2 sinh kappa),
        phi = -hy^2 cot(m theta/2) / (2 sin theta),

    the spectral sum over tau_k = 4 sin^2(pi k/m)/hy^2 with wall weights
    2/m (1/m at k = 0 and k = m/2) summed.  psi has no pole at mu = 0
    (tau_0), where it is 0 with slope -m."""
    s = mu * hy**2
    psi, dpsi = np.empty_like(s), np.empty_like(s)
    below = s < 0.0
    kappa = 2.0 * np.arcsinh(0.5 * np.sqrt(-s[below]))
    decay = -m * kappa
    q = np.exp(decay)
    tanh, sinh = -np.expm1(decay) / (1.0 + q), np.sinh(kappa)
    psi[below] = 2.0 * sinh * tanh / hy**2
    dpsi[below] = -(np.cosh(kappa) * tanh / sinh + 2.0 * m * q / (1.0 + q) ** 2)
    theta = 2.0 * np.arcsin(0.5 * np.sqrt(s[~below]))
    tan, sin = np.tan(0.5 * m * theta), np.sin(theta)
    # tan(m theta/2)/sin(theta) -> m/2 at theta = 0
    ratio = np.divide(tan, sin, out=np.full_like(tan, 0.5 * m), where=sin != 0.0)
    psi[~below] = -2.0 * sin * tan / hy**2
    dpsi[~below] = -(np.cos(theta) * ratio + 0.5 * m * (1.0 + tan**2))
    return psi, dpsi


def _dirichlet_neumann(rows: int, h: float) -> float:
    """The lowest eigenvalue of the second difference on rows nodes,
    Dirichlet past one end and a Neumann cut (diagonal 1/h^2) at the other:
    4 sin^2(theta/2)/h^2, theta = pi/(2 rows + 1)."""
    return (2.0 * np.sin(0.5 * np.pi / (2 * rows + 1)) / h) ** 2


def sector_floor(config: WellConfig, grid: FdGrid, sector: ParitySector,
                 spectra: _YSpectra | None = None) -> float:
    """Lower bound on every eigenvalue of the block _stencil(config, grid,
    sector) and on every value lowest_eigenpairs can return for it, from a
    discrete Neumann cut at |x| = a; spectra is the grid's _y_spectra,
    built here if not given.

    Removing the x edge between offsets m - 1 and m (m = a/hx; the node on
    the jump is on the alpha0 side) removes the positive semidefinite term
    (u_(m-1) - u_m)^2/hx^2 of the form, so A >= A_cut; the W^(-1/2)
    similarity keeps the order.  A_cut is the direct sum of an inner
    (alpha1) and an outer (alpha0) Kronecker sum, so its lowest eigenvalue
    is the smaller of lambda_min(Tx_block) + lambda_min(Ty + alpha_block
    walls) over the two blocks.  The Tx blocks are second differences with
    a Neumann end at the cut: the outer one Dirichlet next to x = L, the
    inner one Dirichlet at x = 0 (antisymmetric sector) or Neumann there too
    (symmetric sector: its lowest eigenvalue is 0, the constant).  When the
    antisymmetric sector has no inner node (m = 1) nothing is cut.  The
    bound is lowered by _RESIDUAL_TOL ||A||_inf: lowest_eigenpairs puts
    each value it returns within that distance of the spectrum, and it
    also covers the rounding of the two tridiagonal eigenvalues."""
    p = _inner_rows(config, grid, sector)
    ys = _y_spectra(config, grid) if spectra is None else spectra
    # ||A||_inf: a row of Tx or Ty sums to at most (3 + sqrt 2)/h^2 in absolute value
    norm = ((3.0 + _SQRT2) * (grid.hx**-2 + grid.hy**-2)
            + max(config.alpha0, config.alpha1) * 2.0 / grid.hy)
    if p == 0:
        floor = _lam_x(grid, sector)[0] + ys.lam_y[0]
    else:
        outer = _x_rows(grid, sector) - p
        inner = 0.0 if sector is ParitySector.SYMMETRIC else _dirichlet_neumann(p, grid.hx)
        floor = min(inner + ys.low1, _dirichlet_neumann(outer, grid.hx) + ys.lam_y[0])
    return floor - _RESIDUAL_TOL * norm


def _vx(coef: np.ndarray, sector: ParitySector, n: int | None = None,
        transpose: bool = False) -> np.ndarray:
    """Vx @ coef (Vx^T @ coef if transpose) along axis 0, coef padded with
    zero rows to n, where column k of the orthogonal Vx is the eigenvector
    of the folded Tx for its k-th eigenvalue: the orthonormal DCT-II (Vx)
    and DCT-III (Vx^T) in the symmetric sector, the self-inverse
    orthonormal DST-I in the antisymmetric one."""
    if sector is ParitySector.SYMMETRIC:
        return dct(coef, type=3 if transpose else 2, n=n, norm="ortho", axis=0)
    return dst(coef, type=1, n=n, norm="ortho", axis=0)


def _lam_x(grid: FdGrid, sector: ParitySector) -> np.ndarray:
    """The eigenvalues of the folded Tx, ascending, in the order of the
    columns of Vx: 4 sin^2(theta_k/2)/hx^2 with theta_k = (2k + 1) pi/(2n)
    on the n symmetric-sector rows (the x-even modes of the Dirichlet second
    difference on 2n - 1 nodes) and theta_k = (k + 1) pi/(n + 1) on the n
    antisymmetric ones."""
    n = _x_rows(grid, sector)
    k = np.arange(n)
    theta = ((2 * k + 1) * np.pi / (2 * n) if sector is ParitySector.SYMMETRIC
             else (k + 1) * np.pi / (n + 1))
    return (2.0 * np.sin(0.5 * theta) / grid.hx) ** 2


def _capacitance(n: int, sector: ParitySector, p: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map g -> R diag(g) R^T, R = Vx[:p], for g of size n: Toeplitz plus
    (symmetric sector: Vx[i, a] = f_i cos(i theta_a), f_0^2 = 1/n, else 2/n)
    or minus (Vx[i, a] = sqrt(2/(n + 1)) sin((i + 1) theta_a)) Hankel in
    C(m) = sum_a g_a cos(m theta_a), one DCT of g, extended by its symmetry
    in m.  The Toeplitz and Hankel parts are strided views of buffers for C,
    set up here once for every g of a solve, so no p x p index is built."""
    symmetric = sector is ParitySector.SYMMETRIC
    shift = 0 if symmetric else 2
    cm, padded = np.zeros(2 * n + shift), np.zeros(n + 2)
    mirrored = np.empty(2 * p - 1)                  # C(|m|), m = 1 - p, ..., p - 1
    toeplitz = sliding_window_view(mirrored, p)[::-1]
    hankel = sliding_window_view(cm[shift:], p)[:p]
    f = np.sqrt(np.where(np.arange(p) == 0, 1.0, 2.0) / n)
    scale = 0.25 * np.outer(f, f) if symmetric else None

    def capacitance(g: np.ndarray) -> np.ndarray:
        if symmetric:
            cm[:n] = dct(g, type=2)
            cm[n + 1:] = -cm[n - 1:0:-1]            # C(2n - m) = -C(m), C(n) = 0
        else:
            padded[1:-1] = g
            cm[:n + 2] = 0.5 * dct(padded, type=1)
            cm[n + 2:] = cm[n:0:-1]                 # C(2n + 2 - m) = C(m)
        mirrored[:p - 1] = cm[p - 1:0:-1]
        mirrored[p - 1:] = cm[:p]
        return scale * (toeplitz + hankel) if symmetric else (toeplitz - hankel) / (n + 1)
    return capacitance


def _negatives_off(c: np.ndarray, r: np.ndarray, lam: float) -> int:
    """The number of negative eigenvalues of the symmetric c, the
    capacitance matrix at lam, restricted to the complement of r: that of
    (H c H)[1:, 1:], H = I - 2 v v^T/(v^T v) the Householder reflector
    taking r onto the first axis, whose last columns span that complement.
    H c H = c - v u^T - u v^T, one rank-2 update.  The count is the inertia
    of one Bunch-Kaufman LDL^T factorisation (LAPACK dsytrf, called
    directly): a negative 1 x 1 pivot counts one, a 2 x 2 pivot one if its
    determinant is negative, else two if its trace is."""
    v = r.copy()
    v[0] += np.copysign(np.linalg.norm(r), r[0])
    vv = v @ v
    y = c @ v * (2.0 / vv)
    u = (y - (v @ y) / vv * v)[1:]
    v = v[1:]
    ldu, ipiv, info = dsytrf(c[1:, 1:] - np.outer(v, u) - np.outer(u, v), lower=1)
    d, e = np.diag(ldu), np.diag(ldu, -1)
    if info < 0 or not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NumericalError(f"FD eigensolver: capacitance matrix at lambda={lam!r} "
                             f"has no finite LDL^T factorisation (info {info})")
    negatives, k = 0, 0
    while k < d.size:
        if ipiv[k] > 0:
            negatives += int(d[k] < 0.0)
            k += 1
        else:
            det = d[k] * d[k + 1] - e[k] ** 2
            negatives += 1 if det < 0.0 else 2 * int(d[k] + d[k + 1] < 0.0)
            k += 2
    return negatives


def lowest_eigenpairs(config: WellConfig, grid: FdGrid, sector: ParitySector,
                      spectra: _YSpectra | None = None,
                      start: Sequence[float] = ()) -> list[tuple[float, np.ndarray]]:
    """Every eigenpair of the block _stencil(config, grid, sector) below
    top, the lowest eigenvalue of its alpha0 operator: eigenvalues ascending,
    vectors orthonormal grid values with the largest entry positive.
    spectra is the grid's _y_spectra, built here if not given; start[j],
    if given, is a guess at eigenvalue j, such as a coarser grid's.

    In the basis Vx (x) Qy (_lam_x, _YSpectra) the block is D0 - c U U^T:
    D0 = lam_x (+) lam_y, c = (alpha0 - alpha1) 2/hy, U = R^T (x) (row 0 of
    Qy), R = Vx[:p] (the p inner wall nodes); for c <= 0 or p = 0 it has
    nothing below top.  Else lambda < top is an eigenvalue iff N(lambda) =
    I/c - U^T (D0 - lambda)^(-1) U = R diag(h) R^T is singular (Golub, SIAM
    Rev. 15 (1973) 318), and N has as many negative eigenvalues as lie
    below lambda (Haynsworth inertia).  h_a = (1 + k1 phi_a)/(c (1 + k0
    phi_a)), k = 2 alpha/hy, phi_a = e_0^T (Ty - lambda + lam_x[a])^(-1)
    e_0, cancels no digit against 1/c however hard the wall; phi_a and its
    derivative come from the closed form of _inverse_corner, O(n) a step,
    through psi = 1/phi: h_a = (psi_a + k1)/(c (psi_a + k0)).  h_0 has a
    pole at top, so the count below top is 1 plus the negative eigenvalues
    of N(top) without it on the complement of R[:, 0], the inertia of one
    LDL^T factorisation (_negatives_off).  Root j of the j-th eigenvalue nu
    of N comes from Newton steps on nu ~ alpha - beta/(top - lambda), exact
    at the pole, bracketed by the counts from the alpha1 operator's lowest
    eigenvalue up, to a step below the rounding of nu; they begin at
    start[j] when it lies inside the bracket, else where the last step
    left them.  Its vector is (D0 - lambda)^(-1) U s, s the eigenvector of
    nu.  A step is one direct LAPACK dsyevr for the count lowest pairs of
    N, its workspace sized once per call; a failed or non-finite solve is
    a NumericalError naming lambda.  On the bench's oracle wells a root
    takes about 5.5 steps from the alpha1 value, 4 from the root of a grid
    twice as coarse, so the cost grows as count p^3.  Each pair must
    satisfy ||A v - lambda v|| <= 1e-8 ||A||_inf, both sides taken from the
    block's stencil, with no matrix built.
    """
    p = _inner_rows(config, grid, sector)
    if not config.alpha1 < config.alpha0 or p == 0:
        return []
    ys = _y_spectra(config, grid) if spectra is None else spectra
    lam_x = _lam_x(grid, sector)
    n, top = lam_x.size, lam_x[0] + ys.lam_y[0]
    k0, k1 = (2.0 * alpha / grid.hy for alpha in (config.alpha0, config.alpha1))
    capacitance = _capacitance(n, sector, p)

    def terms(lam: float, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """h and dh/dlambda on lam_x[first:]."""
        psi, dpsi = _inverse_corner(lam - lam_x[first:], grid.ny - 1, grid.hy)
        den = psi + k0
        return (psi + k1) / ((k0 - k1) * den), dpsi / den**2

    h = np.zeros(n)                                   # h_0, the pole at top, left out
    h[1:] = terms(top, 1)[0]
    count = 1 + _negatives_off(capacitance(h), _vx(np.eye(n, 1), sector)[:p, 0], top)
    work, iwork, _ = dsyevr_lwork(p, lower=1)
    lam = lam_x[0] + ys.low1                         # the alpha1 operator's lowest value
    seen, roots, coefs = [(lam, 0)], [], []
    tried = 0                                         # the last root whose start was weighed
    if start and lam < start[0] < top:
        lam = start[0]
    for _ in range(64 * count):
        h, dh = terms(lam)
        nu, s, found, _, info = dsyevr(capacitance(h), range="I", lower=1, iu=count,
                                       lwork=int(work), liwork=iwork, overwrite_a=1)
        nu = nu[:count]
        if info != 0 or found != count or not (np.isfinite(nu).all() and np.isfinite(s).all()):
            raise NumericalError(f"FD eigensolver: capacitance eigensolve at lambda={lam!r} "
                                 f"failed (info {info})")
        rs = _vx(s, sector, n, transpose=True)
        dnu = dh @ rs**2
        seen.append((lam, int(np.sum(nu < 0.0))))
        while len(roots) < count:
            j = len(roots)
            beta = -dnu[j] * (top - lam) ** 2
            alpha = nu[j] + beta / (top - lam)
            new = top - beta / alpha if alpha > 0.0 else lam - nu[j] / dnu[j]
            if abs(new - lam) > 16.0 * np.finfo(float).eps * np.abs(h).max() / -dnu[j] \
                    + 2.0 * np.spacing(lam):
                break
            roots.append(new)
            coefs.append(rs[:, j, None] * ys.qy[0] / (lam_x[:, None] + ys.lam_y - lam))
        if len(roots) == count:
            break
        lo = max(at for at, below in seen if below <= j)
        hi = min([top] + [at for at, below in seen if below > j])
        if tried < j < len(start) and lo < start[j] < hi:
            lam, tried = start[j], j
        else:
            lam = new if lo < new < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(f"FD eigensolver: eigenvalue {len(roots) + 1} of {count} below "
                             f"{top!r} not resolved in {64 * count} capacitance solves")
    main, ex, ey = _stencil(config, grid, sector)
    norm_a = _norm_inf(config, grid, sector)
    pairs = []
    for j, (lam, coef) in enumerate(zip(roots, coefs)):
        u = _vx(coef, sector) @ ys.qy.T
        u /= np.linalg.norm(u)
        resid = float(np.linalg.norm(_apply(main, ex, ey, u) - lam * u))
        if resid > _RESIDUAL_TOL * norm_a:
            raise NumericalError(f"eigenpair {j} residual {resid:.3e} exceeds 1e-8 ||A||")
        v = u.ravel()
        pairs.append((float(lam), v if v[np.argmax(np.abs(v))] > 0.0 else -v))
    return pairs


def _confident(lam: float, err_est: float, E1_out: float, L: float) -> bool:
    """The keep rule: lam < E_1(alpha0) - 3 (err_est + exp(-k_1 L))."""
    k1 = np.sqrt(max(E1_out - lam, 0.0))
    return bool(lam < E1_out - 3.0 * (err_est + np.exp(-k1 * L)))


def oracle_bound_states(config: WellConfig, L: float, refinements: int,
                        h0: float | None = None) -> dict[ParitySector, list[float]]:
    """Richardson-extrapolated FD eigenvalues confidently below the
    continuum threshold E_1(alpha0), ascending, per x-parity sector.

    Builds the two finest grids of h0, h0/2, ..., h0/2^(refinements-1)
    (h0 defaults to d/64) before solving either, so an oversized one fails
    at once, and pairs the eigenvalues of their y-even blocks below top
    (lowest_eigenpairs, each grid's y spectra set up once for both sectors,
    the fine solve started at the coarse values) by index.  Each pair is
    extrapolated by the order-2 rule lambda + (lambda_f - lambda_c)/3 and
    kept below E_1(alpha0) - margin with margin = 3 (discretization
    estimate + exp(-k_1 L) domain-truncation bound).  If the y-odd floor of either grid could pass
    that rule (with a zero discretization estimate), the y-odd blocks
    cannot be excluded and it raises NumericalError.

    A kept lam = lambda_f + (lambda_f - lambda_c)/3 satisfies lam +
    |lambda_f - lambda_c| < E_1(alpha0), so lambda_f < E_1(alpha0): a sector
    with alpha1 >= alpha0, or whose finest-grid sector_floor is at or above
    E_1(alpha0), keeps nothing and is not solved.  In a solved sector, a
    value to keep could hide at or above the finest grid's top if that is
    not above E_1(alpha0), or a fine value's partner at or above the coarse
    top; either is a NumericalError.  An empty sector list is a valid
    result: no state is resolvable at this resolution, not an error."""
    if not L >= 4.0 * max(config.a, config.d):
        raise ContractError("need L >= 4 max(a, d) for a meaningful truncation")
    if refinements < 2:
        raise ContractError("refinements must be >= 2")
    if h0 is None:
        h0 = config.d / 64.0
    E1_out = float(transversal_eigenvalues(config.outer, 1)[0])
    grids = [make_grid(config, L, h0 * 0.5**j) for j in (refinements - 2, refinements - 1)]
    floor = min(y_odd_floor(config, grid) for grid in grids)
    if _confident(floor, 0.0, E1_out, L):
        raise NumericalError(f"y-odd floor {floor!r} could pass the keep rule below "
                             f"E_1(alpha0) = {E1_out!r}; refine the grid or shorten L")
    out = {sector: [] for sector in ParitySector}
    # a kept lambda_f < E_1(alpha0) lies above the floor, and for
    # alpha1 >= alpha0 at or above top
    if not config.alpha1 < config.alpha0:
        return out
    spectra = [_y_spectra(config, grid) for grid in grids]
    for sector in ParitySector:
        if sector_floor(config, grids[-1], sector, spectra[-1]) >= E1_out:
            continue
        tops = [_lam_x(grid, sector)[0] + ys.lam_y[0] for grid, ys in zip(grids, spectra)]
        if not tops[-1] > E1_out:
            raise NumericalError(f"finest grid's lowest alpha0 value {tops[-1]!r} is not above "
                                 f"E_1(alpha0) = {E1_out!r}; refine the grid or shorten L")
        coarse = [lam for lam, _ in lowest_eigenpairs(config, grids[0], sector, spectra[0])]
        fine = [lam for lam, _ in lowest_eigenpairs(config, grids[1], sector, spectra[1],
                                                    coarse)]
        kept = []
        for j, lf in enumerate(fine):
            # past the coarse list the partner is at or above the coarse top,
            # and lam + 3 err_est is least there at max(coarse top, lambda_f)
            lc = coarse[j] if j < len(coarse) else max(tops[0], lf)
            lam = lf + (lf - lc) / 3.0
            if _confident(lam, abs(lf - lc) / 3.0, E1_out, L):
                if j >= len(coarse):
                    raise NumericalError(f"fine-grid value {lf!r} could be kept with no coarse "
                                         f"partner below {tops[0]!r}; refine the grid or shorten L")
                kept.append(float(lam))
        out[sector] = sorted(kept)
    return out
