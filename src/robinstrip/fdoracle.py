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
the keep rule accepts nothing (sector_floor, again from 1D tridiagonals);
on a well whose Neumann cap is 1 that is the antisymmetric sector.

A solved block is the separable alpha0 operator, diagonal in the basis
Vx (x) Qy (fast diagonalisation, Lynch, Rice and Thomas, Numer. Math. 6
(1964) 185), less (alpha0 - alpha1) 2/hy on its p = a/hx inner wall
nodes.  Its eigenvalues below the alpha0 spectrum are the roots of a p x
p capacitance matrix (Buzbee, Dorr, George and Golub, SIAM J. Numer.
Anal. 8 (1971) 722) whose inertia counts them, each pair checked by
applying the block's 5-point stencil to it.  No solve assembles a
matrix: assemble builds the CSR block only for the tests and the bench's
size counts.  The Richardson step between two grids assumes order 2 (the
order observed so far is 0.90-0.99, so its error bar is optimistic), and
the oracle shares none of the mode matching machinery it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct, dst
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh, eigvalsh_tridiagonal, null_space

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


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An assembled sector block: a symmetric positive-semidefinite CSR
    matrix with 5-point sparsity, and its dimension.  Only the tests and
    bench/tracing.py call assemble, and the latter reads both fields."""

    dimension: int
    matrix: sp.csr_matrix


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


def _folded_tx(grid: FdGrid, sector: ParitySector) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of Tx folded onto the nodes x >= 0 of the
    symmetric sector (row 0 the half-weight node on x = 0) or x > 0 of the
    antisymmetric one (Dirichlet at x = 0); the last row is the one next
    to the Dirichlet row at x = L."""
    symmetric = sector is ParitySector.SYMMETRIC
    n = (grid.nx + 1) // 2 - (0 if symmetric else 1)
    diag = np.full(n, 2.0)
    off = -np.ones(n - 1)
    if symmetric:
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
    """The lowest eigenvalue of a symmetric tridiagonal."""
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


def _stencil(config: WellConfig, grid: FdGrid,
             sector: ParitySector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetric FD operator of one x-parity sector on the y-even half
    of the grid, for the coupling profile alpha(x) = alpha1 on |x| < a,
    alpha0 outside (a node exactly on the jump gets alpha0): A = Tx (x) I
    + I (x) Ty + diag(alpha(x)) (x) diag(walls) with the folded Tx and Ty
    of the module docstring (Dirichlet at x = L) and walls = (2/hy, 0, ...,
    0), as its 5-point stencil: the main diagonal (x rows, y rows), the x
    coupling ex and the y coupling ey.  alpha is classified by integer
    offset, so the grid needs a node at x = 0 (nx odd) and a/hx an integer
    within 1e-9 (as make_grid ensures); any other grid is a
    ContractError."""
    inner = _inner_rows(config, grid, sector)
    tx, ex = _folded_tx(grid, sector)
    alpha_x = np.where(np.arange(tx.size) < inner, config.alpha1, config.alpha0).astype(float)
    ty, ey = _folded_ty(grid, even=True)
    walls = np.zeros(ty.size)
    walls[0] = 2.0 / grid.hy
    return (ty[None, :] + tx[:, None]) + alpha_x[:, None] * walls[None, :], ex, ey


def _apply(main: np.ndarray, ex: np.ndarray, ey: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A u for grid values u shaped like main, from the stencil of A."""
    out = main * u
    out[1:] += ex[:, None] * u[:-1]
    out[:-1] += ex[:, None] * u[1:]
    out[:, 1:] += ey * u[:, :-1]
    out[:, :-1] += ey * u[:, 1:]
    return out


def _norm_inf(main: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> float:
    """||A||_inf from the stencil of A: the largest entry of |A| 1 (main > 0)."""
    return float(_apply(main, np.abs(ex), np.abs(ey), np.ones_like(main)).max())


def assemble(config: WellConfig, grid: FdGrid, sector: ParitySector) -> SparseOperator:
    """The operator of _stencil(config, grid, sector) as a CSR matrix, y the
    fast index.  The oracle never builds it (lowest_eigenpairs applies the
    stencil); it is the reference the tests and the bench's size counts
    read."""
    main, ex, ey = _stencil(config, grid, sector)
    nx, ny = main.shape
    # the y coupling stops at each column's end
    ey_cols = np.tile(np.append(ey, 0.0), nx)[:-1]
    ex_cols = np.repeat(ex, ny)
    A = sp.diags([ex_cols, ey_cols, main.ravel(), ey_cols, ex_cols], [-ny, -1, 0, 1, ny],
                 format="csr")
    return SparseOperator(dimension=A.shape[0], matrix=A)


def y_odd_floor(config: WellConfig, grid: FdGrid) -> float:
    """Lower bound on every eigenvalue of the grid's operator on y-odd
    functions (either x sector): the lowest eigenvalue of the folded y-odd
    Ty + min(alpha0, alpha1) walls."""
    ty, ey = _folded_ty(grid, even=False)
    ty[0] += min(config.alpha0, config.alpha1) * 2.0 / grid.hy
    return _lowest(ty, ey)


def sector_floor(config: WellConfig, grid: FdGrid, sector: ParitySector) -> float:
    """Lower bound on every eigenvalue of assemble(config, grid, sector) and
    on every value lowest_eigenpairs can return for it, from a discrete
    Neumann cut at |x| = a.

    Removing the x edge between offsets m - 1 and m (m = a/hx; the node on
    the jump is on the alpha0 side) removes the positive semidefinite term
    (u_(m-1) - u_m)^2/hx^2 of the form, so A >= A_cut; the W^(-1/2)
    similarity keeps the order, and the half-weight node on x = 0 (m = 1,
    symmetric sector) loses 2/hx^2, every other end 1/hx^2.  A_cut is the
    direct sum of an inner (alpha1) and an outer (alpha0) Kronecker sum, so
    its lowest eigenvalue is the smaller of lambda_min(Tx_block) +
    lambda_min(Ty + alpha_block walls) over the two blocks.  When the
    antisymmetric sector has no inner node (m = 1) nothing is cut.  The
    bound is lowered by _RESIDUAL_TOL ||A||_inf: lowest_eigenpairs puts
    each value it returns within that distance of the spectrum, and it
    also covers the rounding of the four tridiagonal eigenvalues."""
    p = _inner_rows(config, grid, sector)
    tx, ex = _folded_tx(grid, sector)
    ty, ey = _folded_ty(grid, even=True)
    wall = 2.0 / grid.hy
    # ||A||_inf: a row of Tx or Ty sums to at most (3 + sqrt 2)/h^2 in absolute value
    norm = ((3.0 + _SQRT2) * (grid.hx**-2 + grid.hy**-2)
            + max(config.alpha0, config.alpha1) * wall)
    if p > 0:
        tx[p - 1] -= (2.0 if p == 1 and sector is ParitySector.SYMMETRIC else 1.0) / grid.hx**2
        tx[p] -= 1.0 / grid.hx**2
    floor = np.inf
    for alpha, t, e in ((config.alpha1, tx[:p], ex[:p - 1]), (config.alpha0, tx[p:], ex[p:])):
        if t.size:
            ty_alpha = ty.copy()
            ty_alpha[0] += alpha * wall
            floor = min(floor, _lowest(t, e) + _lowest(ty_alpha, ey))
    return floor - _RESIDUAL_TOL * norm


def _vx(coef: np.ndarray, sector: ParitySector, axis: int = 0,
        transpose: bool = False) -> np.ndarray:
    """Vx @ coef (Vx^T @ coef if transpose) along axis, where column k of
    the orthogonal Vx is the eigenvector of the folded Tx for its k-th
    eigenvalue: the orthonormal DCT-II (Vx) and DCT-III (Vx^T) in the
    symmetric sector, the self-inverse orthonormal DST-I in the
    antisymmetric one."""
    if sector is ParitySector.SYMMETRIC:
        return dct(coef, type=3 if transpose else 2, norm="ortho", axis=axis)
    return dst(coef, type=1, norm="ortho", axis=axis)


def _separable_basis(config: WellConfig, grid: FdGrid,
                     sector: ParitySector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eigenvalues lam_x of the folded Tx, and the eigenvalues lam_y
    and orthonormal eigenvectors Qy (columns, row 0 the wall) of the folded
    y-even Ty + alpha0 walls, all ascending: the alpha0 operator is
    (Vx (x) Qy) diag(lam_x (+) lam_y) (Vx (x) Qy)^T.  lam_x =
    4 sin^2(theta_k/2)/hx^2 with theta_k = (2k + 1) pi/(2n) on the n
    symmetric-sector rows (the x-even modes of the Dirichlet second
    difference on 2n - 1 nodes) and theta_k = (k + 1) pi/(n + 1) on the n
    antisymmetric ones."""
    n = (grid.nx + 1) // 2 - (0 if sector is ParitySector.SYMMETRIC else 1)
    k = np.arange(n)
    theta = ((2 * k + 1) * np.pi / (2 * n) if sector is ParitySector.SYMMETRIC
             else (k + 1) * np.pi / (n + 1))
    ty, ey = _folded_ty(grid, even=True)
    ty[0] += config.alpha0 * 2.0 / grid.hy
    return (2.0 * np.sin(0.5 * theta) / grid.hx) ** 2, *eigh_tridiagonal(ty, ey)


def _capacitance(g: np.ndarray, sector: ParitySector, p: int) -> np.ndarray:
    """R diag(g) R^T, R = Vx[:p]: Toeplitz plus (symmetric sector: Vx[i, a]
    = f_i cos(i theta_a), f_0^2 = 1/n, else 2/n) or minus (Vx[i, a] =
    sqrt(2/(n + 1)) sin((i + 1) theta_a)) Hankel in C(m) = sum_a g_a cos(m
    theta_a), one DCT of g, extended by its symmetry in m."""
    n, i = g.size, np.arange(p)
    if sector is ParitySector.SYMMETRIC:
        cm = 0.5 * dct(g, type=2)
        cm = np.r_[cm, 0.0, -cm[:0:-1]]             # C(2n - m) = -C(m)
        f = np.sqrt(np.where(i == 0, 1.0, 2.0) / n)
        return 0.5 * np.outer(f, f) * (cm[abs(i[:, None] - i)] + cm[i[:, None] + i])
    cm = 0.5 * dct(np.r_[0.0, g, 0.0], type=1)
    cm = np.r_[cm, cm[-2:0:-1]]                     # C(2n + 2 - m) = C(m)
    return (cm[abs(i[:, None] - i)] - cm[i[:, None] + i + 2]) / (n + 1)


def lowest_eigenpairs(config: WellConfig, grid: FdGrid,
                      sector: ParitySector) -> list[tuple[float, np.ndarray]]:
    """Every eigenpair of assemble(config, grid, sector) below top, the
    lowest eigenvalue of its alpha0 operator: eigenvalues ascending,
    vectors orthonormal grid values with the largest entry positive.

    In the basis Vx (x) Qy of _separable_basis the block is D0 - c U U^T:
    D0 = lam_x (+) lam_y, c = (alpha0 - alpha1) 2/hy, U = R^T (x) (row 0 of
    Qy), R = Vx[:p] (the p inner wall nodes); for c <= 0 or p = 0 it has
    nothing below top.  Else lambda < top is an eigenvalue iff N(lambda) =
    I/c - U^T (D0 - lambda)^(-1) U = R diag(h) R^T is singular (Golub, SIAM
    Rev. 15 (1973) 318), and N has as many negative eigenvalues as lie
    below lambda (Haynsworth inertia).  h_a = (1 + k1 phi_a)/(c (1 + k0
    phi_a)), k = 2 alpha/hy, phi_a = e_0^T (Ty - lambda + lam_x[a])^(-1)
    e_0, cancels no digit against 1/c however hard the wall.  h_0 has a
    pole at top, so the count below top is 1 plus the negative eigenvalues
    of N(top) without it on the complement of R[:, 0].  Root j of the j-th
    eigenvalue nu of N comes from Newton steps on nu ~ alpha - beta/(top -
    lambda), exact at the pole, bracketed by the counts from the alpha1
    operator's lowest eigenvalue up, to a step below the rounding of nu;
    its vector is (D0 - lambda)^(-1) U s, s the eigenvector of nu.  A step
    is one p x p eigh, 4 to 7 a root: the cost grows as count p^3.  Each
    pair must satisfy ||A v - lambda v|| <= 1e-8 ||A||_inf, both sides
    taken from the block's stencil, with no matrix built.
    """
    lam_x, lam_y, qy = _separable_basis(config, grid, sector)
    p = _inner_rows(config, grid, sector)
    if not config.alpha1 < config.alpha0 or p == 0:
        return []
    n, top = lam_x.size, lam_x[0] + lam_y[0]
    ty, ey = _folded_ty(grid, even=True)
    tau, vy = eigh_tridiagonal(ty, ey)
    w = vy[0] ** 2
    k0, k1 = (2.0 * alpha / grid.hy for alpha in (config.alpha0, config.alpha1))

    def terms(lam: float) -> tuple[np.ndarray, np.ndarray]:
        r = 1.0 / (tau[None, :] + (lam_x[:, None] - lam))
        phi = r @ w
        den = 1.0 + k0 * phi
        return (1.0 + k1 * phi) / ((k0 - k1) * den), -((r * r) @ w) / den**2

    h = terms(top)[0]
    h[0] = 0.0
    q = null_space(_vx(np.eye(n, 1), sector)[:p].T)       # the complement of R[:, 0]
    count = 1 + int(np.sum(eigvalsh(q.T @ _capacitance(h, sector, p) @ q) < 0.0))
    ty[0] += k1
    lam = lam_x[0] + _lowest(ty, ey)
    seen, roots, coefs = [(lam, 0)], [], []
    for _ in range(64 * count):
        h, dh = terms(lam)
        nu, s = eigh(_capacitance(h, sector, p), subset_by_index=(0, count - 1))
        rs = _vx(np.pad(s, ((0, n - p), (0, 0))), sector, transpose=True)
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
            coefs.append(rs[:, j, None] * qy[0] / (lam_x[:, None] + lam_y - lam))
        if len(roots) == count:
            break
        lo = max(at for at, below in seen if below <= j)
        hi = min([top] + [at for at, below in seen if below > j])
        lam = new if lo < new < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(f"FD eigensolver: eigenvalue {len(roots) + 1} of {count} below "
                             f"{top!r} not resolved in {64 * count} capacitance solves")
    main, ex, ey = _stencil(config, grid, sector)
    norm_a = _norm_inf(main, ex, ey)
    pairs = []
    for j, (lam, coef) in enumerate(zip(roots, coefs)):
        u = _vx(coef, sector) @ qy.T
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
    (lowest_eigenpairs) by index.  Each pair is extrapolated by the order-2
    rule lambda + (lambda_f - lambda_c)/3 and kept below E_1(alpha0) -
    margin with margin = 3 (discretization estimate + exp(-k_1 L)
    domain-truncation bound).  If the y-odd floor of either grid could pass
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
    out = {}
    for sector in ParitySector:
        # a kept lambda_f < E_1(alpha0) lies above the floor, and for
        # alpha1 >= alpha0 at or above top
        if not config.alpha1 < config.alpha0 or sector_floor(config, grids[-1], sector) >= E1_out:
            out[sector] = []
            continue
        tops = [sum(lam[0] for lam in _separable_basis(config, grid, sector)[:2]) for grid in grids]
        if not tops[-1] > E1_out:
            raise NumericalError(f"finest grid's lowest alpha0 value {tops[-1]!r} is not above "
                                 f"E_1(alpha0) = {E1_out!r}; refine the grid or shorten L")
        coarse, fine = ([lam for lam, _ in lowest_eigenpairs(config, grid, sector)]
                        for grid in grids)
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
