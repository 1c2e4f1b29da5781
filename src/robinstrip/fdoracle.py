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

A solved block is A = Tx (x) I + I (x) (Ty + alpha0 walls) + c
diag(1_(|x|<a)) (x) e_0 e_0^T with c = (alpha1 - alpha0) 2/hy: the
separable alpha0 operator A0 plus a correction of rank p = a/hx (fewer by
one in the antisymmetric sector), one term per inner wall node.  A0 is
diagonal in the orthonormal basis Phi = Vx (x) Qy: Vx is closed form (the
orthonormal DCT-III in the symmetric sector, the DST-I in the
antisymmetric one) and Qy holds the eigenvectors of the folded y-even
tridiagonal Ty + alpha0 walls.  Shift-invert Lanczos runs in that basis
(fast diagonalisation, Lynch, Rice and Thomas, Numer. Math. 6 (1964) 185),
where Phi^T A Phi - sigma I is a positive diagonal plus c U U^T, so each
step is one elementwise division and one p x p capacitance solve
(Buzbee, Dorr, George and Golub, SIAM J. Numer. Anal. 8 (1971) 722).
Only the returned vectors are mapped back to grid values, and each pair
is checked against the assembled matrix.  The Richardson step between two
grids assumes order 2 (the order observed so far is 0.90-0.99, so its
error bar is optimistic), and the oracle shares none of the mode matching
machinery it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct, dst
from scipy.linalg import (LinAlgError, cho_factor, cho_solve, eigh_tridiagonal,
                          eigvalsh_tridiagonal)
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, ContractError, NumericalError
from .modematch import ParitySector, WellConfig, neumann_state_cap
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
    matrix with 5-point sparsity, and its dimension (bench/tracing.py reads
    both fields from what assemble returns)."""

    dimension: int
    matrix: sp.csr_matrix


def make_grid(config: WellConfig, L: float, h: float) -> FdGrid:
    """Build a grid with target spacing h, snapped so the coupling jump at
    |x| = a falls exactly on a grid line (hx = a/ceil(a/h)) and the
    half-length on a multiple of hx.  A sector solve above 2^27 doubles
    (1 GiB: (b + 1) n, b = (ny - 1)//2 + 1, plus 64 n) is a ConfigError.
    The (b + 1) n term once sized a band factor that no solve holds now;
    the bound covers the assembled A, the diagonal of the separable
    operator, eigsh's two n x 20 Lanczos arrays and the returned vectors,
    with the (b + 1) n term to spare."""
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
    cells = (ny1 // 2 + 66) * half * (ny1 // 2 + 1)
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
    fits the well as assemble requires."""
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


def assemble(config: WellConfig, grid: FdGrid, sector: ParitySector) -> SparseOperator:
    """Assemble the symmetric FD operator of one x-parity sector on the
    y-even half of the grid, for the coupling profile alpha(x) = alpha1 on
    |x| < a, alpha0 outside (a node exactly on the jump gets alpha0):
    A = Tx (x) I + I (x) Ty + diag(alpha(x)) (x) diag(walls) with the
    folded Tx and Ty of the module docstring (Dirichlet at x = L) and
    walls = (2/hy, 0, ..., 0).  alpha is classified by integer offset, so
    the grid needs a node at x = 0 (nx odd) and a/hx an integer within
    1e-9 (as make_grid ensures); any other grid is a ContractError."""
    inner = _inner_rows(config, grid, sector)
    tx, ex = _folded_tx(grid, sector)
    alpha_x = np.where(np.arange(tx.size) < inner, config.alpha1, config.alpha0).astype(float)
    ty, ey = _folded_ty(grid, even=True)
    walls = np.zeros(ty.size)
    walls[0] = 2.0 / grid.hy
    # y is the fast index: the y coupling stops at each column's end
    main = ((ty[None, :] + tx[:, None]) + alpha_x[:, None] * walls[None, :]).ravel()
    ey_cols = np.tile(np.append(ey, 0.0), tx.size)[:-1]
    ex_cols = np.repeat(ex, ty.size)
    A = sp.diags([ex_cols, ey_cols, main, ey_cols, ex_cols], [-ty.size, -1, 0, 1, ty.size],
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


def _to_grid(coef: np.ndarray, sector: ParitySector, qy: np.ndarray) -> np.ndarray:
    """Grid values (Vx (x) Qy) coef of coefficient vectors, the rows of coef
    (k, nx_folded * ny_folded), x the slow index."""
    k, ny = coef.shape[0], qy.shape[0]
    return (_vx(coef.reshape(k, -1, ny), sector, axis=1) @ qy.T).reshape(k, -1)


def lowest_eigenpairs(config: WellConfig, grid: FdGrid, sector: ParitySector,
                      count: int, shift: float) -> list[tuple[float, np.ndarray]]:
    """The count smallest eigenpairs of assemble(config, grid, sector) by
    shift-invert Lanczos, eigenvalues ascending, vectors orthonormal grid
    values with the largest entry positive.

    Lanczos runs in the basis Phi = Vx (x) Qy of _separable_basis, where
    Phi^T A Phi - shift I = D + c U U^T: D = lam_x (+) lam_y - shift
    diagonal, c = (alpha1 - alpha0) 2/hy, and column i of U = (row i of
    Vx)^T (x) (row 0 of Qy) for each of the p inner wall nodes.  By
    Woodbury, (D + c U U^T)^(-1) z = D^(-1) z - D^(-1) U S^(-1) U^T D^(-1) z
    with the p x p capacitance matrix S = I/c + U^T D^(-1) U, whose
    Cholesky factor of sign(c) S is taken once.  Either guard is a
    NumericalError: an entry of D <= 0 (shift not below the alpha0
    operator's spectrum) or a failed Cholesky.  For alpha1 < alpha0 the two
    trip exactly when A - shift I is not positive definite; for alpha1 >
    alpha0 the Cholesky cannot fail and the first guard also refuses a
    shift at or above the alpha0 operator's lowest eigenvalue.  Lanczos
    runs to tol 1e-10, only the count returned vectors are mapped to grid
    values, and each pair must satisfy ||A v - lambda v|| <= _RESIDUAL_TOL
    ||A||_inf (1e-8) on the assembled A.
    """
    op = assemble(config, grid, sector)
    if count < 1:
        raise ContractError("count must be >= 1")
    if count > op.dimension - 2:
        raise ContractError("count too large for the operator dimension")
    lam_x, lam_y, qy = _separable_basis(config, grid, sector)
    d = lam_x[:, None] + lam_y[None, :] - shift
    if not d.min() > 0.0:
        raise NumericalError(f"FD eigensolver: shift {shift!r} is not below the spectrum")
    dinv = 1.0 / d
    c = (config.alpha1 - config.alpha0) * 2.0 / grid.hy
    sign = float(np.sign(c))
    p = _inner_rows(config, grid, sector) if c else 0
    rows = _vx(np.eye(lam_x.size, p), sector, transpose=True).T    # Vx[:p], (p, nx)
    q0 = qy[0]
    # U^T D^(-1) U = rows diag(sum_b q0_b^2 / d_ab) rows^T
    cap = (rows * (dinv @ q0**2)) @ rows.T + np.eye(p) / c
    try:
        factor = cho_factor(sign * cap)
    except LinAlgError as exc:
        raise NumericalError(f"FD eigensolver: shift {shift!r} is not below the spectrum") from exc
    wall = q0 * dinv      # D^(-1) (e_a (x) q0) in row a

    def opinv(z):
        y = z.reshape(d.shape) * dinv
        s = sign * cho_solve(factor, rows @ (y @ q0))
        y -= (rows.T @ s)[:, None] * wall
        return y.ravel()

    solve = LinearOperator(op.matrix.shape, dtype=float, matvec=opinv)
    try:
        # in shift-invert mode eigsh reads only the shape and dtype of its A
        vals, coef = eigsh(solve, k=count, sigma=shift, which="LM",
                           v0=np.ones(op.dimension), tol=1e-10, OPinv=solve)
    except ArpackNoConvergence as exc:
        raise NumericalError(f"sparse eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], _to_grid(coef[:, order].T, sector, qy)
    norm_a = float(np.max(np.abs(op.matrix).sum(axis=1)))
    pairs = []
    for j in range(count):
        v = vecs[j]
        resid = float(np.linalg.norm(op.matrix @ v - vals[j] * v))
        if resid > _RESIDUAL_TOL * norm_a:
            raise NumericalError(f"eigenpair {j} residual {resid:.3e} exceeds 1e-8 ||A||")
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        pairs.append((float(vals[j]), v))
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
    at once, and solves their y-even blocks.  Each tracked eigenvalue is
    extrapolated by the order-2 rule lambda + (lambda_f - lambda_c)/3 and
    kept below E_1(alpha0) - margin with margin = 3 (discretization
    estimate + exp(-k_1 L) domain-truncation bound).  If the y-odd floor of
    either grid could pass that rule (with a zero discretization estimate),
    the y-odd blocks cannot be excluded and it raises NumericalError.

    A kept lam = lambda_f + (lambda_f - lambda_c)/3 satisfies lam +
    |lambda_f - lambda_c| < E_1(alpha0), and lambda_f <= lam + |lambda_f -
    lambda_c|/3, so lambda_f < E_1(alpha0).  A sector whose sector_floor on
    the finest grid is at or above E_1(alpha0) therefore keeps nothing: its
    list is empty and neither of its grids is assembled or solved.  An
    empty sector list is a valid result: no state is resolvable at this
    resolution, not an error."""
    if not L >= 4.0 * max(config.a, config.d):
        raise ContractError("need L >= 4 max(a, d) for a meaningful truncation")
    if refinements < 2:
        raise ContractError("refinements must be >= 2")
    if h0 is None:
        h0 = config.d / 64.0
    E1_in, E1_out = (float(transversal_eigenvalues(c, 1)[0]) for c in (config.inner, config.outer))
    k = max(2, neumann_state_cap(config) + 2)
    grids = [make_grid(config, L, h0 * 0.5**j) for j in (refinements - 2, refinements - 1)]
    floor = min(y_odd_floor(config, grid) for grid in grids)
    if _confident(floor, 0.0, E1_out, L):
        raise NumericalError(f"y-odd floor {floor!r} could pass the keep rule below "
                             f"E_1(alpha0) = {E1_out!r}; refine the grid or shorten L")
    out = {}
    for sector in ParitySector:
        # the keep rule implies lambda_f < E_1(alpha0); a finest-grid floor
        # at or above it leaves nothing to keep
        if sector_floor(config, grids[-1], sector) >= E1_out:
            out[sector] = []
            continue
        per_grid = []
        for grid in grids:
            # alpha(x) >= min(alpha0, alpha1): the shift is below every eigenvalue
            pairs = lowest_eigenpairs(config, grid, sector, k, shift=0.5 * min(E1_in, E1_out))
            per_grid.append([lam for lam, _ in pairs])
        kept = []
        for lc, lf in zip(*per_grid):
            lam = lf + (lf - lc) / 3.0
            if _confident(lam, abs(lf - lc) / 3.0, E1_out, L):
                kept.append(float(lam))
        out[sector] = sorted(kept)
    return out
