"""Finite-difference cross-check on a truncated strip.

Independent verification path for the mode-matching solver: discretize
-Laplace on [-L, L] x [0, d] with the 5-point stencil, the Robin walls
-d_y psi + alpha(x) psi = 0 (y = 0) and d_y psi + alpha(x) psi = 0
(y = d) eliminated through symmetric ghost points, and a Dirichlet or
Neumann closure at x = +-L.  The wall rows carry half trapezoid weights
(mass W = diag(1/2, 1, ..., 1, 1/2) per column); the similarity by
W^(-1/2) gives an ordinary symmetric matrix with the same spectrum, a
Kronecker sum of 1D operators in which each wall row's diagonal doubles
and its coupling carries sqrt(2) = (1/2)^(-1/2).  Everything is second
order, so two grids and a Richardson step give an eigenvalue estimate
with a defensible error bar, and the oracle shares none of the mode
matching machinery it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConfigError, ContractError, NumericalError
from .modematch import WellConfig, neumann_state_cap
from .transverse import transversal_eigenvalues

_CLOSURES = ("dirichlet", "neumann")
_MAX_UNKNOWNS = 2**21


@dataclass(frozen=True)
class FdGrid:
    """Tensor grid on [-L, L] x [0, d]: nx interior x columns (the closure
    rows at x = +-L are eliminated), ny y rows including both walls."""

    L: float
    nx: int
    ny: int
    hx: float
    hy: float
    closure: str = "dirichlet"

    def __post_init__(self):
        if self.closure not in _CLOSURES:
            raise ConfigError(f"closure must be one of {_CLOSURES}, got {self.closure!r}")
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
    """Symmetric positive-semidefinite sparse matrix with 5-point sparsity."""

    dimension: int
    matrix: sp.csr_matrix


def make_grid(config: WellConfig, L: float, h: float, closure: str = "dirichlet") -> FdGrid:
    """Build a grid with target spacing h, snapped so the coupling jump at
    |x| = a falls exactly on a grid line (hx = a/ceil(a/h)) and the
    half-length on a multiple of hx.  Above 2^21 unknowns (twice the d/128
    grid at L = 8d; gigabytes to factorise) it raises ConfigError."""
    if not (h > 0.0) or not np.isfinite(h):
        raise ConfigError(f"h must be positive and finite, got {h!r}")
    m = int(np.ceil(config.a / h))
    hx = config.a / m
    half = int(round(L / hx))
    if half <= m:
        raise ConfigError("truncation half-length must exceed the well half-width")
    ny1 = int(round(config.d / h))
    if (2 * half - 1) * (ny1 + 1) > _MAX_UNKNOWNS:
        raise ConfigError(f"grid with h={h!r}, L={L!r} exceeds {_MAX_UNKNOWNS} unknowns")
    return FdGrid(L=half * hx, nx=2 * half - 1, ny=ny1 + 1,
                  hx=hx, hy=config.d / ny1, closure=closure)


def assemble(config: WellConfig, grid: FdGrid) -> SparseOperator:
    """Assemble the symmetric FD operator for the coupling profile
    alpha(x) = alpha1 on |x| < a, alpha0 outside (a node exactly on the
    jump gets alpha0): A = Tx (x) I + I (x) Ty + diag(alpha(x)) (x) diag(walls)
    with Tx = (-1, 2, -1)/hx^2 (end diagonals 1/hx^2 for the Neumann
    closure), Ty = (-1, 2, -1)/hy^2 but -sqrt(2)/hy^2 on the two wall
    couplings, and walls = (2/hy, 0, ..., 0, 2/hy).  alpha is classified by
    integer offset, so a/hx must be an integer within 1e-9 (as make_grid
    ensures); any other grid is a ContractError."""
    if abs(grid.hy * (grid.ny - 1) - config.d) > 1e-9 * config.d:
        raise ConfigError("grid hy/ny inconsistent with the strip width d")
    m = config.a / grid.hx
    if abs(m - round(m)) > 1e-9:
        raise ContractError(f"a/hx = {m!r}: the jump at |x| = a must fall on a grid line")
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    offs = np.arange(1, nx + 1) - (nx + 1) // 2
    alpha_x = np.where(np.abs(offs) < round(m), config.alpha1, config.alpha0)
    tx = np.full(nx, 2.0 / hx**2)
    if grid.closure == "neumann":
        # mirror fold: end rows become (psi_1 - psi_2)/hx^2, exact for
        # x-constant modes and still positive semidefinite
        tx[[0, -1]] = 1.0 / hx**2
    ex = np.full(nx - 1, -1.0 / hx**2)
    ey = -np.r_[np.sqrt(2.0), np.ones(ny - 3), np.sqrt(2.0)] / hy**2
    walls = np.r_[2.0 / hy, np.zeros(ny - 2), 2.0 / hy]
    A = sp.kronsum(sp.diags([ey, np.full(ny, 2.0 / hy**2), ey], [-1, 0, 1]),
                   sp.diags([ex, tx, ex], [-1, 0, 1]), format="csr")
    A = A + sp.kron(sp.diags(alpha_x), sp.diags(walls), format="csr")
    return SparseOperator(dimension=nx * ny, matrix=A)


def lowest_eigenpairs(op: SparseOperator, count: int,
                      shift: float) -> list[tuple[float, np.ndarray]]:
    """The count smallest eigenpairs by shift-invert Lanczos, eigenvalues
    ascending, vectors orthonormal with the largest entry positive.

    shift must sit below the spectrum (the matrices here are positive
    semidefinite, so any shift <= 0 or below the known lower bound works);
    each pair is verified to satisfy ||A v - lambda v|| <= 1e-8 ||A||_inf.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    if count > op.dimension - 2:
        raise ContractError("count too large for the operator dimension")
    try:
        vals, vecs = eigsh(op.matrix, k=count, sigma=shift, which="LM",
                           v0=np.ones(op.dimension))
    except ArpackNoConvergence as exc:
        raise NumericalError(f"sparse eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    norm_a = float(np.max(np.abs(op.matrix).sum(axis=1)))
    pairs = []
    for j in range(count):
        v = vecs[:, j]
        resid = float(np.linalg.norm(op.matrix @ v - vals[j] * v))
        if resid > 1e-8 * norm_a:
            raise NumericalError(f"eigenpair {j} residual {resid:.3e} exceeds 1e-8 ||A||")
        if v[np.argmax(np.abs(v))] < 0.0:
            v = -v
        pairs.append((float(vals[j]), v))
    return pairs


def oracle_bound_states(config: WellConfig, L: float, refinements: int,
                        h0: float | None = None, closure: str = "dirichlet") -> list[float]:
    """Richardson-extrapolated FD eigenvalues confidently below the
    continuum threshold E_1(alpha0).

    Builds grids h0, h0/2, ..., h0/2^(refinements-1) (h0 defaults to d/64)
    before solving any, so an oversized one fails at once; extrapolates
    each tracked eigenvalue from the two finest grids by the order-2 rule
    lambda + (lambda_f - lambda_c)/3, and keeps values below E_1(alpha0) -
    margin with margin = 3 (discretization estimate + exp(-k_1 L)
    domain-truncation bound).  An empty list is a valid result: no state
    is resolvable at this resolution, not an error."""
    if not L >= 4.0 * max(config.a, config.d):
        raise ContractError("need L >= 4 max(a, d) for a meaningful truncation")
    if refinements < 2:
        raise ContractError("refinements must be >= 2")
    if h0 is None:
        h0 = config.d / 64.0
    E1_in = float(transversal_eigenvalues(config.inner, 1)[0])
    E1_out = float(transversal_eigenvalues(config.outer, 1)[0])
    k = max(2, neumann_state_cap(config) + 2)
    grids = [make_grid(config, L, h0 / 2**j, closure=closure) for j in range(refinements)]
    per_grid = []
    for grid in grids:
        op = assemble(config, grid)
        pairs = lowest_eigenpairs(op, min(k, op.dimension - 2), shift=0.5 * E1_in)
        per_grid.append(np.array([lam for lam, _ in pairs]))
    coarse, fine = per_grid[-2], per_grid[-1]
    out = []
    for lc, lf in zip(coarse, fine):
        lam = lf + (lf - lc) / 3.0
        err_est = abs(lf - lc) / 3.0
        k1 = np.sqrt(max(E1_out - lam, 0.0))
        margin = 3.0 * (err_est + np.exp(-k1 * L))
        if lam < E1_out - margin:
            out.append(float(lam))
    return sorted(out)
