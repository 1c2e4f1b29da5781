"""Bound states of the strip with a rectangular coupling well.

The coupling profile is alpha(x) = alpha1 for |x| < a and alpha0 for
|x| >= a (0 < alpha1 <= alpha0 gives an attractive well).  The essential
spectrum starts at E_1(alpha0); bound states live in the window
(E_1(alpha1), E_1(alpha0)).

The solution is expanded in transversal modes on each side of the
interface x = a, separately in the symmetric and antisymmetric sector of
the reflection x -> -x.  Inside the well each channel carries a
cosh/cos (symmetric) or sinh/sin (antisymmetric) axial profile, outside a
decaying exponential exp(-k_m (x - a)).  Value continuity determines the
outer coefficients b = O a from the matrix O of mode overlaps, and derivative
continuity projected on the outer mode family leaves the square system

    C(lambda) a = 0,    C_mn = (L_n(lambda) + k_m) O_mn,

with L_n the logarithmic derivative of the axial profile at x = a
("axial stiffness") and k_m = sqrt(E_m(alpha0) - lambda).  Bound-state
energies are the points of the window where C is singular.

The code never evaluates L_n.  It has poles, and C is near-singular close
to them, where the value-normalized parameterization degenerates; those
fake roots violate the Neumann-bracketing bound on the state count.  The
code builds the column-rescaled C_hat = C diag(V_n s_n) instead, from the
channel boundary value V_n and derivative D_n = L_n V_n, which are entire
functions of lambda, and a smooth positive normalization s_n.  C_hat has
the null space of C and no poles, and it is continuous in lambda below
threshold, so its determinant changes sign exactly across its simple
singular points.  Row m of C and of C_hat is divided by 1 + k_m d, a
pure number at every scale.  A state's reported sigma_min is that of C
with this row weight, recovered by dividing the columns of C_hat by
V_n s_n: V_n is at least 1/2 or a positive expm1 ratio in the evanescent
branch, and the cos or sin of a nonzero double in the oscillatory one, so
never exactly zero.  sigma_min is not a confidence measure: near threshold
det C_hat varies as sqrt(E_1(alpha0) - lambda), so a provable weakly bound
state reports one orders of magnitude larger than a well-bound state at the
same 8-ulp refinement; (alpha0, alpha1, a, d) = (1e12, 1e9, 2, 1) gives
5.9e-9 and (1e9, 1e8, 16, 6) 5.1e-10, against 1e-16 for (20, 5, 0.3, 1).

Only the y-even channels, n = 1, 3, 5, ... <= N, are kept.  chi_n is
even about y = d/2 for odd n and odd for even n, so the overlaps between
the two families vanish and the matrix is exactly block-diagonal.  The
y-odd block cannot be singular in the window, so a state has no y-odd
amplitude: on y-odd functions the operator is bounded below by
E_2(alpha1) > (pi/d)^2 > E_1(alpha0).  The sign of det of the y-even
block is taken on a grid over the window by batched LUs of at most 2^22
doubles each; grid intervals where it changes sign are narrowed together
by Illinois steps to 8 ulp of lambda, one batched LU per step, and each
is a root, since C_hat is continuous.  A sign change finds a root however
narrow its singular-value dip is, which a scan of sigma_min on the grid
does not.  A state's a_coeffs and b_coeffs, of length (N + 1) // 2, hold
the amplitudes of channels 1, 3, 5, ...  The truncation-error companion,
the same scan on the first (N // 2 + 1) // 2 channels, is scanned on first
read of a state's lam_coarse, once per solve; a solve whose estimate nobody
reads runs one scan.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ContractError, NumericalError
from .quadrature import composite_gl
from .transverse import (RobinCrossSection, _Levels, overlap_matrix, transversal_eigenvalues,
                         transversal_levels)

# Gauss-Legendre panels (64 points each) of the residual quadrature on (0, d).
_RESIDUAL_PANELS = 8
# Size guard, 2^27 (1 GiB of doubles), on the scan's scan_points * ((N+1)//2)^2
# matrix entries.
_MAX_SOLVE_DOUBLES = 2**27
# Largest truncation order: the largest level table whose top levels
# transverse._MIN_ALPHA_D keeps above their Neumann ends.
_MAX_N = 3344
# Scan matrices per batched LU: 2^22 doubles (32 MiB), the whole grid at N = 32.
_SCAN_CHUNK_DOUBLES = 2**22


class ParitySector(enum.Enum):
    """Reflection sector: symmetric is a Neumann condition at x = 0,
    antisymmetric a Dirichlet one."""

    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class WellConfig:
    """Rectangular coupling well: alpha1 on |x| < a, alpha0 outside."""

    alpha0: float
    alpha1: float
    a: float
    d: float

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "a", "d"):
            v = getattr(self, name)
            if not (v > 0.0) or not np.isfinite(v):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        # every command refuses a coupling outside the range the level tables resolve
        RobinCrossSection(self.alpha0, self.d)
        RobinCrossSection(self.alpha1, self.d)

    @property
    def is_well(self) -> bool:
        """True when the profile is an attractive well (alpha1 < alpha0)."""
        return self.alpha1 < self.alpha0

    @property
    def inner(self) -> RobinCrossSection:
        return RobinCrossSection(self.alpha1, self.d)

    @property
    def outer(self) -> RobinCrossSection:
        return RobinCrossSection(self.alpha0, self.d)


def _no_companion() -> None:
    return None


@dataclass(frozen=True, eq=False)
class BoundState:
    """An accepted bound state with its coefficient vectors.

    a_coeffs are the channel amplitudes at the interface (the inner axial
    profiles are normalized to value 1 at x = a), with ||a||_2 = 1 and the
    largest-magnitude entry positive; b_coeffs = O a are the outer ones.
    Entry j of either is the amplitude of the y-even channel n = 2j + 1,
    so both have length (N + 1) // 2.  lam_coarse is lambda(N/2) when the
    state is identifiable at half truncation (the two roots are each
    other's nearest), else None; the N/2 truncation is scanned on first
    read, once for all states of the solve, by the _companion callable.
    sigma_min, that of the row-weighted C at lam, is not a confidence
    measure: it is far larger near threshold (see the module docstring).
    """

    lam: float
    parity: ParitySector
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    sigma_min: float
    N: int
    _companion: Callable[[], float | None] = field(default=_no_companion, repr=False)

    @cached_property
    def lam_coarse(self) -> float | None:
        """lambda(N/2) paired with this state, or None."""
        return self._companion()

    def __getstate__(self):
        # a pickle carries the companion's value, not the closure that scans it
        return {**self.__dict__, "lam_coarse": self.lam_coarse, "_companion": _no_companion}

    @property
    def trunc_err(self) -> float | None:
        """|lambda(N) - lambda(N/2)|, or None without a companion."""
        return None if self.lam_coarse is None else abs(self.lam - self.lam_coarse)

    def richardson(self) -> float | None:
        """Order-2 extrapolation in the truncation order, lambda +
        (lambda(N) - lambda(N/2)) / 3, or None without a companion."""
        if self.lam_coarse is None:
            return None
        return self.lam + (self.lam - self.lam_coarse) / 3.0


@dataclass(frozen=True, eq=False)
class WavefunctionGrid:
    """Sampled wavefunction, L2-normalized on its own grid by trapezoid."""

    x_samples: np.ndarray
    y_samples: np.ndarray
    values: np.ndarray
    state: BoundState
    config: WellConfig


# --------------------------------------------------------------------------
# cached per-(inner, outer, N) tables


@dataclass(frozen=True, eq=False)
class _ModeTable:
    """Transversal levels of both cross-sections and their read-only
    overlaps; independent of the well half-width a."""

    inner: _Levels
    outer: _Levels
    overlaps: np.ndarray

    def prefix(self, n: int) -> _ModeTable:
        """The first n channels and the top-left n x n overlaps block."""
        return _ModeTable(self.inner[:n], self.outer[:n], self.overlaps[:n, :n])


# only the latest table is ever reused (a point's two sectors, an a sweep's
# points); each older one held a 22 MB overlap block at N = 3344
@lru_cache(maxsize=1)
def _mode_table(inner: RobinCrossSection, outer: RobinCrossSection, N: int) -> _ModeTable:
    """The y-even channels at truncation N: levels n = 1, 3, 5, ... <= N
    of both cross-sections and their overlaps.  Its prefix((M + 1) // 2)
    is bitwise the table at truncation M <= N."""
    O = overlap_matrix(inner, outer, N)
    O.flags.writeable = False
    return _ModeTable(transversal_levels(inner, N)[::2], transversal_levels(outer, N)[::2], O)


# --------------------------------------------------------------------------
# axial profiles


def _value_deriv(lam: np.ndarray, E: np.ndarray, a: float | np.ndarray, parity: ParitySector):
    """Value V and x-derivative D of each channel profile at x = a for each
    trial energy: lam has shape (P,), E shape (n,), and a is a float (V
    and D of shape (P, n)) or an array of shape (Q, 1) with P = 1 (shape
    (Q, n)).  Both are scaled by exp(-l a), l = sqrt(E - lam), in the
    evanescent branch.

    V and D are entire functions of lambda (up to the smooth positive
    scaling) and never vanish simultaneously; D/V is the axial stiffness
    L_n, l tanh(l a) or l coth(l a), continued as -kappa tan(kappa a) or
    kappa cot(kappa a) above the channel energy.  They are what the
    pole-free scan matrix is built from.
    """
    diff = E[None, :] - lam[:, None]
    hyp = diff >= 0.0
    l = np.sqrt(np.maximum(diff, 0.0))
    kap = np.sqrt(np.maximum(-diff, 0.0))
    em = np.exp(-2.0 * l * a)
    ka = kap * a
    with np.errstate(divide="ignore", invalid="ignore"):
        if parity is ParitySector.SYMMETRIC:
            V = np.where(hyp, 0.5 * (1.0 + em), np.cos(ka))
            D = np.where(hyp, 0.5 * l * (1.0 - em), -kap * np.sin(ka))
        else:
            Vh = -np.expm1(-2.0 * l * a) / (2.0 * l)
            V = np.where(hyp, np.where(l == 0.0, a, Vh), np.sin(ka) / kap)
            D = np.where(hyp, 0.5 * (1.0 + em), np.cos(ka))
    return V, D


# --------------------------------------------------------------------------
# matching matrices


def _scan_matrices(table: _ModeTable, a: float, parity: ParitySector, lam: np.ndarray):
    """Pole-free scan matrices at the trial energies lam, shape (P, n, n),
    and the column factors (P, n) mapping a null vector back to
    interface-value amplitudes.

    C_hat = C diag(V_n s_n) entrywise, with s_n a smooth positive
    normalization and row m divided by 1 + k_m d; same null space as C
    wherever C is defined, regular across the stiffness poles.  The stack
    is built in place, so its temporaries are (P, n) arrays, not further
    stacks.
    """
    V, D = _value_deriv(lam, table.inner.energy, a, parity)
    s = 1.0 / np.hypot(V / a, D)
    k = np.sqrt(np.maximum(table.outer.energy[None, :] - lam[:, None], 0.0))
    C = k[:, :, None] * V[:, None, :]
    C += D[:, None, :]
    C *= table.overlaps
    C *= s[:, None, :]
    C /= (1.0 + k * table.outer.cs.d)[:, :, None]
    V *= s
    return C, V


def _scan_slogdet(table: _ModeTable, a: float, parity: ParitySector, lam: np.ndarray):
    """Sign and log|det| of the scan matrices at lam (not empty), one batched
    LU per 2^22 doubles of matrices; each matrix has its own LU, so the bits
    do not depend on the chunking."""
    step = max(1, _SCAN_CHUNK_DOUBLES // table.overlaps.size)
    chunks = (lam[i:i + step] for i in range(0, lam.size, step))
    return np.concatenate([np.linalg.slogdet(_scan_matrices(table, a, parity, x)[0])
                           for x in chunks], axis=1)


def _window(table: _ModeTable) -> tuple[float, float] | None:
    """The scanned window (E_1(alpha1), E_1(alpha0)), pulled in by 1e-9 of
    its width at both ends and by at least 2 ulp at the top, where k_1 ~ 0
    leaves C_hat singular to rounding; None when it is empty to rounding."""
    lo = float(table.inner.energy[0])
    hi = float(table.outer.energy[0])
    w = hi - lo
    if w <= 1e3 * np.finfo(float).eps * max(abs(lo), abs(hi)):
        return None
    return lo + 1e-9 * w, hi - max(1e-9 * w, 2.0 * np.spacing(hi))


def _scan_roots(table: _ModeTable, a: float, parity: ParitySector,
                scan_points: int) -> list[float]:
    """Roots of the regularized matrix of table in the window, sorted.

    The sign and log of |det| are taken at scan_points energies; every grid
    interval where the sign changes is narrowed by lockstep Illinois steps,
    one batched LU each: regula falsi on |det|, at least one ulp off the
    ends, an end kept twice in a row with its |det| halved, and a bisection
    for a bracket that three steps have not halved.  At 8 ulp of lambda,
    which scales with the well as (alpha/s, s a, s d) does, its last regula
    falsi point is the root, however few ulp below threshold, and an exact
    zero of det on the grid is one as it stands: C_hat is continuous in the
    window, so a sign change needs no sigma_min test.
    """
    win = _window(table)
    if win is None:
        return []

    grid = np.linspace(*win, scan_points)
    sg, lg = _scan_slogdet(table, a, parity, grid)
    j = np.flatnonzero(sg[:-1] * sg[1:] < 0.0)
    # column i of x and ell: low and high end of bracket i and log|det| there;
    # kept[i]: the end its last step kept, widths[:, i]: its last three widths
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
        st, lt = _scan_slogdet(table, a, parity, t)
        keep = (st == sl[act]).astype(int)       # 1: t replaces the low end
        again = keep == kept[act]
        ell[keep[again], act[again]] -= np.log(2.0)
        x[1 - keep, act], ell[1 - keep, act] = t, lt
        x[:, act[st == 0.0]] = t[st == 0.0]
        kept[act] = keep
        widths[:, act] = np.vstack([w, widths[:2, act]])
    return np.sort(np.concatenate([grid[sg == 0.0], t])).tolist()


def bound_state_energies(config: WellConfig, parity: ParitySector, N: int,
                         scan_points: int = 400) -> list[BoundState]:
    """All bound states of one parity sector in (E_1(alpha1), E_1(alpha0)).

    Roots are sign changes of det of the regularized matrix between
    scan_points trial energies, refined to 8 ulp of lambda by Illinois
    steps; every one is a state.  A second scan at truncation N/2,
    scanned on first read of any state's lam_coarse and shared by the
    states of the call, supplies each
    state's truncation-error estimate |lambda(N) - lambda(N/2)|, pairing
    roots that are each other's nearest.  Scans, coefficients and
    sigma_min all use the y-even channels of their truncation;
    matching_residual computes a state's residual on request.  An empty
    list is a valid result.  The
    antisymmetric sector is not scanned when E_1(alpha1) + (pi/2a)^2, its
    lowest level with the well cut off by Neumann conditions at |x| = a,
    is at or above E_1(alpha0): it holds no state then.

    The grid is scanned in chunks of 2^22 doubles.  Before anything is
    allocated, a ContractError refuses a solve whose scan_points *
    ((N+1)//2)^2 scan matrix entries exceed 2^27 (N = 1024 fits at the
    default 400 points) or whose N exceeds 3344, the largest level table
    the weak-coupling bound on alpha*d is derived for.
    """
    if N < 2:
        raise ContractError("truncation order N must be >= 2")
    if scan_points < 8:
        raise ContractError("scan_points must be >= 8")
    if scan_points * ((N + 1) // 2) ** 2 > _MAX_SOLVE_DOUBLES or N > _MAX_N:
        raise ContractError(f"N={N:.3g}, scan_points={scan_points:.3g}: scan matrix entries "
                            f"over 2^27 or mode table over N = {_MAX_N}")
    # the second bracket's lower end is the sector's lowest Neumann-cut level
    if parity is ParitySector.ANTISYMMETRIC and (
            minimax_brackets(config, 2)[0] >= transversal_eigenvalues(config.outer, 1)[0]):
        return []
    table = _mode_table(config.inner, config.outer, N)
    roots = _scan_roots(table, config.a, parity, scan_points)
    if not roots:
        return []

    @cache
    def companions() -> list[float | None]:
        coarse: list[float] = []
        if N >= 4:
            coarse = _scan_roots(table.prefix((N // 2 + 1) // 2), config.a, parity, scan_points)
        return _pair_nearest(roots, coarse)

    states = []
    for i, lam in enumerate(roots):
        Creg, colfac = (x[0] for x in _scan_matrices(table, config.a, parity, np.array([lam])))
        vt = np.linalg.svd(Creg)[2]
        a = vt[-1] * colfac
        nrm = np.linalg.norm(a)
        if nrm == 0.0 or not np.isfinite(nrm):
            raise NumericalError(f"degenerate null vector at lambda={lam!r}")
        a = a / nrm
        if a[np.argmax(np.abs(a))] < 0.0:
            a = -a
        # C_hat = C diag(colfac), so this is sigma_min of the row-weighted C
        smin = float(np.linalg.svd(Creg / colfac, compute_uv=False)[-1])
        states.append(BoundState(
            lam=lam, parity=parity, a_coeffs=a, b_coeffs=table.overlaps @ a,
            sigma_min=smin, N=N, _companion=lambda i=i: companions()[i],
        ))
    return states


def _pair_nearest(fine: list[float], coarse: list[float]) -> list[float | None]:
    """For each fine root, the coarse root it is paired with: the nearest
    one, provided the fine root is in turn the nearest to it; else None."""
    if not coarse:
        return [None] * len(fine)
    dist = np.abs(np.subtract.outer(fine, coarse))
    nearest_coarse = dist.argmin(axis=1)
    nearest_fine = dist.argmin(axis=0)
    return [coarse[j] if nearest_fine[j] == i else None
            for i, j in enumerate(nearest_coarse)]


def minimax_brackets(config: WellConfig, n: int) -> tuple[float, float]:
    """Two-sided bracket for the n-th eigenvalue from Neumann/Dirichlet
    comparison along the well:

        E_1(alpha1) + ((n-1) pi / 2a)^2  <=  E_n  <=  E_1(alpha1) + (n pi / 2a)^2,

    the upper end clipped at E_1(alpha0).  lower >= E_1(alpha0) means the
    bracket is empty: no n-th state is guaranteed."""
    if n < 1:
        raise ContractError("ordinal n must be >= 1")
    E1_in = float(transversal_eigenvalues(config.inner, 1)[0])
    E1_out = float(transversal_eigenvalues(config.outer, 1)[0])
    lower = E1_in + ((n - 1) * np.pi / (2.0 * config.a)) ** 2
    upper = min(E1_in + (n * np.pi / (2.0 * config.a)) ** 2, E1_out)
    return lower, upper


# --------------------------------------------------------------------------
# wavefunctions and residuals


def _axial_profiles(parity: ParitySector, lam: float, E_inner: np.ndarray, a: float,
                    r: np.ndarray) -> np.ndarray:
    """Inner axial profiles at 0 <= r <= a (channels x points, row-major),
    value-normalized at r = a: V(r) / V(a) exp(l (r - a)), undoing the
    scaling of V.  Every factor is at most 1 in the evanescent branch."""
    lam = np.array([lam])
    V_r = _value_deriv(lam, E_inner, r[:, None], parity)[0]
    V_a = _value_deriv(lam, E_inner, a, parity)[0]
    l = np.sqrt(np.maximum(E_inner - lam, 0.0))
    return np.ascontiguousarray((np.exp(l * (r[:, None] - a)) * V_r / V_a).T)


def wavefunction(config: WellConfig, state: BoundState, x_grid, y_grid) -> WavefunctionGrid:
    """Sample the matched expansion on a rectangular grid.

    Inner region |x| <= a: sum_n a_n P_n(x) chi_n(y; alpha1) with the
    value-normalized axial profiles; outer: sum_m b_m exp(-k_m(|x|-a))
    chi_m(y; alpha0), extended by parity to x < 0.  The returned values
    are L2-normalized on the grid by trapezoid quadrature.
    """
    x = np.asarray(x_grid, dtype=float)
    y = np.asarray(y_grid, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) < 2 or len(y) < 2:
        raise ContractError("x_grid and y_grid must be 1d with at least 2 points")
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise ContractError("grids must be strictly increasing")
    table = _mode_table(config.inner, config.outer, state.N)
    chi_in = table.inner.chi(y)
    chi_out = table.outer.chi(y)
    vals = np.zeros((len(x), len(y)))
    # The truncated expansion has a small jump across |x| = a, so grid points
    # within rounding distance of the interface (at the scale of the grid's
    # largest |x|) must classify consistently at +x and -x; snap them onto the
    # interface before taking sides.
    r = np.abs(x)
    snap = np.abs(r - config.a) <= 64.0 * np.finfo(float).eps * max(config.a, r.max())
    r = np.where(snap, config.a, r)
    inner = r <= config.a
    if np.any(inner):
        prof = _axial_profiles(state.parity, state.lam, table.inner.energy,
                               config.a, r[inner])
        vals[inner] = (state.a_coeffs[:, None] * prof).T @ chi_in
        if state.parity is ParitySector.ANTISYMMETRIC:
            vals[inner] *= np.where(x[inner] < 0.0, -1.0, 1.0)[:, None]
    outer = ~inner
    if np.any(outer):
        k = np.sqrt(table.outer.energy - state.lam)
        decay = np.exp(-k[:, None] * (r[outer][None, :] - config.a))
        if state.parity is ParitySector.ANTISYMMETRIC:
            decay = decay * np.sign(x[outer])[None, :]
        vals[outer] = (state.b_coeffs[:, None] * decay).T @ chi_out
    if not np.all(np.isfinite(vals)):
        raise NumericalError("wavefunction evaluation produced non-finite values")
    nrm = np.sqrt(np.trapezoid(np.trapezoid(vals**2, y, axis=1), x))
    if nrm > 0.0:
        vals = vals / nrm
    return WavefunctionGrid(x_samples=x, y_samples=y, values=vals,
                            state=state, config=config)


def matching_residual(config: WellConfig, state: BoundState) -> tuple[float, float]:
    """L2(0, d) norms of the value jump (c0) and x-derivative jump (c1) of
    the expansion across x = a, at the state's ||a||_2 = 1 scale.  Both
    shrink as the truncation order grows; c1 reacts sharply to a wrong
    lambda, which makes it a cheap consistency probe."""
    table = _mode_table(config.inner, config.outer, state.N)
    lam, a, b = state.lam, state.a_coeffs, state.b_coeffs
    y, w = composite_gl(0.0, config.d, max_panel_width=config.d / _RESIDUAL_PANELS)
    chi_in = table.inner.chi(y)
    chi_out = table.outer.chi(y)
    V, D = (x[0] for x in _value_deriv(np.array([lam]), table.inner.energy, config.a,
                                       state.parity))
    with np.errstate(divide="ignore", invalid="ignore"):
        L = D / V
    deriv_amp = np.where(np.abs(a) < 1e-13, 0.0, a * L)
    k = np.sqrt(np.maximum(table.outer.energy - lam, 0.0))
    jump0 = a @ chi_in - b @ chi_out
    jump1 = deriv_amp @ chi_in + (b * k) @ chi_out
    c0 = float(np.sqrt(np.sum(w * jump0**2)))
    c1 = float(np.sqrt(np.sum(w * jump1**2)))
    return c0, c1
