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
doubles each, from the last grid point below the sector's Neumann floor
E_1(alpha1) + (j pi/2a)^2 (j = 0 symmetric, 1 antisymmetric), under which
the sector has no state; a sector whose floor is at or above E_1(alpha0)
is not scanned.  Grid intervals where the sign changes are narrowed
together by Illinois steps to 8 ulp of lambda, one batched LU per step,
and each is a root, since C_hat is continuous.  A sign change finds a root
however narrow its singular-value dip is, which a scan of sigma_min on the
grid does not, but two roots in one grid interval give none: each job's
root count must lie between the Dirichlet lower count and the Neumann
cap of cuts at |x| = a, else the solve raises NumericalError.
bound_states solves every (well, sector) job of wells that share their
cross-sections, a point's two sectors or an a/d sweep's
points, with one mode table: the brackets of all jobs step together, and
the null vectors and sigma_min of all roots come from one batched SVD
each.  Every matrix has its own LU and SVD and every step is elementwise
per bracket, so a state has the same bits however many jobs share its
solve.  A state's a_coeffs and b_coeffs, of length (N + 1) // 2, hold
the amplitudes of channels 1, 3, 5, ...  The truncation-error companion,
the same scan on the first (N // 2 + 1) // 2 channels, is scanned on first
read of a state's lam_coarse, once per (well, sector) solve; a solve whose
estimate nobody reads runs one scan.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import groupby

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


def _value_deriv(lam: np.ndarray, E: np.ndarray, a: float | np.ndarray,
                 parity: ParitySector | np.ndarray):
    """Value V and x-derivative D of each channel profile at x = a for each
    trial energy: lam has shape (P,), E shape (n,), and V and D shape
    (P, n).  a is a float or a (P, 1) column of per-row half-widths (or,
    with P = 1, a (Q, 1) column of positions, giving shape (Q, n)); parity
    is a ParitySector or a (P, 1) boolean column, True on symmetric rows.
    Both are scaled by exp(-l a), l = sqrt(E - lam), in the evanescent
    branch.

    V and D are entire functions of lambda (up to the smooth positive
    scaling) and never vanish simultaneously; D/V is the axial stiffness
    L_n, l tanh(l a) or l coth(l a), continued as -kappa tan(kappa a) or
    kappa cot(kappa a) above the channel energy.  They are what the
    pole-free scan matrix is built from.  Rows of both parities take both
    branches, elementwise, so each row has the bits of a one-parity call.
    """
    diff = E[None, :] - lam[:, None]
    hyp = diff >= 0.0
    l = np.sqrt(np.maximum(diff, 0.0))
    kap = np.sqrt(np.maximum(-diff, 0.0))
    em = np.exp(-2.0 * l * a)
    ka = kap * a
    sym = parity is ParitySector.SYMMETRIC if isinstance(parity, ParitySector) else parity
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.all(sym) or not np.any(sym):
            return _branch(hyp, l, kap, em, ka, a, bool(np.all(sym)))
        (Vs, Ds), (Va, Da) = (_branch(hyp, l, kap, em, ka, a, s) for s in (True, False))
    return np.where(sym, Vs, Va), np.where(sym, Ds, Da)


def _branch(hyp, l, kap, em, ka, a, symmetric: bool):
    """V and D of _value_deriv for one parity: cosh/cos or sinh/sin."""
    if symmetric:
        return (np.where(hyp, 0.5 * (1.0 + em), np.cos(ka)),
                np.where(hyp, 0.5 * l * (1.0 - em), -kap * np.sin(ka)))
    Vh = -np.expm1(-2.0 * l * a) / (2.0 * l)
    return (np.where(hyp, np.where(l == 0.0, a, Vh), np.sin(ka) / kap),
            np.where(hyp, 0.5 * (1.0 + em), np.cos(ka)))


# --------------------------------------------------------------------------
# matching matrices


def _scan_matrices(table: _ModeTable, a: float | np.ndarray,
                   parity: ParitySector | np.ndarray, lam: np.ndarray):
    """Pole-free scan matrices at the trial energies lam, shape (P, n, n),
    and the column factors (P, n) mapping a null vector back to
    interface-value amplitudes; a and parity are shared by every row or
    given per row as (P, 1) columns (see _value_deriv).

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


def _chunks(table: _ModeTable, a, parity, lam: np.ndarray):
    """(a, parity, lam) in slices of at most 2^22 doubles of scan matrices;
    a per-row column is sliced with lam, a shared value passed whole."""
    step = max(1, _SCAN_CHUNK_DOUBLES // table.overlaps.size)
    for i in range(0, lam.size, step):
        yield tuple(v[i:i + step] if isinstance(v, np.ndarray) else v
                    for v in (a, parity, lam))


def _scan_slogdet(table: _ModeTable, a, parity, lam: np.ndarray):
    """Sign and log|det| of the scan matrices at lam (not empty), one batched
    LU per 2^22 doubles of matrices; each matrix has its own LU, so the bits
    do not depend on the chunking or on the other rows."""
    return np.concatenate([np.linalg.slogdet(_scan_matrices(table, *chunk)[0])
                           for chunk in _chunks(table, a, parity, lam)], axis=1)


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


def _neumann_floor(E1_in: float, a: float, parity: ParitySector) -> float:
    """The sector's lowest level with the well cut off by Neumann conditions
    at |x| = a, E_1(alpha1) + (j pi / 2a)^2 with j = 0 (symmetric) or 1
    (antisymmetric), the lower end of minimax_brackets(config, j + 1): by
    min-max the sector has no state below it."""
    j = 0 if parity is ParitySector.SYMMETRIC else 1
    return E1_in + (j * np.pi / (2.0 * a)) ** 2


def _count_bounds(E1_in: float, E1_out: float, a: float,
                  parity: ParitySector) -> tuple[int, int]:
    """The sector's Dirichlet lower count and Neumann cap: cutting the
    strip at |x| = a with Dirichlet (Neumann) conditions raises (lowers)
    the operator, and the inner levels below E_1(alpha0) of either cut are
    E_1(alpha1) + (k pi/2a)^2, k >= 1 odd (symmetric) or even
    (antisymmetric) for Dirichlet, k >= 0 even (symmetric) or odd
    (antisymmetric) for Neumann; by min-max the sector has at least as
    many states as the first and at most as many as the second."""
    def below(k: int) -> bool:
        return E1_in + (k * np.pi / (2.0 * a)) ** 2 < E1_out

    # n = #{k >= 0: below(k)} from its real-valued estimate, which is off
    # by at most one level below 2^52 and corrected on the inequality
    # itself there; past it no scan comes near the count, so it stands
    x = 2.0 * a * np.sqrt(max(E1_out - E1_in, 0.0)) / np.pi
    n = int(np.ceil(min(x, 2.0**62)))
    if n < 2**52:
        while below(n):
            n += 1
        while n > 0 and not below(n - 1):
            n -= 1
    if parity is ParitySector.SYMMETRIC:
        return n // 2, (n + 1) // 2
    return max(n - 1, 0) // 2, n // 2


def _scan_roots(table: _ModeTable, jobs: list[tuple[float, ParitySector]],
                scan_points: int) -> list[list[float]]:
    """Roots, sorted, of the regularized matrix of table in the window for
    each job (a, parity), a half-width and sector sharing the table.

    Each job takes the sign and log of |det| on the same scan_points-energy
    grid, from the last grid point below its Neumann floor on: no state of
    the sector lies lower, so the grid points it skips hold no sign change.
    Every grid interval where the sign changes is a bracket, and the
    brackets of all jobs are narrowed together by Illinois steps, one
    batched LU each (_refine).  An exact zero of det on the grid is a root
    as it stands: C_hat is continuous in the window, so a sign change
    needs no sigma_min test.
    """
    win = _window(table)
    if win is None:
        return [[] for _ in jobs]
    grid = np.linspace(*win, scan_points)
    E1_in = float(table.inner.energy[0])
    zeros, ends, logs, signs, owner = [], [], [], [], []
    for i, (a, parity) in enumerate(jobs):
        g = grid[max(0, np.searchsorted(grid, _neumann_floor(E1_in, a, parity)) - 1):]
        sg, lg = _scan_slogdet(table, a, parity, g)
        j = np.flatnonzero(sg[:-1] * sg[1:] < 0.0)
        zeros.append(g[sg == 0.0])
        ends.append(g[[j, j + 1]])
        logs.append(lg[[j, j + 1]])
        signs.append(sg[j])
        owner.append(np.full(j.size, i))
    owner = np.concatenate(owner)
    a = np.array([a for a, _ in jobs])[owner, None]
    sym = np.array([p is ParitySector.SYMMETRIC for _, p in jobs])[owner, None]
    t = _refine(table, a, sym, np.concatenate(ends, axis=1), np.concatenate(logs, axis=1),
                np.concatenate(signs))
    return [np.sort(np.concatenate([zeros[i], t[owner == i]])).tolist()
            for i in range(len(jobs))]


def _refine(table: _ModeTable, a: np.ndarray, sym: np.ndarray, x: np.ndarray,
            ell: np.ndarray, sl: np.ndarray) -> np.ndarray:
    """The root in each bracket: column i of x and ell holds the low and
    high end of bracket i and log|det| there, sl[i] the sign of det at its
    low end, and rows i of the (B, 1) columns a and sym its half-width and
    parity.

    All brackets step in lockstep, one batched LU per step for the active
    ones: regula falsi on |det|, at least one ulp off the ends, an end
    kept twice in a row with its |det| halved, and a bisection for a
    bracket that three steps have not halved.  At 8 ulp of lambda, which
    scales with the well as (alpha/s, s a, s d) does, its last regula falsi
    point is the root, however few ulp below threshold.  Every step is
    elementwise per bracket, so a bracket's root has the same bits whichever
    others step with it.
    """
    # kept[i]: the end bracket i's last step kept, widths[:, i]: its last three widths
    kept, widths = np.full(sl.size, -1), np.full((3, sl.size), np.inf)
    while True:
        w = x[1] - x[0]
        t = x[0] + w / (1.0 + np.exp(np.minimum(ell[1] - ell[0], 700.0)))
        act = np.flatnonzero(w > 8.0 * np.spacing(x[1]))
        if not act.size:
            return t
        lo, hi, w = x[0, act], x[1, act], w[act]
        t = np.where(w > 0.5 * widths[2, act], 0.5 * (lo + hi),
                     np.clip(t[act], np.nextafter(lo, hi), np.nextafter(hi, lo)))
        st, lt = _scan_slogdet(table, a[act], sym[act], t)
        keep = (st == sl[act]).astype(int)       # 1: t replaces the low end
        again = keep == kept[act]
        ell[keep[again], act[again]] -= np.log(2.0)
        x[1 - keep, act], ell[1 - keep, act] = t, lt
        x[:, act[st == 0.0]] = t[st == 0.0]
        kept[act] = keep
        widths[:, act] = np.vstack([w, widths[:2, act]])


def _null_vectors(table: _ModeTable, a: np.ndarray, sym: np.ndarray, lam: np.ndarray):
    """At each root lam[i] (of half-width a[i] and parity sym[i], (P, 1)
    columns): the right singular vector of C_hat for its smallest singular
    value, its column factors, and sigma_min of the row-weighted C.  One
    batched SVD each per 2^22 doubles of matrices; each matrix has its own."""
    vt, colfac, smin = [], [], []
    for chunk in _chunks(table, a, sym, lam):
        C, V = _scan_matrices(table, *chunk)
        # a copy, so the chunk's whole V^T is freed now
        vt.append(np.linalg.svd(C)[2][:, -1].copy())
        colfac.append(V)
        # C_hat = C diag(colfac), so this is sigma_min of the row-weighted C
        smin.append(np.linalg.svd(C / V[:, None, :], compute_uv=False)[:, -1])
    return np.concatenate(vt), np.concatenate(colfac), np.concatenate(smin)


def _check_size(N: int, scan_points: int) -> None:
    """Refuse, before anything is allocated, a solve outside the sizes the
    scan and the level tables are made for."""
    if N < 2:
        raise ContractError("truncation order N must be >= 2")
    if scan_points < 8:
        raise ContractError("scan_points must be >= 8")
    if scan_points * ((N + 1) // 2) ** 2 > _MAX_SOLVE_DOUBLES or N > _MAX_N:
        raise ContractError(f"N={N:.3g}, scan_points={scan_points:.3g}: scan matrix entries "
                            f"over 2^27 or mode table over N = {_MAX_N}")


def _solve(jobs: list[tuple[WellConfig, ParitySector]], N: int,
           scan_points: int) -> list[list[BoundState]]:
    """The states of each (well, sector) job, for wells that share their
    cross-sections: one mode table, one lockstep refinement of every
    job's brackets and one batched null-vector pass.  A job whose Neumann
    cap is 0 (its Neumann floor at or above E_1(alpha0)) holds no state
    and is not scanned; when no job is left, no table is built.  A job
    whose root count lies outside _count_bounds raises NumericalError."""
    inner, outer = jobs[0][0].inner, jobs[0][0].outer
    # E_1 from the level tables at N, which the mode table reads as well
    E1_in = float(transversal_levels(inner, N).energy[0])
    E1_out = float(transversal_levels(outer, N).energy[0])
    bounds = [_count_bounds(E1_in, E1_out, well.a, parity) for well, parity in jobs]
    # a Neumann cap of 0 is a floor at or above E_1(alpha0)
    live = [i for i, (_, cap) in enumerate(bounds) if cap > 0]
    states: list[list[BoundState]] = [[] for _ in jobs]
    if not live:
        return states
    table = _mode_table(inner, outer, N)
    roots = _scan_roots(table, [(jobs[i][0].a, jobs[i][1]) for i in live], scan_points)
    for i, job_roots in zip(live, roots):
        (well, parity), (lower, cap) = jobs[i], bounds[i]
        if not lower <= len(job_roots) <= cap:
            raise NumericalError(
                f"{parity.value} sector of a = {well.a!r}: {len(job_roots)} roots found, outside "
                f"[{lower}, {cap}] (Dirichlet lower count, Neumann cap); two roots may share "
                f"a scan interval, try a larger --scan-points or N")
    owner = [i for i, r in zip(live, roots) for _ in r]
    if not owner:
        return states
    vt, colfac, smin = _null_vectors(
        table, np.array([jobs[i][0].a for i in owner])[:, None],
        np.array([jobs[i][1] is ParitySector.SYMMETRIC for i in owner])[:, None],
        np.array([lam for r in roots for lam in r]))
    row = 0
    for i, job_roots in zip(live, roots):
        companions = _companions(table, *jobs[i], N, scan_points, job_roots)
        for k, lam in enumerate(job_roots):
            a = vt[row] * colfac[row]
            nrm = np.linalg.norm(a)
            if nrm == 0.0 or not np.isfinite(nrm):
                raise NumericalError(f"degenerate null vector at lambda={lam!r}")
            a = a / nrm
            if a[np.argmax(np.abs(a))] < 0.0:
                a = -a
            states[i].append(BoundState(
                lam=lam, parity=jobs[i][1], a_coeffs=a, b_coeffs=table.overlaps @ a,
                sigma_min=float(smin[row]), N=N, _companion=companions[k],
            ))
            row += 1
    return states


def _companions(table: _ModeTable, well: WellConfig, parity: ParitySector, N: int,
                scan_points: int, roots: list[float]) -> list[Callable[[], float | None]]:
    """For each root of one job, a callable giving its N/2 companion; the
    first call of any of them scans the N/2 truncation for all."""
    @cache
    def pairs() -> list[float | None]:
        coarse: list[float] = []
        if N >= 4:
            coarse = _scan_roots(table.prefix((N // 2 + 1) // 2), [(well.a, parity)],
                                 scan_points)[0]
        return _pair_nearest(roots, coarse)
    return [lambda k=k: pairs()[k] for k in range(len(roots))]


def bound_states(wells: Iterable[WellConfig], N: int,
                 scan_points: int = 400) -> Iterator[list[BoundState]]:
    """The bound states of both sectors of each well, sorted by lambda:
    one list per well, in order, each as bound_state_energies gives them,
    bit for bit.

    Consecutive wells with the same (alpha0, alpha1, d), such as the points
    of an a/d sweep, are solved together with one mode table: every
    (well, sector) job scans its own grid, the brackets of all of them are
    refined in one lockstep loop, and their null vectors taken by one
    batched SVD.  The lists of such a run of wells are yielded when it is
    solved, so an alpha_pair sweep holds one run's tables at a time.  The
    sizes are checked as by bound_state_energies, before anything is solved.
    """
    _check_size(N, scan_points)
    return _solve_runs(list(wells), N, scan_points)


def _solve_runs(wells: list[WellConfig], N: int, scan_points: int) -> Iterator[list[BoundState]]:
    for _, run in groupby(wells, key=lambda w: (w.inner, w.outer)):
        states = _solve([(w, p) for w in run for p in ParitySector], N, scan_points)
        while states:
            # popped, so once its caller lets go of a list no state here pins the table
            yield sorted(states.pop(0) + states.pop(0), key=lambda s: s.lam)


def bound_state_energies(config: WellConfig, parity: ParitySector, N: int,
                         scan_points: int = 400) -> list[BoundState]:
    """All bound states of one parity sector in (E_1(alpha1), E_1(alpha0)).

    Roots are sign changes of det of the regularized matrix between
    scan_points trial energies, refined to 8 ulp of lambda by Illinois
    steps; every one is a state.  The grid is evaluated from its last point
    below the sector's Neumann floor, E_1(alpha1) + (j pi/2a)^2 with j = 0
    symmetric and j = 1 antisymmetric (the lower end of
    minimax_brackets(config, j + 1)), and a sector whose floor is at or
    above E_1(alpha0) holds no state and builds no mode table.  A second
    scan at truncation N/2, scanned on first read of any state's
    lam_coarse and shared by the states of the call, supplies each state's
    truncation-error estimate |lambda(N) - lambda(N/2)|, pairing roots
    that are each other's nearest.  Scans, coefficients and sigma_min all
    use the y-even channels of their truncation; matching_residual
    computes a state's residual on request.  An empty list is a valid
    result.  This is bound_states with one job: its states have the same
    bits as there.  A root count below the sector's Dirichlet lower count
    or above its Neumann cap (two roots lost in one grid interval, or a
    spurious one) raises NumericalError.

    The grid is scanned in chunks of 2^22 doubles.  Before anything is
    allocated, a ContractError refuses a solve whose scan_points *
    ((N+1)//2)^2 scan matrix entries exceed 2^27 (N = 1024 fits at the
    default 400 points) or whose N exceeds 3344, the largest level table
    the weak-coupling bound on alpha*d is derived for.
    """
    _check_size(N, scan_points)
    return _solve([(config, parity)], N, scan_points)[0]


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
