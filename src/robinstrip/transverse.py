"""Cross-sectional Robin eigenproblem on the interval (0, d).

For a constant coupling ``alpha > 0`` the transversal modes of the strip are

    chi_n(y) = N * ((alpha/k) sin(k y) + cos(k y)),    k = sqrt(E_n),

where E_n is the n-th root of the dispersion function

    f(E) = 2 alpha sqrt(E) cos(sqrt(E) d) + (alpha^2 - E) sin(sqrt(E) d)

and N normalizes chi_n to unit L2 norm.  The boundary conditions are
-chi'(0) + alpha chi(0) = 0 and chi'(d) + alpha chi(d) = 0.

The dispersion function factorizes over half-interval problems,

    f = 2 (k cos(kd/2) + alpha sin(kd/2)) (alpha cos(kd/2) - k sin(kd/2)),

so its roots split into an even family (k tan(kd/2) = alpha) and an odd
family (tan(kd/2) = -k/alpha); the test suite uses independent bisection on
the factors as an oracle.  With theta = kd/2 and c = alpha d/2, level n of
either family solves

    F(theta) = theta - (n-1) pi/2 - arctan(c/theta) = 0,

whose root lies strictly between (n-1) pi/2 and n pi/2 and depends on c
alone.  F is increasing and concave for theta > 0, so Newton from any start
left of the root rises to it with no bracket; the tests hold k_n = 2 theta/d
to 4 ulp of a 40-digit root.  chi_n is normalized by a closed form of its
squared norm, which the tests check by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError, ConvergenceError, NumericalError

# Newton steps a level may take before the solve is a ConvergenceError.
_NEWTON_STEPS = 16
# Largest alpha*d: k_n lies 2/(alpha d) relative below its Dirichlet end
# n pi/d, under an ulp from about alpha*d = 1e16, where every level is the
# hard-wall one in binary64 and larger couplings cannot be told apart.
_MAX_ALPHA_D = 1e15
# Smallest alpha*d: k_n lies about alpha d/(2 ((n-1) pi/2)^2) relative above
# its Neumann end (n-1) pi/d, at n = 3344 (the largest table a solve builds)
# 1.8e-8 alpha d: under an ulp below about alpha*d = 1e-8, where the top
# levels lose the coupling; at 1e-7 they keep it to 8-16 ulp.
_MIN_ALPHA_D = 1e-7
# Squares of arrays use np.float_power, which calls libm pow exactly as a
# scalar x ** 2 does; array x ** 2 computes x * x, which differs in the last
# bit on some inputs.  Every level and every overlap_matrix entry thus has
# the bits of its scalar formula, whatever the table size.


@dataclass(frozen=True)
class RobinCrossSection:
    """Constant-coupling cross section: width d, Robin coupling alpha."""

    alpha: float
    d: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.d > 0.0) or not np.isfinite(self.d):
            raise ConfigError(f"d must be positive and finite, got {self.d!r}")
        if not self.alpha * self.d <= _MAX_ALPHA_D:
            raise ConfigError(f"alpha*d must be at most {_MAX_ALPHA_D:g}, got "
                              f"alpha={self.alpha!r}, d={self.d!r}")
        if not self.alpha * self.d >= _MIN_ALPHA_D:
            raise ConfigError(f"alpha*d must be at least {_MIN_ALPHA_D:g}, got "
                              f"alpha={self.alpha!r}, d={self.d!r}")


def dispersion(E, cs: RobinCrossSection):
    """Dispersion function f(E; alpha).  Vectorized over E.

    f(0) = 0 identically, but E = 0 is not an eigenvalue; root searches
    start from a small positive k and read only the sign of f and whether
    it is exactly zero.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E < 0):
        raise ContractError("dispersion requires E >= 0")
    k = np.sqrt(E)
    f = 2.0 * cs.alpha * k * np.cos(k * cs.d) + (cs.alpha**2 - E) * np.sin(k * cs.d)
    return f if f.ndim else float(f)


def _newton_step(theta, a, c):
    """theta - F/F' for F(theta) = theta - a - arctan(c/theta), where
    F' = 1 + c/(theta^2 + c^2)."""
    return theta - (theta - a - np.arctan(c / theta)) / (1.0 + c / (theta * theta + c * c))


def _newton_levels(cs: RobinCrossSection, n_max: int) -> np.ndarray:
    """k_1 < ... < k_{n_max}: Newton on the arctan form, all levels at once.

    Level n starts at (n-1) pi/2 + arctan(c/u), left of its root for any
    upper bound u of it, and stops at the first step that does not raise
    its theta.  Only live levels step, so a level's bits do not depend on n_max.
    """
    c = 0.5 * cs.alpha * cs.d
    n = np.arange(1, n_max + 1)
    a = (n - 1) * (0.5 * np.pi)
    u = n * (0.5 * np.pi)
    # theta tan(theta) >= theta^2 puts the first root below sqrt(c)
    u[0] = min(np.sqrt(c), 0.5 * np.pi)
    theta = a + np.arctan(c / u)
    live = np.arange(n_max)
    for _ in range(_NEWTON_STEPS):
        new = _newton_step(theta[live], a[live], c)
        up = new > theta[live]
        live = live[up]
        theta[live] = new[up]
        if not live.size:
            return 2.0 * theta / cs.d
    raise ConvergenceError(f"alpha={cs.alpha:g}, d={cs.d:g}: {live.size} levels still rise "
                           f"after {_NEWTON_STEPS} Newton steps")


def _profile_norm_sq(alpha: float, d: float, k):
    """Closed form of int_0^d ((alpha/k) sin(ky) + cos(ky))^2 dy."""
    A = alpha / k
    return (
        0.5 * d * (A * A + 1.0)
        + (1.0 - A * A) * np.sin(2.0 * k * d) / (4.0 * k)
        + A * np.float_power(np.sin(k * d), 2.0) / k
    )


@dataclass(frozen=True, eq=False)
class _Levels:
    """The lowest levels of one cross-section as read-only arrays: energy
    E_n, wavenumber k_n = sqrt(E_n) and normalization of chi_n.  This table
    is the one representation of a transversal level in the package."""

    cs: RobinCrossSection
    energy: np.ndarray
    k: np.ndarray
    norm_const: np.ndarray

    def __getitem__(self, s: slice) -> _Levels:
        """The levels at positions s: [:n] is bitwise transversal_levels(cs,
        n), and [::2] the odd-n levels, whose chi_n are even about y = d/2."""
        return _Levels(self.cs, self.energy[s], self.k[s], self.norm_const[s])

    def chi(self, y) -> np.ndarray:
        """chi_n(y) for every level (first axis) and every y in [0, d]
        (remaining axes, shaped like y)."""
        k, ky, c = self._at(y)
        return c * ((self.cs.alpha / k) * np.sin(ky) + np.cos(ky))

    def chi_deriv(self, y) -> np.ndarray:
        """chi_n'(y), laid out as chi(y)."""
        k, ky, c = self._at(y)
        return c * (self.cs.alpha * np.cos(ky) - k * np.sin(ky))

    def _at(self, y):
        """k_n, k_n y and the normalizations, broadcast against y."""
        y = np.asarray(y, dtype=float)
        d = self.cs.d
        if np.any(y < -1e-12 * d) or np.any(y > d * (1.0 + 1e-12)):
            raise ContractError(f"y out of range [0, {d:g}]")
        shape = (-1,) + (1,) * y.ndim
        k = self.k.reshape(shape)
        return k, k * y, self.norm_const.reshape(shape)


@lru_cache(maxsize=128)
def _tables(cs: RobinCrossSection) -> dict[int, _Levels]:
    """The tables served for cs, by n_max: each is a prefix of the largest."""
    return {}


def transversal_levels(cs: RobinCrossSection, n_max: int) -> _Levels:
    """The table of the n_max lowest levels of cs: read-only energy, k and
    norm_const arrays, with chi(y) and chi_deriv(y) evaluating every
    chi_n and chi_n' at once.  Cached and shared, so copy before editing:
    each (cs, n_max) gets one object, a prefix of the largest table built
    for cs or else one solved afresh, with the same bits.  Levels whose
    arithmetic leaves binary64 (an overflow, underflow or NaN on the way,
    possible only at extreme d) are a NumericalError."""
    if n_max < 1:
        raise ContractError("n_max must be >= 1")
    tables = _tables(cs)
    largest = max(tables, default=0)
    if largest >= n_max:
        return tables.setdefault(n_max, tables[largest][:n_max])
    try:
        with np.errstate(all="raise"):
            E = np.float_power(_newton_levels(cs, n_max), 2.0)
            k = np.sqrt(E)
            norm_const = 1.0 / np.sqrt(_profile_norm_sq(cs.alpha, cs.d, k))
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"alpha={cs.alpha:g}, d={cs.d:g}: levels leave binary64 ({exc})")
    for arr in (E, k, norm_const):
        arr.flags.writeable = False
    return tables.setdefault(n_max, _Levels(cs, E, k, norm_const))


def transversal_eigenvalues(cs: RobinCrossSection, n_max: int) -> np.ndarray:
    """The n_max lowest transversal energies E_1 < E_2 < ... < E_{n_max}."""
    return transversal_levels(cs, n_max).energy.copy()


def overlap_matrix(inner: RobinCrossSection, outer: RobinCrossSection, N: int) -> np.ndarray:
    """The overlaps of the y-even levels n = 1, 3, 5, ... <= N, shape
    ((N + 1) // 2, (N + 1) // 2):

        O[i, j] = int_0^d chi_{2j+1}(y; inner) chi_{2i+1}(y; outer) dy.

    Closed form via product-to-sum antiderivatives; the difference
    frequency uses the half-angle form 1 - cos(t) = 2 sin^2(t/2), so no
    digits cancel at small k_a - k_b, and equal wavenumbers take the
    limits d of sin(dk d)/dk and 0 of 2 sin^2(dk d/2)/dk.  The y-odd
    levels are left out: their overlaps with the y-even ones vanish, since
    chi_n is even about y = d/2 for odd n and odd for even n, and no bound
    state has a y-odd amplitude.
    """
    if inner.d != outer.d:
        raise ContractError("overlap_matrix requires cross-sections of equal width")
    d = inner.d
    ti, to = transversal_levels(inner, N)[::2], transversal_levels(outer, N)[::2]
    ka, Aa = ti.k[None, :], inner.alpha / ti.k[None, :]
    O = np.empty((to.k.size, ti.k.size))
    # row chunks of 2^16 entries keep the dozen temporaries small beside the result
    step = max(1, 2**16 // ti.k.size)
    for rows in range(0, to.k.size, step):
        kb, Ab = to.k[rows:rows + step, None], outer.alpha / to.k[rows:rows + step, None]
        dk, sk = ka - kb, ka + kb
        with np.errstate(divide="ignore", invalid="ignore"):
            cd = np.where(dk == 0.0, d, np.sin(dk * d) / dk)
            sd = np.where(dk == 0.0, 0.0, 2.0 * np.float_power(np.sin(0.5 * dk * d), 2.0) / dk)
        cs_ = np.sin(sk * d) / sk
        ss = 2.0 * np.float_power(np.sin(0.5 * sk * d), 2.0) / sk
        I_ss, I_cc = 0.5 * (cd - cs_), 0.5 * (cd + cs_)
        I_sc, I_cs = 0.5 * (ss + sd), 0.5 * (ss - sd)
        I = Aa * Ab * I_ss + Aa * I_sc + Ab * I_cs + I_cc
        O[rows:rows + step] = ti.norm_const[None, :] * to.norm_const[rows:rows + step, None] * I
    return O
