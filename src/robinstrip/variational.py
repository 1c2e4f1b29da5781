"""Variational existence test for bound states below the continuum.

For a coupling profile alpha(x) with alpha -> alpha0 at infinity and
integral(alpha - alpha0) < 0, a bound state below E_1(alpha0) exists.
The proof is constructive: with psi_n(x, y) = phi_n(x) chi_1(y; alpha0),
phi_n(x) = (n d)^{-1/2} phi(x/(n d)) a smooth bump widened to n strip
widths, the shifted form Q[psi_n] = h[psi_n] - E_1(alpha0) ||psi_n||^2
eventually turns negative.  Using the transversal eigen-identity
int |chi_1'|^2 + alpha0 (chi_1(0)^2 + chi_1(d)^2) = E_1(alpha0), Q
collapses to the separable reduction

    Q = (n d)^{-2} ||phi'||^2 + W (alpha1 - alpha0) m(min(rho/n, support)),

W = chi_1(0)^2 + chi_1(d)^2, rho = a/d, m(s) the normalized bump's mass
on [-s, s].  The bump's plateau and support are in units of d, so d^2 Q
depends on (alpha0 d, alpha1 d, a/d) alone.  The tests check the
reduction against a plain 2D quadrature of the form.

n^2 Q changes sign once: d/dn [n^2 m(rho/n)] = n (2 m(s) - s m'(s)) at
s = rho/n, and phi^2 does not increase on [0, support], so m(s) =
2 int_0^s phi^2 >= 2 s phi(s)^2 = s m'(s) and n^2 m(rho/n) strictly
increases.  For alpha1 < alpha0, n^2 Q therefore strictly decreases and
crosses zero exactly once, and the least n with Q < 0 is found by
bisection.  On the plateau (rho/n <= plateau) m(s) = 2 s/raw^2, so Q < 0
exactly for n > n_c = ||phi'||^2 raw^2 / (2 rho W d (alpha0 - alpha1) d).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError
from .modematch import WellConfig
from .quadrature import gauss_legendre
from .transverse import transversal_levels


def _g(t):
    """exp(-1/t) for t > 0, else 0; the standard smooth transition germ."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


def _g_prime(t):
    t = np.asarray(t, dtype=float)
    return _g(t) / np.where(t > 0.0, t, 1.0) ** 2


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    a, b = _g(t), _g(1.0 - t)
    return a / (a + b)


def _smoothstep_deriv(t):
    a, b = _g(t), _g(1.0 - t)
    return (_g_prime(t) * b + a * _g_prime(1.0 - t)) / (a + b) ** 2


def _unit_integral(f, u0):
    """int_{u0}^{1} f(u) du by one 64-point Gauss-Legendre rule mapped onto
    [u0, 1]; f is C-infinity here, so the rule reaches rounding."""
    x, w = gauss_legendre(64)
    half = 0.5 * (1.0 - np.asarray(u0, dtype=float))
    return half * np.sum(f(1.0 - half[..., None] * (1.0 - x)) * w, axis=-1)


@lru_cache(maxsize=16)
def _bump_constants(plateau: float, support: float) -> tuple[float, float]:
    """(raw L2 norm, ||phi'||^2 of the L2-normalized bump).  With
    u = (support - x)/w the transition is smoothstep on [0, 1], so
    raw^2 = 2 (plateau + w T), T = int_0^1 smoothstep^2, summed before
    doubling since 2 w T overflows near 1e308."""
    w = support - plateau
    raw_sq = 2.0 * (plateau + w * float(_unit_integral(lambda u: _smoothstep(u) ** 2, 0.0)))
    deriv = 2.0 * float(_unit_integral(lambda u: _smoothstep_deriv(u) ** 2, 0.0))
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.sqrt(raw_sq)), float(np.float64(deriv) / w / raw_sq)


@dataclass(frozen=True)
class BumpProfile:
    """Smooth even bump: 1 on [-plateau, plateau], 0 outside
    [-support, support], C-infinity in between, L2-normalized.  The trial
    functions widen it by n d, so plateau and support are in units of d.

    The evaluation methods return the normalized profile, so
    self(0) = 1/raw_norm rather than 1.
    """

    plateau: float = 0.125
    support: float = 0.25

    def __post_init__(self):
        if not (np.isfinite(self.plateau) and np.isfinite(self.support)
                and 0.0 < self.plateau < self.support):
            raise ConfigError(f"need 0 < plateau < support, got plateau={self.plateau!r} "
                              f"support={self.support!r}")
        # raw^2 >= 2 plateau > 0; ||phi'||^2 underflows to 0 for a bump ~1e308 wide
        raw, kinetic = _bump_constants(self.plateau, self.support)
        if not (np.isfinite(raw) and np.isfinite(kinetic)):
            raise ConfigError(f"the bump with plateau={self.plateau!r} support={self.support!r} "
                              f"has L2 norm {raw!r} and ||phi'||^2 {kinetic!r}; both must be finite")

    @property
    def _norm(self) -> float:
        return _bump_constants(self.plateau, self.support)[0]

    @property
    def deriv_norm_sq(self) -> float:
        """||phi'||^2 of the normalized profile."""
        return _bump_constants(self.plateau, self.support)[1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = (self.support - np.abs(x)) / (self.support - self.plateau)
        return _smoothstep(t) / self._norm

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        w = self.support - self.plateau
        t = (self.support - np.abs(x)) / w
        return -np.sign(x) * _smoothstep_deriv(t) / (w * self._norm)


@dataclass(frozen=True)
class QReport:
    """first_negative_n is the least n with Q[psi_n] < 0 and q_first is
    q_form there (<= 0, and -0.0 where |Q| underflows).  Both are None when
    well_hypothesis is False (alpha1 >= alpha0: no claim) or the crossing
    lies past the largest binary64 (inconclusive)."""

    first_negative_n: int | None
    q_first: float | None
    config: WellConfig
    well_hypothesis: bool

    def __post_init__(self):
        if self.q_first is not None and not np.isfinite(self.q_first):
            raise ContractError("q_first must be finite")


def trial_scale(bump: BumpProfile, width, x):
    """phi(x/width)/sqrt(width), width = n d for psi_n: the L2 norm stays 1
    and the derivative's is ||phi'||/width; width may broadcast against x."""
    if not np.all(np.greater(width, 0.0)):
        raise ContractError("width must be positive")
    return bump(np.asarray(x, dtype=float) / width) / np.sqrt(width)


def _gap(config: WellConfig) -> float:
    """W d (alpha0 - alpha1) d, a pure number."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall = float(ends[0]) ** 2 + float(ends[1]) ** 2
    return wall * config.d * ((config.alpha0 - config.alpha1) * config.d)


def _tail(bump: BumpProfile, s: float) -> float:
    """int_plateau^s of the raw bump squared; the quadrature runs only past the plateau."""
    w = bump.support - bump.plateau
    u0 = min(max((bump.support - s) / w, 0.0), 1.0)
    if u0 == 1.0:
        return 0.0
    return w * float(_unit_integral(lambda u: _smoothstep(u) ** 2, u0))


def _nq(bump: BumpProfile, rho: float, gap: float, n: int) -> float:
    """n d^2 Q[psi_n] = ||phi'||^2/n - gap n m(rho/n) with n m = 2 (min(rho,
    plateau n) + n tail)/raw^2: n^2 is never formed, so neither term
    overflows or underflows as n grows."""
    x = float(n)
    tail = _tail(bump, min(rho / x, bump.support))
    mass = 2.0 * (min(rho, bump.plateau * x) + x * tail) / bump._norm**2
    return bump.deriv_norm_sq / x - gap * mass


def q_form(config: WellConfig, bump: BumpProfile, n: int) -> float:
    """Q[psi_n] by the separable reduction: the plateau part of the bump's
    mass in closed form, the transition part by one 64-point Gauss-Legendre
    rule, whose interval is empty once a/(n d) <= plateau."""
    if n < 1:
        raise ContractError("n must be >= 1")
    return _nq(bump, config.a / config.d, _gap(config), n) / float(n) / config.d / config.d


def existence_test(config: WellConfig, bump: BumpProfile) -> QReport:
    """The least n with Q[psi_n] < 0, by bisection on the one sign change
    of n^2 Q (module docstring).

    well_hypothesis records whether int(alpha - alpha0) = 2a(alpha1 -
    alpha0) < 0 holds; with it False the test makes no claim.  The upper
    end is max(ceil(rho/plateau), floor(n_c) + 1), doubled while rounding
    leaves Q >= 0 there; n is a Python int, exact past 2^53.  The report
    is inconclusive only where that end is not finite in binary64."""
    if not config.is_well:
        return QReport(None, None, config, False)
    rho, gap = config.a / config.d, _gap(config)
    n_c = bump.deriv_norm_sq * bump._norm * bump._norm / 2.0 / gap / rho if rho else math.inf
    edge = rho / bump.plateau
    if not (math.isfinite(n_c) and math.isfinite(edge)):
        return QReport(None, None, config, True)
    lo, hi = 0, max(math.ceil(edge), math.floor(n_c) + 1)
    while not _nq(bump, rho, gap, hi) < 0.0:
        hi *= 2
        if hi > sys.float_info.max:
            return QReport(None, None, config, True)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _nq(bump, rho, gap, mid) < 0.0 else (mid, hi)
    q = _nq(bump, rho, gap, hi) / float(hi) / config.d / config.d
    return QReport(hi, q, config, True)
