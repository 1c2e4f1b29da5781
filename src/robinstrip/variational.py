"""Variational existence test for bound states below the continuum.

For a coupling profile alpha(x) with alpha -> alpha0 at infinity and
integral(alpha - alpha0) < 0, a bound state below E_1(alpha0) exists.
The proof is constructive: with psi_n(x, y) = phi_n(x) chi_1(y; alpha0),
phi_n(x) = n^{-1/2} phi(x/n) a widening smooth bump, the shifted form

    Q[psi_n] = h[psi_n] - E_1(alpha0) ||psi_n||^2

eventually turns negative.  Using the transversal eigen-identity
int |chi_1'|^2 + alpha0 (chi_1(0)^2 + chi_1(d)^2) = E_1(alpha0), Q
collapses to the separable reduction

    Q = n^{-2} ||phi'||^2
        + (chi_1(0)^2 + chi_1(d)^2) * int (alpha(x) - alpha0) phi_n(x)^2 dx,

whose well term scales like -c/n against the kinetic +c'/n^2: the first n
with Q < 0 certifies existence.  For the rectangular well, t = x/n turns
the well integral into the bump's own mass on [-min(a/n, support),
min(a/n, support)]: exact on the plateau, and one fixed Gauss-Legendre
rule on the smoothstep transition.  The tests check the reduction against
a plain 2D quadrature of h[psi_n] - E_1(alpha0)||psi_n||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError
from .modematch import WellConfig
from .quadrature import gauss_legendre
from .transverse import transversal_levels

_MAX_N = 2**20
_Q_BLOCK = 64  # n per batched quadrature: memory stays bounded


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
    """int_{u0}^{1} f(u) du for each entry of u0, by one 64-point
    Gauss-Legendre rule mapped onto [u0, 1]; f is C-infinity here, so the
    rule reaches rounding, and u0 = 1 gives exactly 0.  Each row is summed
    on its own, so a row has the bits of a one-row call."""
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
    [-support, support], C-infinity in between, L2-normalized.

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
    """Q values along the widening trial sequence.

    first_negative_n is the least n with Q < 0, or None if the sequence
    stayed nonnegative up to n_max (inconclusive when well_hypothesis is
    True: the test is sufficient, not sharp at finite n; no claim at all
    when it is False)."""

    n_values: tuple[int, ...]
    q_values: tuple[float, ...]
    first_negative_n: int | None
    config: WellConfig
    well_hypothesis: bool

    def __post_init__(self):
        if len(self.n_values) != len(self.q_values):
            raise ContractError("n_values and q_values must have equal length")
        if not np.isfinite(self.q_values).all():
            raise ContractError("q_values must be finite")


def trial_scale(bump: BumpProfile, n: int, x):
    """The widened trial profile phi_n(x) = n^{-1/2} phi(x/n); the scaling
    keeps ||phi_n||_{L2} = 1 while ||phi_n'|| = ||phi'||/n; n may be an
    array broadcasting against x."""
    if np.any(np.less(n, 1)):
        raise ContractError("n must be >= 1")
    return bump(np.asarray(x, dtype=float) / n) / np.sqrt(n)


def q_form(config: WellConfig, bump: BumpProfile, n: int) -> float:
    """Q[psi_n] by the separable reduction.

    For the rectangular well the coupling integral collapses to
    (alpha1 - alpha0) int_{-a}^{a} phi_n^2.  With t = x/n this is the
    normalized bump's mass on [-s, s], s = min(a/n, support): the plateau
    part in closed form, the transition part by one 64-point
    Gauss-Legendre rule, whose interval is empty once s <= plateau."""
    if n < 1:
        raise ContractError("n must be >= 1")
    return float(_q_values(config, bump, np.array([n]))[0])


def _q_values(config: WellConfig, bump: BumpProfile, n: np.ndarray) -> np.ndarray:
    """q_form at each entry of n.  Only rows with u0 < 1 (s past the
    plateau) take the quadrature, _Q_BLOCK at a time; the others add
    exactly 0, and each row keeps the bits of a one-row call."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
    w = bump.support - bump.plateau
    s = np.minimum(config.a / n, bump.support)
    u0 = np.clip((bump.support - s) / w, 0.0, 1.0)
    tail = np.zeros_like(u0)
    rows = np.flatnonzero(u0 < 1.0)
    for start in range(0, rows.size, _Q_BLOCK):
        block = rows[start:start + _Q_BLOCK]
        tail[block] = w * _unit_integral(lambda u: _smoothstep(u) ** 2, u0[block])
    well = 2.0 * (np.minimum(s, bump.plateau) + tail) / bump._norm**2
    return bump.deriv_norm_sq / n**2 + wall_weight * (config.alpha1 - config.alpha0) * well


def existence_test(config: WellConfig, bump: BumpProfile, n_max: int) -> QReport:
    """Evaluate Q along n = 1..n_max and report the first sign change.

    well_hypothesis records whether int(alpha - alpha0) = 2a(alpha1 -
    alpha0) < 0 actually holds; with it False the test makes no claim
    (and Q stays positive).  Q is evaluated for all n at once; the
    quadrature runs only for the n with a/n past the plateau, 64 n at a
    time, one 64 x 64 Gauss-Legendre array each.  n_max = 2^20 takes
    about 0.2 s on the reference well; n_max above it is a ContractError,
    raised before anything is allocated."""
    if not 1 <= n_max <= _MAX_N:
        raise ContractError(f"n_max must be in [1, {_MAX_N}], got {n_max}")
    q = _q_values(config, bump, np.arange(1, n_max + 1))
    negative = np.flatnonzero(q < 0.0)
    return QReport(n_values=tuple(range(1, n_max + 1)), q_values=tuple(q.tolist()),
                   first_negative_n=int(negative[0]) + 1 if negative.size else None,
                   config=config, well_hypothesis=config.alpha1 < config.alpha0)
