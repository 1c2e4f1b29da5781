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
with Q < 0 certifies existence.  The tests check the reduction against a
plain 2D quadrature of h[psi_n] - E_1(alpha0)||psi_n||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ContractError
from .modematch import WellConfig
from .quadrature import adaptive_simpson
from .transverse import transversal_levels

_MAX_N = 2**20
_Q_BLOCK = 64  # n per batched Simpson call in existence_test: memory stays bounded


def _g(t):
    """exp(-1/t) for t > 0, else 0; the standard smooth transition germ."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


def _g_prime(t):
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe) / safe**2, 0.0)


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    a = _g(t)
    b = _g(1.0 - t)
    return a / (a + b)


def _smoothstep_deriv(t):
    a = _g(t)
    b = _g(1.0 - t)
    da = _g_prime(t)
    db = _g_prime(1.0 - t)
    return (da * b + a * db) / (a + b) ** 2


@lru_cache(maxsize=16)
def _bump_constants(plateau: float, support: float) -> tuple[float, float]:
    """(raw L2 norm, ||phi'||^2 of the L2-normalized bump)."""
    w = support - plateau

    def raw_sq(x):
        return _smoothstep((support - x) / w) ** 2

    def raw_deriv_sq(x):
        return (_smoothstep_deriv((support - x) / w) / w) ** 2

    norm_sq = 2.0 * plateau + 2.0 * adaptive_simpson(raw_sq, plateau, support)
    deriv_sq = 2.0 * adaptive_simpson(raw_deriv_sq, plateau, support)
    return float(np.sqrt(norm_sq)), float(deriv_sq / norm_sq)


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
        ok = (np.isfinite(self.plateau) and np.isfinite(self.support)
              and 0.0 < self.plateau < self.support)
        if not ok:
            raise ConfigError(
                f"need 0 < plateau < support, got plateau={self.plateau!r} "
                f"support={self.support!r}"
            )

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
        if not all(np.isfinite(q) for q in self.q_values):
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
    (alpha1 - alpha0) int_{-a}^{a} phi_n^2, evaluated by adaptive Simpson
    from 64 base points (the integration range is clipped to the trial
    support)."""
    if n < 1:
        raise ContractError("n must be >= 1")
    return float(_q_values(config, bump, np.array([n]))[0])


def _q_values(config: WellConfig, bump: BumpProfile, n: np.ndarray) -> np.ndarray:
    """q_form at each entry of n, one adaptive Simpson row per n."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
    hi = np.minimum(config.a, bump.support * n)
    well = adaptive_simpson(lambda x, n: trial_scale(bump, n, x) ** 2, -hi, hi, n)
    return bump.deriv_norm_sq / n**2 + wall_weight * (config.alpha1 - config.alpha0) * well


def existence_test(config: WellConfig, bump: BumpProfile, n_max: int) -> QReport:
    """Evaluate Q along n = 1..n_max and report the first sign change.

    well_hypothesis records whether int(alpha - alpha0) = 2a(alpha1 -
    alpha0) < 0 actually holds; with it False the test makes no claim
    (and Q stays positive).  Q is evaluated for 64 n at a time, one
    batched Simpson each.  n_max above 2^20 (about 15 s of Q evaluations)
    is a ContractError, raised before anything is allocated."""
    if not 1 <= n_max <= _MAX_N:
        raise ContractError(f"n_max must be in [1, {_MAX_N}], got {n_max}")
    n_values = tuple(range(1, n_max + 1))
    blocks = [np.arange(n, min(n + _Q_BLOCK, n_max + 1)) for n in range(1, n_max + 1, _Q_BLOCK)]
    q_values = tuple(np.concatenate([_q_values(config, bump, b) for b in blocks]).tolist())
    first = next((n for n, q in zip(n_values, q_values) if q < 0.0), None)
    return QReport(n_values=n_values, q_values=q_values, first_negative_n=first,
                   config=config, well_hypothesis=config.alpha1 < config.alpha0)
