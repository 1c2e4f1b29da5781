"""Answer checks that share nothing with robinstrip's solver.

Every bound here is computed from the well parameters alone.  E_1(alpha)
is the squared root of the even half-interval factor of the transversal
dispersion relation, alpha cos(kd/2) - k sin(kd/2), found by brentq on
(0, pi/d).  Cutting the strip at |x| = a by Dirichlet or Neumann lines
decouples a well segment with energies E_1(alpha1) + (j pi / 2a)^2 and
outer half-strips with nothing below E_1(alpha0); Dirichlet-Neumann
bracketing (Reed & Simon IV, XIII.15) turns those segment energies into a
floor and a cap on the state count of each parity sector and into a
two-sided bracket for the n-th state.

Each check returns a list of failure messages, each starting with the
check's name; an empty list means the answer passed.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from scipy.optimize import brentq

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

# Slack, in units of (pi/d)^2, for the inequalities that a truncated
# expansion only meets up to its own accuracy (acceptance check 5's value).
BRACKET_SLACK = 1e-8
# Matching vs oracle tolerance, in units of (pi/d)^2 (acceptance check 3).
ORACLE_TOL = 5e-3
# Relative agreement required of s^2 lambda(scaled) and lambda(partner).
SCALE_REL_TOL = 1e-8

CHECKS = ("window", "sector_count", "symmetric_state", "existence",
          "merged_bracket", "scale_covariance", "sweep_count",
          "sweep_branch", "sweep_files", "oracle_count", "oracle_diff")


def e1(alpha: float, d: float) -> float:
    """Lowest transversal Robin energy of the interval (0, d)."""
    def factor(k: float) -> float:
        return alpha * math.cos(0.5 * k * d) - k * math.sin(0.5 * k * d)
    k = brentq(factor, 0.0, math.pi / d, xtol=1e-300, rtol=4.0 * 2.220446049250313e-16)
    return k * k


@dataclass(frozen=True)
class Bracketing:
    """Thresholds and segment energies of one well."""

    e1_in: float
    e1_out: float
    a: float
    unit: float          # (pi/d)^2

    @classmethod
    def of(cls, alpha0: float, alpha1: float, a: float, d: float) -> "Bracketing":
        return cls(e1(alpha1, d), e1(alpha0, d), a, (math.pi / d) ** 2)

    def segment(self, j: int) -> float:
        return self.e1_in + (j * math.pi / (2.0 * self.a)) ** 2

    def below_threshold(self) -> list[int]:
        """Indices j >= 0 whose segment energy lies below E_1(alpha0)."""
        js = []
        j = 0
        while self.segment(j) < self.e1_out:
            js.append(j)
            j += 1
        return js

    def sector_limits(self) -> dict[str, tuple[int, int]]:
        """(Dirichlet floor, Neumann cap) of each sector's state count.

        Neumann segment modes are j >= 0, Dirichlet ones j >= 1; even j is
        symmetric for Neumann and odd j for Dirichlet."""
        js = self.below_threshold()
        return {
            SYMMETRIC: (sum(1 for j in js if j % 2 == 1),
                        sum(1 for j in js if j % 2 == 0)),
            ANTISYMMETRIC: (sum(1 for j in js if j >= 2 and j % 2 == 0),
                            sum(1 for j in js if j % 2 == 1)),
        }


def check_states(b: Bracketing, states: list[tuple[str, float]],
                 is_well: bool, sectors: bool = True) -> list[str]:
    """Window, count and bracket checks of one parameter point.

    states are (sector, lambda) pairs; with sectors=False the sector labels
    are unknown and the counts are checked on the total only."""
    fails = []
    slack = BRACKET_SLACK * b.unit
    lams = sorted(lam for _, lam in states)
    for lam in lams:
        if not b.e1_in < lam < b.e1_out:
            fails.append(f"window: lambda={lam!r} outside ({b.e1_in!r}, {b.e1_out!r})")
    limits = b.sector_limits()
    if sectors:
        for sector, (floor, cap) in limits.items():
            count = sum(1 for s, _ in states if s == sector)
            if not floor <= count <= cap:
                fails.append(f"sector_count: {count} {sector} states outside [{floor}, {cap}]")
        if is_well and not any(s == SYMMETRIC for s, _ in states):
            fails.append("symmetric_state: alpha1 < alpha0 but no symmetric state")
    else:
        floor = sum(f for f, _ in limits.values())
        cap = sum(c for _, c in limits.values())
        if not floor <= len(lams) <= cap:
            fails.append(f"sector_count: {len(lams)} states outside [{floor}, {cap}]")
        if is_well and not lams:
            fails.append("symmetric_state: alpha1 < alpha0 but no state")
    for n, lam in enumerate(lams, start=1):
        lo, hi = b.segment(n - 1), b.segment(n)
        if not lo - slack <= lam <= hi + slack:
            fails.append(f"merged_bracket: lambda_{n}={lam!r} outside [{lo!r}, {hi!r}]")
    return fails


def check_existence(is_well: bool, first_negative_n: int | None) -> list[str]:
    if is_well and first_negative_n is None:
        return ["existence: alpha1 < alpha0 but the report names no negative Q"]
    return []


def check_scaled(partner: list[tuple[str, float]], scaled: list[tuple[str, float]],
                 s: float) -> list[str]:
    """(alpha, a, d) -> (alpha/s, s a, s d) maps lambda to lambda/s^2."""
    p = sorted(partner, key=lambda t: t[1])
    q = sorted(scaled, key=lambda t: t[1])
    if [sec for sec, _ in p] != [sec for sec, _ in q]:
        return [f"scale_covariance: sectors {[x for x, _ in q]} vs partner {[x for x, _ in p]}"]
    fails = []
    for (_, lp), (_, lq) in zip(p, q):
        if abs(s * s * lq - lp) > SCALE_REL_TOL * abs(lp):
            fails.append(f"scale_covariance: s^2 lambda={s * s * lq!r} vs partner {lp!r}")
    return fails


def check_sweep(brackets: list[Bracketing], spectra: list[list[tuple[str, float]]],
                is_well: bool) -> list[str]:
    """brackets and spectra in order of increasing a."""
    fails = []
    for b, states in zip(brackets, spectra):
        fails += [f"{m} (a={b.a!r})" for m in check_states(b, states, is_well)]
    counts = [len(s) for s in spectra]
    if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])):
        fails.append(f"sweep_count: counts {counts} decrease as a grows")
    for i in range(len(spectra) - 1):
        lo = sorted(lam for _, lam in spectra[i])
        hi = sorted(lam for _, lam in spectra[i + 1])
        slack = BRACKET_SLACK * brackets[i].unit
        for n, (l1, l2) in enumerate(zip(lo, hi), start=1):
            if l2 > l1 + slack:
                fails.append(f"sweep_branch: lambda_{n} rises from {l1!r} to {l2!r}")
    return fails


def check_sweep_files(csv_rows: list[dict], json_rows: list[dict], svg_text: str,
                      reported_rows: int) -> list[str]:
    fails = []
    if csv_rows != json_rows:
        fails.append("sweep_files: CSV and JSON rows differ")
    if len(csv_rows) != reported_rows:
        fails.append(f"sweep_files: {len(csv_rows)} CSV rows, {reported_rows} reported")
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        fails.append(f"sweep_files: SVG does not parse: {exc}")
    else:
        if not root.tag.endswith("svg"):
            fails.append(f"sweep_files: SVG root element is {root.tag!r}")
    return fails


def check_oracle(b: Bracketing, matching: list[float | None],
                 oracle: list[float | None], is_well: bool) -> list[str]:
    """Same count, each pair within ORACLE_TOL (pi/d)^2; the matching
    values also meet the point checks that need no sector labels."""
    fails = []
    if len(matching) != len(oracle) or None in matching or None in oracle:
        fails.append(f"oracle_count: {sum(m is not None for m in matching)} matching vs "
                     f"{sum(o is not None for o in oracle)} oracle states")
    tol = ORACLE_TOL * b.unit
    for n, (m, o) in enumerate(zip(matching, oracle), start=1):
        if m is not None and o is not None and abs(m - o) > tol:
            fails.append(f"oracle_diff: state {n} differs by {abs(m - o)!r} > {tol!r}")
    found = [m for m in matching if m is not None]
    fails += check_states(b, [("", m) for m in found], is_well, sectors=False)
    return fails
