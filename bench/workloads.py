"""Seeded inputs of the three workloads and readers for their outputs.

A run is made of whole rounds.  Round r draws its inputs with numpy's
generator seeded by (seed, r), so the same seed always gives the same
inputs.  A point round takes one well from each stratum; sweep_a and
oracle rounds are single operations that cycle through the strata, so
their runs end within one operation of the time asked for.  Every draw
is a new continuous sample, so no two operations of a run share a well or
a coupling pair (alpha0, alpha1, d): robinstrip memoises mode tables per
well within a process, and a repeated well would time a cache hit that no
command-line user sees.

The point workload adds to each round a well fixed by the round index
alone and its copy scaled by s = 1e-2.  The copy hangs today (golden
section cannot narrow below one ulp of lambda > 2^13 when tol is an
absolute 1e-12), so it runs under a time limit and counts as failed;
since it does not depend on the seed, every run fails the same share of
its operations.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from checks import (Bracketing, check_existence, check_oracle, check_scaled,
                    check_states, check_sweep, check_sweep_files)

WORKLOADS = ("point", "sweep_a", "oracle")

SCALE = 1e-2
SCALED_TIME_LIMIT_S = 4.0
# Seed of the fixed partner wells of the scaled copies; not the run's seed.
PARTNER_SEED = 20071122
# Segment energies closer than this share of the window to E_1(alpha0)
# mark a well whose last state may sit closer to threshold than any
# fixed-resolution scan (or the oracle's margin) can resolve; such draws
# are redrawn.
THRESHOLD_CLEARANCE = 0.05
ORACLE_L_OVER_D = 4.0
ORACLE_REFINEMENTS = 2
# a/d of the three points of every sweep, one draw from each interval.
SWEEP_RATIOS = ((0.6, 0.85), (1.1, 1.35), (1.6, 1.85))


@dataclass(frozen=True)
class Well:
    alpha0: float
    alpha1: float
    a: float
    d: float

    def flags(self) -> list[str]:
        return ["--alpha0", repr(self.alpha0), "--alpha1", repr(self.alpha1),
                "--a", repr(self.a), "--d", repr(self.d)]

    def bracketing(self) -> Bracketing:
        return Bracketing.of(self.alpha0, self.alpha1, self.a, self.d)

    def with_a(self, a: float) -> "Well":
        return Well(self.alpha0, self.alpha1, a, self.d)


@dataclass(frozen=True)
class Stratum:
    """Log-uniform ranges of alpha0*d, alpha1/alpha0 and d; uniform a/d
    (sweeps take their a/d values from SWEEP_RATIOS instead)."""

    alpha0_d: tuple[float, float]
    ratio: tuple[float, float]
    a_d: tuple[float, float] | None = None
    d: tuple[float, float] = (0.6, 1.6)


# The variational certificate's first negative n grows like d and like
# alpha0 d, so point wells keep d <= 1 and moderate couplings: at the
# corners of these boxes it stays at or below 52 of the default n_max = 64.
POINT_STRATA = (
    Stratum(alpha0_d=(3.0, 6.0), ratio=(0.3, 0.5), a_d=(0.3, 0.5), d=(0.5, 1.0)),
    Stratum(alpha0_d=(10.0, 20.0), ratio=(0.15, 0.3), a_d=(0.25, 0.4), d=(0.5, 1.0)),
    Stratum(alpha0_d=(15.0, 40.0), ratio=(0.03, 0.1), a_d=(1.2, 1.8), d=(0.5, 1.0)),
    Stratum(alpha0_d=(30.0, 50.0), ratio=(0.02, 0.05), a_d=(0.5, 0.8), d=(0.5, 1.0)),
    Stratum(alpha0_d=(0.5, 1.5), ratio=(0.05, 0.2), a_d=(0.6, 1.2), d=(0.5, 1.0)),
    Stratum(alpha0_d=(6.0, 12.0), ratio=(0.1, 0.25), a_d=(0.3, 0.5), d=(0.5, 1.0)),
)
PARTNER_STRATUM = Stratum(alpha0_d=(15.0, 20.0), ratio=(0.2, 0.25), a_d=(0.3, 0.35),
                          d=(1.0, 1.0))
SWEEP_STRATA = (
    Stratum(alpha0_d=(15.0, 30.0), ratio=(0.2, 0.35)),
    Stratum(alpha0_d=(30.0, 60.0), ratio=(0.05, 0.15)),
    Stratum(alpha0_d=(3.0, 8.0), ratio=(0.1, 0.3)),
    # the hard-wall pair (1e5, 1e-5) of scripts/reproduce_figures.py, jittered
    Stratum(alpha0_d=(5e4, 2e5), ratio=(6e-11, 1.6e-10)),
)
# Oracle wells hold exactly one state, kept deep enough that the oracle's
# confidence margin below threshold (3 (error estimate + exp(-k_1 L)) at
# L = 4d) cannot drop it: see oracle_depth_ok.  Couplings stay at
# alpha0 d <= 60: at alpha0 d from 1e3 to 1e4 the oracle on the d/128 grid
# missed mode matching by about twice check 3's tolerance.
ORACLE_STRATA = (
    Stratum(alpha0_d=(15.0, 25.0), ratio=(0.08, 0.15), a_d=(0.3, 0.45)),
    Stratum(alpha0_d=(30.0, 60.0), ratio=(0.05, 0.1), a_d=(0.35, 0.55)),
    Stratum(alpha0_d=(2.0, 4.0), ratio=(0.05, 0.15), a_d=(0.35, 0.9), d=(0.6, 1.2)),
    Stratum(alpha0_d=(5.0, 10.0), ratio=(0.05, 0.15), a_d=(0.45, 0.65)),
)


@dataclass(frozen=True)
class Op:
    """One measured operation: one or two robinstrip CLI calls."""

    key: str
    kind: str                      # point | scaled | sweep | oracle
    well: Well
    ratios: tuple[float, ...] = ()  # sweep: a/d values
    partner: str | None = None      # scaled: key of the unscaled well
    time_limit: float | None = None


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def clear_of_threshold(well: Well) -> bool:
    b = well.bracketing()
    gap = b.e1_out - b.e1_in
    if not gap > 0.0:
        return False
    margin = THRESHOLD_CLEARANCE * gap
    j = 0
    while b.segment(j) < b.e1_out + margin:
        if abs(b.segment(j) - b.e1_out) < margin:
            return False
        j += 1
    return True


def oracle_depth_ok(well: Well) -> bool:
    """x = sqrt(E_1(alpha0) - E_1(alpha1)) 2a / pi in [0.5, 0.85]: the
    Neumann cap 1 + floor(x) is 1, and the single state is deep."""
    b = well.bracketing()
    x = math.sqrt(b.e1_out - b.e1_in) * 2.0 * well.a / math.pi
    return 0.5 <= x <= 0.85 and clear_of_threshold(well)


def _draw(rng: np.random.Generator, st: Stratum, ratios: tuple[float, ...] = (),
          accept=clear_of_threshold) -> Well:
    """A well of the stratum that accept() takes; with ratios, a sweep's
    well (a = ratios[0] d) whose every sweep point is clear of threshold."""
    while True:
        d = _loguniform(rng, *st.d) if st.d[0] < st.d[1] else st.d[0]
        alpha0 = _loguniform(rng, *st.alpha0_d) / d
        alpha1 = alpha0 * _loguniform(rng, *st.ratio)
        if ratios:
            well = Well(alpha0, alpha1, ratios[0] * d, d)
            if all(clear_of_threshold(well.with_a(r * d)) for r in ratios):
                return well
        else:
            well = Well(alpha0, alpha1, d * float(rng.uniform(*st.a_d)), d)
            if accept(well):
                return well


def round_ops(workload: str, seed: int, r: int) -> list[Op]:
    """The operations of round r.  A point round holds one well of each
    stratum, the fixed partner and its scaled copy; a sweep_a or oracle
    round is one operation, of stratum r mod 4."""
    rng = np.random.default_rng([seed, r])
    if workload == "point":
        ops = [Op(f"r{r}.p{i}", "point", _draw(rng, st)) for i, st in enumerate(POINT_STRATA)]
        w = _draw(np.random.default_rng([PARTNER_SEED, r]), PARTNER_STRATUM)
        scaled = Well(w.alpha0 / SCALE, w.alpha1 / SCALE, w.a * SCALE, w.d * SCALE)
        ops.append(Op(f"r{r}.partner", "point", w))
        ops.append(Op(f"r{r}.scaled", "scaled", scaled, partner=f"r{r}.partner",
                      time_limit=SCALED_TIME_LIMIT_S))
        return ops
    if workload == "sweep_a":
        i = r % len(SWEEP_STRATA)
        ratios = tuple(float(rng.uniform(lo, hi)) for lo, hi in SWEEP_RATIOS)
        return [Op(f"r{r}.s{i}", "sweep", _draw(rng, SWEEP_STRATA[i], ratios), ratios=ratios)]
    if workload == "oracle":
        i = r % len(ORACLE_STRATA)
        return [Op(f"r{r}.o{i}", "oracle", _draw(rng, ORACLE_STRATA[i], accept=oracle_depth_ok))]
    raise ValueError(f"unknown workload {workload!r}")


def cycle(workload: str) -> int:
    """Rounds that visit every stratum of the workload once."""
    return {"point": 1, "sweep_a": len(SWEEP_STRATA), "oracle": len(ORACLE_STRATA)}[workload]


# --------------------------------------------------------------------------
# command lines


def argvs(op: Op, out_dir: str) -> list[list[str]]:
    """The CLI calls of one operation; writes a sweep's config file."""
    if op.kind in ("point", "scaled"):
        return [["spectrum", *op.well.flags(), "--out-dir", out_dir],
                ["existence", *op.well.flags(), "--out-dir", out_dir]]
    if op.kind == "oracle":
        return [["oracle", *op.well.flags(), "--L", repr(ORACLE_L_OVER_D * op.well.d),
                 "--refinements", str(ORACLE_REFINEMENTS), "--out-dir", out_dir]]
    w = op.well
    path = os.path.join(out_dir, "sweep.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"well: {{alpha0: {w.alpha0!r}, alpha1: {w.alpha1!r}, a: {w.a!r}, d: {w.d!r}}}\n"
                 f"sweep: {{parameter: a, values: [{', '.join(map(repr, op.ratios))}]}}\n"
                 f"output: {{dir: {json.dumps(out_dir)}, formats: [csv, json, svg]}}\n")
    return [["sweep", "--config", path]]


# --------------------------------------------------------------------------
# answers and checks


def _spectrum_states(csv_text: str) -> list[tuple[str, float]]:
    rows = csv.DictReader(csv_text.splitlines())
    return [(row["sector"], float(row["lambda"])) for row in rows]


def _sweep_rows(path: str) -> list[dict]:
    """CSV rows keyed like the JSON export (its lambda columns are lam*)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k.replace("lambda", "lam"): (v if k == "sector" else int(v) if k == "n"
                                          else float(v))
             for k, v in row.items()} for row in rows]


def read_answer(op: Op, out_dir: str, stdouts: list[str]):
    """What the operation answered, from its stdout and written files."""
    if op.kind in ("point", "scaled"):
        with open(os.path.join(out_dir, "existence.json"), encoding="utf-8") as fh:
            first = json.load(fh)["first_negative_n"]
        return {"states": _spectrum_states(stdouts[0]), "first_negative_n": first}
    if op.kind == "oracle":
        matching, oracle = [], []
        for row in csv.DictReader(stdouts[0].splitlines()):
            matching.append(float(row["lambda_matching"]) if row["lambda_matching"] else None)
            oracle.append(float(row["lambda_oracle"]) if row["lambda_oracle"] else None)
        return {"matching": matching, "oracle": oracle}
    csv_rows = _sweep_rows(os.path.join(out_dir, "sweep_a.csv"))
    with open(os.path.join(out_dir, "sweep_a.json"), encoding="utf-8") as fh:
        json_rows = json.load(fh)
    with open(os.path.join(out_dir, "sweep_a.svg"), encoding="utf-8") as fh:
        svg_text = fh.read()
    return {"csv_rows": csv_rows, "json_rows": json_rows, "svg": svg_text,
            "reported_rows": int(stdouts[0].split()[0])}


def check_answer(op: Op, answer, answers: dict) -> list[str]:
    """Failure messages of one answer; answers maps op keys to the
    answers of the other successful operations of its run."""
    w = op.well
    is_well = w.alpha1 < w.alpha0
    if op.kind in ("point", "scaled"):
        fails = check_states(w.bracketing(), answer["states"], is_well)
        fails += check_existence(is_well, answer["first_negative_n"])
        if op.kind == "scaled":
            partner = answers.get(op.partner)
            if partner is None:
                fails.append("scale_covariance: unscaled partner has no answer")
            else:
                fails += check_scaled(partner["states"], answer["states"], SCALE)
        return fails
    if op.kind == "oracle":
        return check_oracle(w.bracketing(), answer["matching"], answer["oracle"], is_well)
    fails = check_sweep_files(answer["csv_rows"], answer["json_rows"], answer["svg"],
                              answer["reported_rows"])
    brackets, spectra = [], []
    for ratio in op.ratios:
        brackets.append(w.with_a(ratio * w.d).bracketing())
        spectra.append([(row["sector"], row["lam"]) for row in answer["json_rows"]
                        if row["sweep_value"] == ratio])
    return fails + check_sweep(brackets, spectra, is_well)
