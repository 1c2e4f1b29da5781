"""Show that every answer check can fail.

    python3 bench/selftest.py

Solves a few fixed wells through the CLI exactly as the benchmark does,
confirms that the real answers pass every check, then corrupts them one
way at a time -- a lambda moved outside its bracket, a dropped state, a
branch that rises with a, an oracle value off by more than the tolerance,
a scaled copy that breaks covariance, a damaged output file -- and
requires the named check to report each corruption.  Exits 1 if a real
answer fails or a corruption goes unreported, or if some check of
checks.CHECKS is never made to fail.
"""

from __future__ import annotations

import copy
import os
import shutil
import signal
import sys

import run  # pins threads and puts robinstrip on the path
from checks import CHECKS, ORACLE_TOL
from workloads import SCALE, Op, Well, check_answer


def _solve(ops: list[Op], run_dir: str) -> dict:
    answers = {}
    for op in ops:
        res = run.run_op(op, run_dir, run.cli.main, None)
        if res.status != "ok":
            sys.exit(f"{op.key}: {res.status}")
        answers[op.key] = res.answer
    return answers


def _with_states(answer: dict, states) -> dict:
    out = copy.deepcopy(answer)
    out["states"] = sorted(states, key=lambda t: t[1])
    return out


def _sweep_with(answer: dict, edit) -> dict:
    """Apply edit(rows) to both exports, so only the physics changes."""
    out = copy.deepcopy(answer)
    for key in ("csv_rows", "json_rows"):
        edit(out[key])
        out[key].sort(key=lambda row: (row["sweep_value"], row["lam"]))
    out["reported_rows"] = len(out["csv_rows"])
    return out


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    run_dir = os.path.join(run.OUT, f"selftest-pid{os.getpid()}")
    os.makedirs(run_dir)
    one = Op("one", "point", Well(20.0, 5.0, 0.3, 1.0))
    several = Op("several", "point", Well(40.0, 1.0, 1.2, 0.8))
    sweep = Op("sweep", "sweep", Well(1e5, 1e-5, 0.7, 1.0), ratios=(0.7, 1.2, 1.7))
    oracle = Op("oracle", "oracle", Well(20.0, 3.0, 0.35, 1.0))
    scaled = Op("scaled", "scaled",
                Well(20.0 / SCALE, 5.0 / SCALE, 0.3 * SCALE, 1.0 * SCALE), partner="one")
    try:
        answers = _solve([one, several, sweep, oracle], run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # The scaled copy cannot be solved today; its exact answer is the
    # partner's scaled by 1/s^2.
    answers["scaled"] = _with_states(
        answers["one"], [(sec, lam / SCALE**2) for sec, lam in answers["one"]["states"]])

    ok = True
    for op in (one, several, sweep, oracle, scaled):
        fails = check_answer(op, answers[op.key], answers)
        print(f"real answer {op.key:8s}: {'passes' if not fails else fails}")
        ok &= not fails

    one_states = answers["one"]["states"]
    many = answers["several"]["states"]
    b_many = several.well.bracketing()
    anti = [s for s in many if s[0] == "antisymmetric"]
    top = max(many, key=lambda t: t[1])

    def drop_top_at_last(rows):
        last = max(r["sweep_value"] for r in rows)
        prev = sorted({r["sweep_value"] for r in rows})[-2]
        while sum(r["sweep_value"] == last for r in rows) >= sum(r["sweep_value"] == prev
                                                               for r in rows):
            i = max((i for i, r in enumerate(rows) if r["sweep_value"] == last),
                    key=lambda i: rows[i]["lam"])
            del rows[i]

    def raise_first_at_last(rows):
        values = sorted({r["sweep_value"] for r in rows})
        prev = min(r["lam"] for r in rows if r["sweep_value"] == values[-2])
        first = min((r for r in rows if r["sweep_value"] == values[-1]), key=lambda r: r["lam"])
        first["lam"] = prev + 1e-3

    def damage_svg(answer):
        out = copy.deepcopy(answer)
        out["svg"] = out["svg"][: len(out["svg"]) // 2]
        return out

    def edit_csv(answer):
        out = copy.deepcopy(answer)
        out["csv_rows"][0]["lam"] += 1e-9
        return out

    def oracle_with(values):
        return dict(answers["oracle"], oracle=values)

    unit = oracle.well.bracketing().unit
    mutations = [
        ("lambda moved below E_1(alpha1)", one, "window",
         _with_states(answers["one"], [(s, one.well.bracketing().e1_in * 0.999)
                                       for s, _ in one_states])),
        ("top lambda moved below its bracket", several, "merged_bracket",
         _with_states(answers["several"], [x for x in many if x is not top]
                      + [(top[0], b_many.e1_in + 1e-6 * b_many.unit)])),
        ("only state dropped", one, "symmetric_state", _with_states(answers["one"], [])),
        ("antisymmetric state dropped", several, "sector_count",
         _with_states(answers["several"], [x for x in many if x is not anti[0]])),
        ("certificate removed", one, "existence",
         dict(answers["one"], first_negative_n=None)),
        ("scaled lambda off by 1e-6", scaled, "scale_covariance",
         _with_states(answers["scaled"], [(s, lam * (1 + 1e-6))
                                          for s, lam in answers["scaled"]["states"]])),
        ("state dropped at the widest well", sweep, "sweep_count",
         _sweep_with(answers["sweep"], drop_top_at_last)),
        ("ground branch rises with a", sweep, "sweep_branch",
         _sweep_with(answers["sweep"], raise_first_at_last)),
        ("CSV row edited", sweep, "sweep_files", edit_csv(answers["sweep"])),
        ("SVG truncated", sweep, "sweep_files", damage_svg(answers["sweep"])),
        ("oracle state dropped", oracle, "oracle_count",
         oracle_with(answers["oracle"]["oracle"][:-1])),
        ("oracle value off by 1.01 tol", oracle, "oracle_diff",
         oracle_with([v + 1.01 * ORACLE_TOL * unit for v in answers["oracle"]["oracle"]])),
    ]
    failed_checks = set()
    for label, op, check, answer in mutations:
        fails = check_answer(op, answer, answers)
        names = {msg.split(":")[0] for msg in fails}
        caught = check in names
        failed_checks |= names
        ok &= caught
        print(f"{label:38s} -> {check:17s} {'caught' if caught else 'MISSED'} {sorted(names)}")
    never = [c for c in CHECKS if c not in failed_checks]
    if never:
        print(f"checks never made to fail: {never}")
    ok &= not never
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
