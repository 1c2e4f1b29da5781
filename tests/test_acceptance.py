"""Acceptance gate: the nine end-to-end checks this package must satisfy.

Each test prints exactly one `[k/9] name: PASS/FAIL (...)` line with the key
measured numbers, then asserts the criterion and its runtime budget.  The
checks exercise the library end to end: transversal dispersion factorization,
threshold brackets, mode matching against the finite-difference oracle,
truncation convergence, well-width sweep phenomenology, the hard-wall limit
trend, the variational existence certificate, the essential-spectrum
threshold, and ground-state delocalization near critical coupling.
"""

import time

import numpy as np
import pytest
from conftest import lowest_fd_value, q_form_direct
from scipy.optimize import brentq

from robinstrip import (
    BumpProfile,
    ParitySector,
    RobinCrossSection,
    WellConfig,
    bound_state_energies,
    existence_test,
    oracle_bound_states,
    q_form,
    transversal_eigenvalues,
    wavefunction,
)
from robinstrip.fdoracle import make_grid
from robinstrip.transverse import dispersion

WELL = WellConfig(alpha0=20.0, alpha1=5.0, a=0.3, d=1.0)
PI2 = np.pi**2


def _emit(capsys, k, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{k}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _factor_root_union(alpha: float, d: float, n_max: int) -> np.ndarray:
    """Union of even/odd boundary-factor roots, solved per tangent branch.

    The even-parity factor alpha*cos(kd/2) - k*sin(kd/2) has one root per
    window ((n-1)pi/d, n*pi/d) for odd n, the odd-parity factor
    k*cos(kd/2) + alpha*sin(kd/2) for even n; both endpoints give opposite
    factor signs, so brentq applies directly.
    """
    def even_factor(k):
        return alpha * np.cos(k * d / 2) - k * np.sin(k * d / 2)

    def odd_factor(k):
        return k * np.cos(k * d / 2) + alpha * np.sin(k * d / 2)

    roots = []
    for n in range(1, n_max + 1):
        f = even_factor if n % 2 == 1 else odd_factor
        lo = (n - 1) * np.pi / d + 1e-13 * n * np.pi / d
        hi = n * np.pi / d - 1e-13 * n * np.pi / d
        k = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16)
        roots.append(k**2)
    return np.array(roots)


def _merged_energies(config: WellConfig, N: int) -> list[float]:
    lams = []
    for parity in (ParitySector.SYMMETRIC, ParitySector.ANTISYMMETRIC):
        lams += [s.lam for s in bound_state_energies(config, parity, N=N)]
    return sorted(lams)


def _second_moment(config: WellConfig, state, xmax: float):
    """<x^2> of the grid-normalized wavefunction on a dense-core + tail grid."""
    core = np.linspace(0.0, config.a + 2.0 * config.d, 161)
    tail = np.linspace(config.a + 2.0 * config.d, xmax, 481)[1:]
    x_half = np.concatenate([core, tail])
    x = np.concatenate([-x_half[::-1], x_half[1:]])
    y = np.linspace(0.0, config.d, 81)
    grid = wavefunction(config, state, x, y)
    density_x = np.trapezoid(grid.values**2, y, axis=1)
    return float(np.trapezoid(x**2 * density_x, x))


def test_1_dispersion_factorization(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst_rel = 0.0
    for _ in range(20):
        alpha_d = 10.0 ** rng.uniform(-3, 3)
        d = 10.0 ** rng.uniform(np.log10(0.3), np.log10(3.0))
        alpha = alpha_d / d
        cs = RobinCrossSection(alpha=alpha, d=d)
        union = _factor_root_union(alpha, d, n_max=4)
        # independent root count + refinement on the full dispersion relation
        E_hi = (4 * np.pi / d) ** 2
        E_grid = np.linspace(1e-9 / d**2, E_hi, 4001)
        f_vals = dispersion(E_grid, cs)
        sign_flips = np.nonzero(np.diff(np.sign(f_vals)) != 0)[0]
        assert len(sign_flips) == len(union), (
            f"alpha={alpha} d={d}: {len(sign_flips)} dispersion sign changes "
            f"vs {len(union)} factor roots")
        direct = np.array([
            brentq(lambda E: float(dispersion(E, cs)),
                   E_grid[i], E_grid[i + 1], xtol=1e-300, rtol=8.9e-16)
            for i in sign_flips])
        worst_rel = max(worst_rel, float(np.max(np.abs(direct - union) / union)))
    closed_rel = 0.0
    for d in (0.5, 1.0, 2.0):
        for alpha_d, level in ((np.pi / 2, 1), (3 * np.pi / 2, 2)):
            alpha = alpha_d / d
            E = transversal_eigenvalues(RobinCrossSection(alpha=alpha, d=d), level)[-1]
            closed_rel = max(closed_rel, abs(E - alpha**2) / alpha**2)
    dt = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and closed_rel <= 1e-12 and dt < 1.0
    _emit(capsys, 1, "dispersion factorization", ok,
          f"factor-union rel err {worst_rel:.2e} <= 1e-10, "
          f"closed-form E=alpha^2 rel err {closed_rel:.2e} <= 1e-12, {dt:.2f}s < 1s")
    assert worst_rel <= 1e-10
    assert closed_rel <= 1e-12
    assert dt < 1.0


def test_2_threshold_brackets_and_monotonicity(capsys):
    t0 = time.perf_counter()
    d = 1.0
    alphas = np.geomspace(1e-2, 1e3, 50)
    levels = np.array([transversal_eigenvalues(RobinCrossSection(alpha=a, d=d), 8)
                       for a in alphas])          # (50, 8)
    n = np.arange(1, 9)
    lo = ((n - 1) * np.pi / d) ** 2
    hi = (n * np.pi / d) ** 2
    brackets_ok = bool(np.all(levels > lo) and np.all(levels < hi))
    monotone_ok = bool(np.all(np.diff(levels, axis=0) > 0))
    dt = time.perf_counter() - t0
    ok = brackets_ok and monotone_ok and dt < 1.0
    _emit(capsys, 2, "threshold brackets + monotonicity", ok,
          f"50 couplings x 8 levels strictly inside (((n-1)pi/d)^2, (n pi/d)^2), "
          f"strictly increasing in alpha, {dt:.2f}s < 1s")
    assert brackets_ok
    assert monotone_ok
    assert dt < 1.0


def test_3_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    oracle = oracle_bound_states(WELL, L=8.0 * WELL.d, refinements=3,
                                 h0=WELL.d / 64)       # finest h = d/256
    tol = 5e-3 * (np.pi / WELL.d) ** 2
    counts, diffs = {}, []
    for parity in ParitySector:
        matched = [s.lam for s in bound_state_energies(WELL, parity, N=32)]
        counts[parity.value] = (len(matched), len(oracle[parity]))
        diffs += [abs(m - o) for m, o in zip(matched, oracle[parity])]
    count_ok = all(m == o for m, o in counts.values())
    max_diff = max(diffs) if count_ok and diffs else float("nan")
    dt = time.perf_counter() - t0
    ok = count_ok and max_diff <= tol and dt < 120.0
    _emit(capsys, 3, "oracle equivalence", ok,
          ", ".join(f"{p} {m} matched vs {o} oracle" for p, (m, o) in counts.items())
          + f", max |diff| per sector {max_diff:.3e} <= {tol:.3e}, {dt:.1f}s < 120s")
    assert count_ok, f"state counts differ per sector: {counts}"
    assert max_diff <= tol
    assert dt < 120.0


def test_4_truncation_convergence(capsys):
    t0 = time.perf_counter()
    lam = {N: bound_state_energies(WELL, ParitySector.SYMMETRIC, N=N)[0].lam
           for N in (12, 24, 48)}
    plain = abs(lam[48] - lam[24])
    # The truncation study runs on N in {12, 24, 48}: lambda(N) here is the
    # order-2 Richardson step lambda(N) + (lambda(N) - lambda(N/2)) / 3,
    # which eliminates the leading order of the (N/2, N) pair.
    def extrapolated(N):
        return lam[N] + (lam[N] - lam[N // 2]) / 3.0

    extrap = abs(extrapolated(48) - extrapolated(24))
    tol = 1e-6 * (np.pi / WELL.d) ** 2
    dt = time.perf_counter() - t0
    ok = extrap <= tol and dt < 30.0
    _emit(capsys, 4, "truncation convergence", ok,
          f"|lambda(48) - lambda(24)| extrapolated {extrap:.3e} <= {tol:.3e} "
          f"(raw difference {plain:.3e}), {dt:.1f}s < 30s")
    assert extrap <= tol
    assert dt < 30.0


def test_5_well_width_sweep_families(capsys):
    t0 = time.perf_counter()
    ratios = np.arange(0.2, 2.01, 0.2)
    slack = 1e-8 * PI2
    results = {}
    for alpha0, alpha1 in ((1e5, 1e-5), (20.0, 5.0)):
        e1_inner = transversal_eigenvalues(RobinCrossSection(alpha=alpha1, d=1.0), 1)[0]
        e1_outer = transversal_eigenvalues(RobinCrossSection(alpha=alpha0, d=1.0), 1)[0]
        spectra = [_merged_energies(WellConfig(alpha0, alpha1, a=r, d=1.0), N=24)
                   for r in ratios]
        counts = [len(s) for s in spectra]
        count_ok = all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
        branch_ok = True
        for i in range(len(ratios) - 1):
            for n in range(counts[i]):
                if spectra[i + 1][n] > spectra[i][n] + slack:
                    branch_ok = False
        above_ok = all(lam > e1_inner for s in spectra for lam in s)
        gaps = [s[1] - s[0] if len(s) >= 2 else e1_outer - s[0] for s in spectra]
        results[alpha0] = (count_ok, branch_ok, above_ok, counts, gaps)
    count_ok = all(r[0] for r in results.values())
    branch_ok = all(r[1] for r in results.values())
    above_ok = all(r[2] for r in results.values())
    gaps = results[1e5][4]
    i_max = int(np.argmax(gaps))
    gap_ok = (0 < i_max < len(ratios) - 1) and results[1e5][3][i_max] >= 2
    dt = time.perf_counter() - t0
    ok = count_ok and branch_ok and above_ok and gap_ok and dt < 300.0
    _emit(capsys, 5, "well-width sweep families", ok,
          f"branches nonincreasing={branch_ok}, counts nondecreasing={count_ok} "
          f"(hard-wall family {results[1e5][3]}), all above E1(alpha1)={above_ok}, "
          f"first-gap max {max(gaps):.4f} interior at a/d={ratios[i_max]:.1f}, "
          f"{dt:.1f}s < 300s")
    assert branch_ok
    assert count_ok
    assert above_ok
    assert gap_ok, f"gap argmax at index {i_max} of {len(ratios)}, gaps={gaps}"
    assert dt < 300.0


def test_6_hard_wall_limit_trend(capsys):
    t0 = time.perf_counter()
    lam_ref = _merged_energies(WellConfig(1e5, 1e-5, a=0.8, d=1.0), N=32)[0]
    sets = ((50.0, 3.0), (70.0, 2.0), (100.0, 1.0), (200.0, 0.5))
    distances = [abs(_merged_energies(WellConfig(a0, a1, a=0.8, d=1.0), N=32)[0]
                     - lam_ref) for a0, a1 in sets]
    decreasing = all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
    dt = time.perf_counter() - t0
    ok = decreasing and dt < 120.0
    _emit(capsys, 6, "hard-wall limit trend", ok,
          "distances to (1e5,1e-5) ground state "
          + " > ".join(f"{v:.4f}" for v in distances)
          + f" strictly decreasing, {dt:.1f}s < 120s")
    assert decreasing, f"distances not strictly decreasing: {distances}"
    assert dt < 120.0


def test_7_variational_existence_certificate(capsys):
    t0 = time.perf_counter()
    bump = BumpProfile()
    report = existence_test(WELL, bump, n_max=64)
    reduction_diff = max(abs(q_form(WELL, bump, n) - q_form_direct(WELL, bump, n))
                         for n in (1, 4, 16))
    dt = time.perf_counter() - t0
    cert_ok = report.first_negative_n is not None and report.first_negative_n <= 64
    quad_ok = reduction_diff <= 1e-8
    ok = cert_ok and quad_ok and dt < 30.0
    _emit(capsys, 7, "variational existence certificate", ok,
          f"Q < 0 first at n={report.first_negative_n} <= 64, "
          f"separable vs direct 2d quadrature |diff| {reduction_diff:.2e} <= 1e-8, "
          f"{dt:.1f}s < 30s")
    assert cert_ok
    assert quad_ok
    assert dt < 30.0


def test_8_essential_spectrum_threshold(capsys):
    t0 = time.perf_counter()
    const = WellConfig(alpha0=20.0, alpha1=20.0, a=0.3, d=1.0)
    e1 = transversal_eigenvalues(const.outer, 1)[0]
    hs = [1.0 / 32, 1.0 / 64, 1.0 / 128]
    lams = []
    for h in hs:
        grid = make_grid(const, L=4.0, h=h)
        # the operator is separable: take off the exact lowest Dirichlet x value
        x_part = 4.0 * np.sin(np.pi / (2 * (grid.nx + 1))) ** 2 / grid.hx**2
        lams.append(lowest_fd_value(const, grid, ParitySector.SYMMETRIC) - x_part)
    errs = [lam - e1 for lam in lams]
    no_dip = all(lam >= e1 - 10.0 * h**2 * e1 for lam, h in zip(lams, hs))
    orders = [np.log2(abs(e1_) / abs(e2_)) for e1_, e2_ in zip(errs, errs[1:])]
    order_ok = all(1.8 < o < 2.2 for o in orders)
    extrapolated = lams[-1] + (lams[-1] - lams[-2]) / 3.0
    extrap_err = abs(extrapolated - e1) / e1
    empty = oracle_bound_states(const, L=4.0, refinements=2, h0=1.0 / 32)
    dt = time.perf_counter() - t0
    found = sum(len(v) for v in empty.values())
    ok = (no_dip and order_ok and extrap_err <= 1e-5 and found == 0
          and dt < 60.0)
    _emit(capsys, 8, "essential-spectrum threshold", ok,
          f"lowest FD value less its x part above E1(20)-O(h^2), orders "
          + "/".join(f"{o:.2f}" for o in orders)
          + f" in (1.8,2.2), extrapolated rel err {extrap_err:.1e} <= 1e-5, "
          f"oracle reports {found} states below threshold, {dt:.1f}s < 60s")
    assert no_dip, f"FD eigenvalue dips below threshold: {lams} vs E1={e1}"
    assert order_ok, f"convergence orders {orders} outside (1.8, 2.2)"
    assert extrap_err <= 1e-5
    assert found == 0
    assert dt < 60.0


def test_9_ground_state_spreading(capsys):
    t0 = time.perf_counter()
    e1_outer = transversal_eigenvalues(RobinCrossSection(alpha=20.0, d=1.0), 1)[0]
    moments = []
    for alpha1 in (5.0, 10.0, 15.0, 19.0):
        config = WellConfig(20.0, alpha1, a=0.3, d=1.0)
        state = bound_state_energies(config, ParitySector.SYMMETRIC, N=32)[0]
        k1 = np.sqrt(e1_outer - state.lam)
        moments.append(_second_moment(config, state, xmax=config.a + 12.0 / k1))
    increasing = all(m2 > m1 for m1, m2 in zip(moments, moments[1:]))
    critical = WellConfig(20.0, 20.0, a=0.3, d=1.0)
    leftovers = sum(len(bound_state_energies(critical, p, N=32))
                    for p in (ParitySector.SYMMETRIC, ParitySector.ANTISYMMETRIC))
    dt = time.perf_counter() - t0
    ok = increasing and leftovers == 0 and dt < 120.0
    _emit(capsys, 9, "ground-state spreading", ok,
          "<x^2> = " + " < ".join(f"{m:.3f}" for m in moments)
          + f" strictly increasing over alpha1 in (5,10,15,19), "
          f"{leftovers} states at alpha1=alpha0, {dt:.1f}s < 120s")
    assert increasing, f"second moments not strictly increasing: {moments}"
    assert leftovers == 0
    assert dt < 120.0
