"""Variational existence test: bump profile, trial scaling, Q form."""

import re

import mpmath as mp
import numpy as np
import pytest
from conftest import q_form_direct
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robinstrip import (BumpProfile, ConfigError, ContractError, QReport, WellConfig,
                        existence_test, q_form)
from robinstrip import variational
from robinstrip.variational import trial_scale
from robinstrip.transverse import transversal_levels

WELL = WellConfig(alpha0=20.0, alpha1=5.0, a=0.3, d=1.0)
BUMP = BumpProfile()


def _scalar_simpson(f, lo, hi):
    """Composite Simpson from 32 panels, doubled until two levels agree
    to 1e-8: a reference independent of the package's Gauss-Legendre rule."""
    def simpson(npanels):
        x = np.linspace(lo, hi, 2 * npanels + 1)
        y = np.asarray(f(x), dtype=float)
        h = (hi - lo) / (2 * npanels)
        return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())

    npanels = 32
    prev = simpson(npanels)
    for _ in range(16):
        npanels *= 2
        cur = simpson(npanels)
        if abs(cur - prev) <= 1e-8 * max(abs(cur), 1e-300) + 1e-300:
            return cur
        prev = cur
    raise AssertionError("reference Simpson did not converge")


def _mp_smoothstep(u):
    if u <= 0:
        return mp.mpf(0)
    if u >= 1:
        return mp.mpf(1)
    a, b = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
    return a / (a + b)


def _mp_smoothstep_deriv(u):
    if u <= 0 or u >= 1:
        return mp.mpf(0)
    a, b = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
    return a * b * (1 / u**2 + 1 / (1 - u) ** 2) / (a + b) ** 2


def _q_with_quadrature_on_every_row(config, bump, n_max):
    """Q for n = 1..n_max with the Gauss-Legendre rule run on every row,
    64 rows at a time, u0 = 1 included: n d^2 Q / n / d^2 with
    n d^2 Q = ||phi'||^2/n - W d (alpha0 - alpha1) d n m(a/(n d))."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
    gap = wall_weight * config.d * ((config.alpha0 - config.alpha1) * config.d)
    rho, w = config.a / config.d, bump.support - bump.plateau
    q = []
    for start in range(1, n_max + 1, 64):
        n = np.arange(start, min(start + 64, n_max + 1)).astype(float)
        s = np.minimum(rho / n, bump.support)
        u0 = np.clip((bump.support - s) / w, 0.0, 1.0)
        tail = w * variational._unit_integral(lambda u: variational._smoothstep(u) ** 2, u0)
        mass = 2.0 * (np.minimum(rho, bump.plateau * n) + n * tail) / bump._norm**2
        q.append((bump.deriv_norm_sq / n - gap * mass) / n / config.d / config.d)
    return np.concatenate(q)


def _first_negative_by_loop(config, bump, n_max):
    """The least n <= n_max with q_form < 0, by trying every n; None past n_max."""
    return next((n for n in range(1, n_max + 1) if q_form(config, bump, n) < 0.0), None)


class _NoKinetic(BumpProfile):
    """The bump with its kinetic term zeroed, so that Q is the well term alone."""
    deriv_norm_sq = 0.0


class TestBumpProfile:
    def test_plateau_support_and_evenness(self):
        peak = BUMP(0.0)
        assert peak > 0
        x = np.array([0.05, 0.1, 0.125])
        assert np.allclose(BUMP(x), peak)          # plateau
        assert np.all(BUMP(np.array([0.25, 0.3, 5.0])) == 0.0)  # outside support
        mid = np.array([0.15, 0.2, 0.22])
        assert np.all((BUMP(mid) > 0) & (BUMP(mid) < peak))
        assert np.allclose(BUMP(-mid), BUMP(mid))

    def test_unit_l2_norm(self):
        total = 2 * _scalar_simpson(lambda x: BUMP(x) ** 2, 0.0, BUMP.support)
        assert abs(total - 1.0) < 1e-10

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for x in (0.14, 0.17, 0.21, 0.24, -0.18):
            fd = (BUMP(x + h) - BUMP(x - h)) / (2 * h)
            assert BUMP.derivative(x) == pytest.approx(float(fd), rel=1e-5, abs=1e-6)

    def test_derivative_vanishes_on_plateau_and_outside(self):
        assert BUMP.derivative(0.0) == 0.0
        assert np.all(BUMP.derivative(np.array([0.05, 0.12, 0.26, 1.0])) == 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BumpProfile(plateau=0.25, support=0.125)
        with pytest.raises(ConfigError):
            BumpProfile(plateau=0.0, support=0.25)

    @pytest.mark.parametrize("plateau, support", [(1e-320, 2e-320), (1.5e308, 1.7e308)])
    def test_refuses_a_bump_whose_constants_overflow(self, plateau, support):
        # ||phi'||^2 ~ 1/(w raw^2) overflows for the subnormal bump, raw^2 for the huge one
        with pytest.raises(ConfigError, match=re.escape(f"plateau={plateau!r} support={support!r}")):
            BumpProfile(plateau=plateau, support=support)

    def test_widest_admitted_bump_still_certifies(self):
        # raw^2 = 2 (plateau + w T(0)) is finite here, where 2 plateau + 2 w T(0) is not;
        # ||phi'||^2 (about 1e-616) underflows to 0
        bump = BumpProfile(plateau=1e307, support=1.7e308)
        assert np.isfinite(bump._norm) and np.isfinite(bump.deriv_norm_sq)
        report = existence_test(WELL, bump)
        assert report.first_negative_n == 1
        assert report.q_first < 0

    def test_constants_match_mpmath(self):
        # raw^2 = 2 (plateau + w T), ||phi'||^2 = 2 D / (w raw^2), with the two
        # integrals over [0, 1] of smoothstep^2 and smoothstep'^2
        with mp.workdps(30):
            T = mp.quad(lambda u: _mp_smoothstep(u) ** 2, [0, 0.5, 1])
            D = mp.quad(lambda u: _mp_smoothstep_deriv(u) ** 2, [0, 0.5, 1])
            for bump in (BUMP, BumpProfile(1e-3, 1e-3 + 1e-9), BumpProfile(0.5, 7.0)):
                w = mp.mpf(bump.support) - mp.mpf(bump.plateau)
                raw_sq = 2 * (mp.mpf(bump.plateau) + w * T)
                assert bump._norm ** 2 == pytest.approx(float(raw_sq), rel=1e-15)
                assert bump.deriv_norm_sq == pytest.approx(float(2 * D / (w * raw_sq)),
                                                           rel=1e-14)


class TestTrialScale:
    def test_n_one_is_the_bump(self):
        x = np.linspace(-0.3, 0.3, 7)
        assert np.allclose(trial_scale(BUMP, 1, x), BUMP(x))

    def test_scaling_preserves_norm_and_shrinks_kinetic(self):
        for width in (2, 5, 16, 0.375):
            s = BUMP.support * width
            nrm = _scalar_simpson(lambda x: trial_scale(BUMP, width, x) ** 2, -s, s)
            assert abs(nrm - 1.0) < 1e-10
        # ||phi_n'|| = ||phi'|| / n, by change of variables
        n = 4
        s = BUMP.support * n
        kin = _scalar_simpson(
            lambda x: (BUMP.derivative(x / n) / n**1.5) ** 2, -s, s)
        assert kin == pytest.approx(BUMP.deriv_norm_sq / n**2, rel=1e-10)

    def test_requires_positive_width(self):
        for width in (0, -1.0, np.nan):
            with pytest.raises(ContractError):
                trial_scale(BUMP, width, 0.0)


class TestQForm:
    def test_no_well_means_pure_kinetic(self):
        const = WellConfig(20.0, 20.0, 0.3, 1.0)
        for n in (1, 3, 10):
            assert q_form(const, BUMP, n) == BUMP.deriv_norm_sq / n**2
            assert q_form(const, BUMP, n) > 0

    def test_monotone_in_well_depth(self):
        deep = WellConfig(20.0, 5.0, 0.3, 1.0)
        shallow = WellConfig(20.0, 10.0, 0.3, 1.0)
        for n in (1, 8, 32):
            assert q_form(deep, BUMP, n) <= q_form(shallow, BUMP, n)

    @pytest.mark.parametrize("well", [WELL, WellConfig(7.0, 2.0, 0.5, 0.7)])
    def test_reduction_matches_direct_2d(self, well):
        # the trial width is n d
        for n in (1, 4, 16):
            assert abs(q_form(well, BUMP, n) - q_form_direct(well, BUMP, n)) < 1e-10

    def test_well_term_dominates_eventually(self):
        # n Q -> negative constant: the n-scaled sequence decreases toward it
        vals = [n * q_form(WELL, BUMP, n) for n in (8, 16, 32, 64, 128)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0

    def test_validation(self):
        with pytest.raises(ContractError):
            q_form(WELL, BUMP, 0)


class TestExistenceTest:
    def test_reference_well_certified(self):
        report = existence_test(WELL, BUMP)
        assert report.well_hypothesis
        assert report.first_negative_n == 40
        assert report.q_first == q_form(WELL, BUMP, 40) < 0 <= q_form(WELL, BUMP, 39)

    def test_hypothesis_violated_no_claim(self):
        inverted = WellConfig(5.0, 20.0, 0.3, 1.0)
        report = existence_test(inverted, BUMP)
        assert not report.well_hypothesis
        assert report.first_negative_n is None and report.q_first is None
        assert all(q_form(inverted, BUMP, n) > 0 for n in (1, 40, 10**6))

    @pytest.mark.parametrize("well", [WellConfig(20.0, 5.0, 5e-324, 1.0),
                                      WellConfig(1e-9, 5e-10, 1e-320, 1e10)])
    def test_inconclusive_where_the_crossing_is_past_binary64(self, well):
        # n_c = ||phi'||^2 raw^2 / (2 (a/d) W d (alpha0 - alpha1) d) overflows,
        # and a/d underflows to 0 for the second well
        report = existence_test(well, BUMP)
        assert report.well_hypothesis
        assert report.first_negative_n is None and report.q_first is None

    def test_narrower_well_needs_wider_trials(self):
        n1 = existence_test(WELL, BUMP).first_negative_n
        n2 = existence_test(WellConfig(20.0, 5.0, 0.03, 1.0), BUMP).first_negative_n
        assert n1 is not None and n2 is not None
        assert n2 > n1

    @pytest.mark.parametrize("well, first", [
        (WellConfig(1e5, 1e-5, 0.7, 1.0), 47429),
        (WellConfig(20.0, 19.9, 0.3, 1.0), 5994),
        (WellConfig(20.0, 20.0 * (1.0 - 1e-12), 0.3, 1.0), 29970710966582),
    ])
    def test_wells_past_the_old_default_width(self, well, first):
        # each needs trials wider than 64 strip widths
        report = existence_test(well, BUMP)
        assert report.first_negative_n == first
        assert report.q_first < 0 <= q_form(well, BUMP, first - 1)

    def test_crossing_past_2_53_is_an_exact_int(self):
        well = WellConfig(20.0, 20.0 * (1.0 - 1e-15), 0.3, 1.0)
        n = existence_test(well, BUMP).first_negative_n
        assert type(n) is int and n > 2**53
        # neighbours round to one binary64 here, so the bisection stops where float(n) moves
        assert q_form(well, BUMP, n) < 0 <= q_form(well, BUMP, n - 1)
        rho, gap = well.a / well.d, variational._gap(well)
        n_c = BUMP.deriv_norm_sq * BUMP._norm**2 / (2.0 * rho * gap)
        assert n == pytest.approx(n_c, rel=1e-12)

    def test_tiny_well_is_certified(self):
        report = existence_test(WellConfig(20.0, 5.0, 1e-200, 1.0), BUMP)
        assert report.first_negative_n > 10**200
        assert report.q_first == 0.0 and np.signbit(report.q_first)   # Q underflows to -0.0

    @settings(max_examples=30, deadline=None)
    @given(alpha0_d=st.floats(0.1, 1e4), ratio=st.floats(1e-6, 0.998),
           a_d=st.floats(1e-2, 1e2), k=st.integers(-8, 8))
    def test_certificate_is_the_first_negative_n_of_a_loop(self, alpha0_d, ratio, a_d, k):
        d = 4.0**k
        cfg = WellConfig(alpha0_d / d, alpha0_d * ratio / d, a_d * d, d)
        first = _first_negative_by_loop(cfg, BUMP, 2048)
        assume(first is not None)
        assert existence_test(cfg, BUMP).first_negative_n == first

    @pytest.mark.parametrize("k", [-100, -5, 5, 100])
    def test_scaled_copy_has_the_same_certificate(self, k):
        s = 4.0**k
        copy = WellConfig(WELL.alpha0 / s, WELL.alpha1 / s, WELL.a * s, WELL.d * s)
        ref, got = existence_test(WELL, BUMP), existence_test(copy, BUMP)
        assert got.first_negative_n == ref.first_negative_n == 40
        assert got.q_first * s * s == ref.q_first
        for n in (1, 39, 40, 10**6):
            assert q_form(copy, BUMP, n) * s * s == q_form(WELL, BUMP, n)

    def test_wall_term_is_computed_once(self, monkeypatch):
        calls = []
        levels = variational.transversal_levels

        def counting(cs, n):
            calls.append(cs)
            return levels(cs, n)

        monkeypatch.setattr(variational, "transversal_levels", counting)
        existence_test(WellConfig(20.0, 19.9, 0.3, 1.0), BUMP)
        assert len(calls) == 1

    def test_report_validation(self):
        with pytest.raises(ContractError):
            QReport(first_negative_n=1, q_first=np.nan, config=WELL, well_hypothesis=True)
        with pytest.raises(ContractError):
            QReport(first_negative_n=1, q_first=-np.inf, config=WELL, well_hypothesis=True)


class TestWellIntegral:
    """q_form's well term, quadrature on the smoothstep transition only."""

    @settings(max_examples=40, deadline=None)
    @given(plateau=st.floats(1e-3, 1.0), log_ratio=st.floats(np.log(1 + 1e-6), np.log(10.0)),
           case=st.sampled_from(["plateau", "transition", "support"]),
           frac=st.floats(0.0, 1.0), n=st.sampled_from([1, 7, 64]))
    @example(plateau=0.1, log_ratio=np.log(1.000001), case="transition", frac=0.5, n=1)
    def test_well_integral_matches_mpmath(self, plateau, log_ratio, case, frac, n):
        # a/n on the plateau, in the transition, or past the support
        support = plateau * np.exp(log_ratio)
        s = {"plateau": frac * plateau,
             "transition": plateau + frac * (support - plateau),
             "support": support * (1.0 + frac)}[case]
        cfg = WellConfig(2.0, 1.0, max(s, 1e-300) * n, 1.0)
        bump = _NoKinetic(plateau, support)
        ends = transversal_levels(cfg.outer, 1).chi(np.array([0.0, cfg.d]))[0]
        wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
        well = q_form(cfg, bump, n) / (wall_weight * (cfg.alpha1 - cfg.alpha0))

        # int_{-a}^{a} phi_n^2 in x, with phi_n = n^{-1/2} raw(x/n) / ||raw||
        with mp.workdps(30):
            p, sup, a = mp.mpf(plateau), mp.mpf(support), mp.mpf(cfg.a)

            def raw_sq(t):
                return _mp_smoothstep((sup - abs(t)) / (sup - p)) ** 2

            norm_sq = 2 * (p + mp.quad(raw_sq, [p, sup]))
            hi = min(a, n * sup)
            knots = [0] + [k for k in (n * p,) if k < hi] + [hi]
            ref = float(2 * mp.quad(lambda x: raw_sq(x / n) / n, knots) / norm_sq)
        assert well == pytest.approx(ref, rel=1e-14)

    def test_only_n_past_the_plateau_take_the_quadrature(self, monkeypatch):
        # a/n > plateau for n < 300 here, and for n < 3 with the default bump
        calls = []
        unit_integral = variational._unit_integral

        def recording(f, u0):
            calls.append(u0)
            return unit_integral(f, u0)

        bump = BumpProfile(1e-3, 2e-3)
        assert bump.deriv_norm_sq > 0 and BUMP.deriv_norm_sq > 0   # the bump constants are cached
        monkeypatch.setattr(variational, "_unit_integral", recording)
        for n in range(1, 401):
            q_form(WELL, bump, n)
        assert len(calls) == 299
        calls.clear()
        for n in range(1, 201):
            q_form(WELL, BUMP, n)
        assert len(calls) == 2

    @pytest.mark.parametrize("bump, n_max", [
        (BUMP, 2**16), (BumpProfile(plateau=1e-7), 4096), (BumpProfile(1e-3, 2e-3), 400),
        (BumpProfile(0.1, 0.1000001), 64),
    ])
    def test_skipped_rows_keep_every_bit(self, bump, n_max):
        # the quadrature of a zero-width interval adds exactly 0
        ref = _q_with_quadrature_on_every_row(WELL, bump, n_max)
        q = np.array([q_form(WELL, bump, n) for n in range(1, n_max + 1)])
        assert np.array_equal(q.view(np.uint64), ref.view(np.uint64))
