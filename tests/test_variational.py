"""Variational existence test: bump profile, trial scaling, Q form."""

import re

import mpmath as mp
import numpy as np
import pytest
from conftest import q_form_direct
from hypothesis import example, given, settings
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
    64 rows at a time, u0 = 1 included."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
    w = bump.support - bump.plateau
    q = []
    for start in range(1, n_max + 1, 64):
        n = np.arange(start, min(start + 64, n_max + 1))
        s = np.minimum(config.a / n, bump.support)
        u0 = np.clip((bump.support - s) / w, 0.0, 1.0)
        tail = w * variational._unit_integral(lambda u: variational._smoothstep(u) ** 2, u0)
        well = 2.0 * (np.minimum(s, bump.plateau) + tail) / bump._norm**2
        q.append(bump.deriv_norm_sq / n**2
                 + wall_weight * (config.alpha1 - config.alpha0) * well)
    return np.concatenate(q)


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
        report = existence_test(WELL, bump, 2)
        assert report.first_negative_n == 1
        assert report.q_values[0] < 0

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
        for n in (2, 5, 16):
            s = BUMP.support * n
            nrm = _scalar_simpson(lambda x: trial_scale(BUMP, n, x) ** 2, -s, s)
            assert abs(nrm - 1.0) < 1e-10
        # ||phi_n'|| = ||phi'|| / n, by change of variables
        n = 4
        s = BUMP.support * n
        kin = _scalar_simpson(
            lambda x: (BUMP.derivative(x / n) / n**1.5) ** 2, -s, s)
        assert kin == pytest.approx(BUMP.deriv_norm_sq / n**2, rel=1e-10)

    def test_requires_positive_n(self):
        with pytest.raises(ContractError):
            trial_scale(BUMP, 0, 0.0)


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

    def test_reduction_matches_direct_2d(self):
        for n in (1, 4, 16):
            assert abs(q_form(WELL, BUMP, n) - q_form_direct(WELL, BUMP, n)) < 1e-10

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
        report = existence_test(WELL, BUMP, 64)
        assert report.well_hypothesis
        assert report.first_negative_n is not None
        assert report.first_negative_n <= 64
        assert report.q_values[report.first_negative_n - 1] < 0
        assert all(q >= 0 for q in report.q_values[:report.first_negative_n - 1])

    def test_hypothesis_violated_no_claim(self):
        inverted = WellConfig(5.0, 20.0, 0.3, 1.0)
        report = existence_test(inverted, BUMP, 16)
        assert not report.well_hypothesis
        assert report.first_negative_n is None
        assert all(q > 0 for q in report.q_values)

    def test_inconclusive_below_first_negative(self):
        report = existence_test(WELL, BUMP, 8)
        assert report.well_hypothesis
        assert report.first_negative_n is None  # 8 < 40, the true crossover

    def test_narrower_well_needs_wider_trials(self):
        n1 = existence_test(WELL, BUMP, 64).first_negative_n
        narrow = WellConfig(20.0, 5.0, 0.03, 1.0)
        n2 = existence_test(narrow, BUMP, 512).first_negative_n
        assert n1 is not None and n2 is not None
        assert n2 > n1

    def test_report_validation(self):
        with pytest.raises(ContractError):
            QReport(n_values=(1, 2), q_values=(0.5,), first_negative_n=None,
                    config=WELL, well_hypothesis=True)
        with pytest.raises(ContractError):
            QReport(n_values=(1,), q_values=(np.nan,), first_negative_n=None,
                    config=WELL, well_hypothesis=True)
        with pytest.raises(ContractError):
            existence_test(WELL, BUMP, 0)


class TestBatchedQ:
    """existence_test evaluates Q for a block of n in one batched quadrature."""

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

    def test_q_form_is_the_batched_value(self):
        q = existence_test(WELL, BUMP, 130).q_values
        for n in (1, 2, 40, 64, 65, 130):
            assert q_form(WELL, BUMP, n) == q[n - 1]

    def test_only_rows_past_the_plateau_take_the_quadrature(self, monkeypatch):
        # a/n > plateau for n < 300 here: 299 rows in blocks of at most 64
        bump = BumpProfile(1e-3, 2e-3)
        blocks, rows = [], []
        unit_integral = variational._unit_integral

        def recording(f, u0):
            def g(u):
                rows.append(u.shape[0] if u.ndim == 2 else 1)
                return f(u)
            blocks.append(np.size(u0))
            return unit_integral(g, u0)

        monkeypatch.setattr(variational, "_unit_integral", recording)
        report = existence_test(WELL, bump, 400)
        assert len(report.q_values) == 400
        assert blocks == [64, 64, 64, 64, 43]
        assert max(rows) == 64
        blocks.clear()
        existence_test(WELL, BUMP, 200)
        assert blocks == [2]

    @pytest.mark.parametrize("bump, n_max", [
        (BUMP, 2**16), (BumpProfile(plateau=1e-7), 4096), (BumpProfile(1e-3, 2e-3), 400),
        (BumpProfile(0.1, 0.1000001), 64),
    ])
    def test_skipped_rows_keep_every_bit(self, bump, n_max):
        # the quadrature of a zero-width interval adds exactly 0
        ref = _q_with_quadrature_on_every_row(WELL, bump, n_max)
        q = np.array(existence_test(WELL, bump, n_max).q_values)
        assert np.array_equal(q.view(np.uint64), ref.view(np.uint64))
