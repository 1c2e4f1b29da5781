"""Variational existence test: bump profile, trial scaling, Q form."""

import numpy as np
import pytest
from conftest import q_form_direct
from hypothesis import given, settings
from hypothesis import strategies as st

from robinstrip import (BumpProfile, ConfigError, ContractError, ConvergenceError,
                        QReport, WellConfig, existence_test, q_form)
from robinstrip import variational
from robinstrip.variational import trial_scale
from robinstrip.quadrature import adaptive_simpson
from robinstrip.transverse import transversal_levels

WELL = WellConfig(alpha0=20.0, alpha1=5.0, a=0.3, d=1.0)
BUMP = BumpProfile()


def _scalar_simpson(f, lo, hi):
    """The one-integral-at-a-time Simpson doubling that the batched rule
    replaced: 32 panels, doubled until two levels agree to 1e-8."""
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


def _scalar_q(config, bump, n):
    """Q[psi_n] by the separable reduction, one scalar Simpson per n."""
    ends = transversal_levels(config.outer, 1).chi(np.array([0.0, config.d]))[0]
    wall_weight = float(ends[0]) ** 2 + float(ends[1]) ** 2
    hi = min(config.a, bump.support * n)
    well = _scalar_simpson(lambda x: trial_scale(bump, n, x) ** 2, -hi, hi)
    return bump.deriv_norm_sq / n**2 + wall_weight * (config.alpha1 - config.alpha0) * well


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
        total = 2 * adaptive_simpson(lambda x: BUMP(x) ** 2, 0.0, BUMP.support)
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


class TestTrialScale:
    def test_n_one_is_the_bump(self):
        x = np.linspace(-0.3, 0.3, 7)
        assert np.allclose(trial_scale(BUMP, 1, x), BUMP(x))

    def test_scaling_preserves_norm_and_shrinks_kinetic(self):
        for n in (2, 5, 16):
            s = BUMP.support * n
            nrm = adaptive_simpson(lambda x: trial_scale(BUMP, n, x) ** 2, -s, s)
            assert abs(nrm - 1.0) < 1e-10
        # ||phi_n'|| = ||phi'|| / n, by change of variables
        n = 4
        s = BUMP.support * n
        kin = adaptive_simpson(
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
    """existence_test evaluates Q for a block of n in one batched Simpson."""

    @settings(max_examples=20, deadline=None)
    @given(alpha0_d=st.floats(0.5, 50.0), ratio=st.floats(0.02, 0.95),
           a_d=st.floats(0.05, 2.0), d=st.floats(0.3, 3.0))
    def test_q_values_are_bits_of_scalar_simpson(self, alpha0_d, ratio, a_d, d):
        cfg = WellConfig(alpha0_d / d, ratio * alpha0_d / d, a_d * d, d)
        report = existence_test(cfg, BUMP, 70)
        assert list(report.q_values) == [_scalar_q(cfg, BUMP, n) for n in range(1, 71)]

    def test_q_form_is_the_batched_value(self):
        q = existence_test(WELL, BUMP, 130).q_values
        for n in (1, 2, 40, 64, 65, 130):
            assert q_form(WELL, BUMP, n) == q[n - 1]

    def test_blocks_hold_at_most_64_rows(self, monkeypatch):
        blocks, rows = [], []

        def recording(f, lo, hi, *params):
            def g(x, *cols):
                rows.append(x.shape[0] if x.ndim == 2 else 1)
                return f(x, *cols)
            blocks.append(np.size(lo))
            return adaptive_simpson(g, lo, hi, *params)

        monkeypatch.setattr(variational, "adaptive_simpson", recording)
        report = existence_test(WELL, BUMP, 200)
        assert len(report.q_values) == 200
        assert blocks == [64, 64, 64, 8]
        assert max(rows) == 64

    def test_rows_stop_at_their_own_doubling(self):
        # row 1 never settles; the smooth rows converge, but the call raises
        def f(x, k):
            return np.where(k == 1, float(x.shape[1]), x**2)

        lo, hi = np.zeros(3), np.ones(3)
        with pytest.raises(ConvergenceError):
            adaptive_simpson(f, lo, hi, np.arange(3))
        out = adaptive_simpson(f, lo, hi, np.array([0, 2, 3]))
        assert out == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_scalar_call_keeps_its_bits(self):
        for hi in (0.1, 0.3, 1.7):
            f = lambda x: np.exp(-x) * np.cos(3.0 * x)  # noqa: E731
            assert adaptive_simpson(f, -hi, hi) == _scalar_simpson(f, -hi, hi)
