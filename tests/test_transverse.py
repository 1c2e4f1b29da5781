"""Transversal (cross-section) eigenproblem: dispersion relation,
factorization, the Newton level solve, normalization, overlaps."""

import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from conftest import admitted_alpha, even_factor, factor_roots, odd_factor, reference_overlaps
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robinstrip
from robinstrip import transverse
from robinstrip import (ConfigError, ContractError, NumericalError, RobinCrossSection,
                        RobinStripError, overlap_matrix, transversal_eigenvalues,
                        transversal_levels)
from robinstrip.modematch import _MAX_N as _MAX_SOLVE_N
from robinstrip.quadrature import composite_gl, gauss_legendre
from robinstrip.transverse import _MAX_ALPHA_D, _MIN_ALPHA_D, _profile_norm_sq, dispersion


def quadrature_norm_sq(cs, k):
    """int_0^d ((alpha/k) sin(ky) + cos(ky))^2 dy for each k by composite
    Gauss-Legendre, one panel per wavelength of the largest k plus one,
    summed panel by panel so memory stays linear in the number of levels."""
    npanels = int(np.ceil(k[-1] * cs.d / (2.0 * np.pi))) + 1
    y, w = composite_gl(0.0, cs.d, knots=[cs.d * j / npanels for j in range(1, npanels)])
    A = (cs.alpha / k)[:, None]
    I = np.zeros_like(k)
    for yp, wp in zip(y.reshape(npanels, -1), w.reshape(npanels, -1)):
        ky = np.outer(k, yp)
        u = A * np.sin(ky) + np.cos(ky)
        I += (u * u) @ wp
    return I


def mp_k(cs, n):
    """k_n from a 40-digit root of the arctan form on its bracket
    ((n-1) pi/2, n pi/2) in theta = k d/2; atan2 keeps theta = 0 finite."""
    with mpmath.workdps(40):
        c, a = mpmath.mpf(cs.alpha) * cs.d / 2, (n - 1) * mpmath.pi / 2
        theta = mpmath.findroot(lambda t: t - a - mpmath.atan2(c, t), (a, a + mpmath.pi / 2),
                                solver="anderson")
        return 2 * theta / cs.d


class TestDispersion:
    def test_vectorized_and_zero_at_eigenvalues(self):
        cs = RobinCrossSection(3.0, 1.0)
        E = transversal_eigenvalues(cs, 5)
        vals = dispersion(E, cs)
        assert vals.shape == (5,)
        scale = 2 * cs.alpha * np.sqrt(E) + cs.alpha**2 + E
        assert np.all(np.abs(vals) <= 1e-10 * scale)

    def test_negative_energy_rejected(self):
        cs = RobinCrossSection(1.0, 1.0)
        with pytest.raises(ContractError):
            dispersion(-0.5, cs)

    @given(
        alpha_d=st.floats(1e-3, 1e3),
        d=st.floats(0.1, 10.0),
        kd=st.floats(1e-3, 40.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_factorization_identity(self, alpha_d, d, kd):
        cs = RobinCrossSection(alpha_d / d, d)
        k = kd / d
        f = dispersion(k**2, cs)
        g = 2.0 * even_factor(k, cs) * odd_factor(k, cs)
        scale = (2 * cs.alpha * k + cs.alpha**2 + k**2) * (1.0 + k + cs.alpha)
        assert abs(f - g) <= 1e-12 * scale

    def test_closed_form_levels_at_special_coupling(self):
        # alpha d = pi/2: E_1 = alpha^2 (even factor at kd = pi/2);
        # alpha d = 3 pi/2: E_2 = alpha^2 (odd factor at kd = 3 pi/2)
        for alpha, n in ((np.pi / 2, 1), (3 * np.pi / 2, 2)):
            cs = RobinCrossSection(alpha, 1.0)
            E = transversal_eigenvalues(cs, n)[n - 1]
            assert abs(E - alpha**2) <= 1e-12 * alpha**2


class TestEigenvalues:
    def test_frozen_reference_values(self):
        cs = RobinCrossSection(1.0, 1.0)
        E = transversal_eigenvalues(cs, 3)
        ref = np.array([1.7070529755508566, 13.492357146504997, 43.357221104939235])
        assert np.allclose(E, ref, rtol=1e-9, atol=0.0)

    def test_matches_independent_factor_solver(self):
        for alpha, d in ((0.07, 1.0), (5.0, 1.0), (20.0, 0.5), (300.0, 2.0)):
            cs = RobinCrossSection(alpha, d)
            E = transversal_eigenvalues(cs, 6)
            k_ref = factor_roots(cs, 6)
            assert np.allclose(E, k_ref**2, rtol=1e-11, atol=0.0)

    @given(alpha=st.floats(1e-4, 1e4), d=st.floats(0.05, 20.0),
           n=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_brackets_strict(self, alpha, d, n):
        cs = RobinCrossSection(alpha, d)
        E = transversal_eigenvalues(cs, n)[n - 1]
        assert ((n - 1) * np.pi / d) ** 2 < E < (n * np.pi / d) ** 2

    @given(alpha=st.floats(1e-3, 1e3), factor=st.floats(1.01, 10.0),
           n=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_coupling(self, alpha, factor, n):
        E_lo = transversal_eigenvalues(RobinCrossSection(alpha, 1.0), n)[n - 1]
        E_hi = transversal_eigenvalues(RobinCrossSection(alpha * factor, 1.0), n)[n - 1]
        assert E_hi > E_lo

    def test_weak_coupling_asymptote(self):
        # E_1 ~ 2 alpha / d as alpha d -> 0
        cs = RobinCrossSection(1e-4, 1.0)
        E1 = transversal_eigenvalues(cs, 1)[0]
        assert abs(E1 * cs.d / (2 * cs.alpha) - 1.0) < 1e-4

    def test_strong_coupling_dirichlet_limit(self):
        E1 = transversal_eigenvalues(RobinCrossSection(1e9, 1.0), 1)[0]
        assert E1 < np.pi**2
        assert np.pi**2 - E1 < 1e-7 * np.pi**2

    @given(log_alpha_d=st.floats(-7.0, 15.0), log_d=st.floats(-6.0, 6.0),
           n=st.integers(3, _MAX_SOLVE_N - 1))
    @example(log_alpha_d=-7.0, log_d=-6.0, n=3)
    @example(log_alpha_d=-7.0, log_d=6.0, n=3)
    @example(log_alpha_d=15.0, log_d=-6.0, n=3)
    @example(log_alpha_d=15.0, log_d=6.0, n=3)
    @example(log_alpha_d=0.0, log_d=0.0, n=17)
    @settings(max_examples=40, deadline=None)
    def test_levels_within_4_ulp_of_40_digit_roots(self, log_alpha_d, log_d, n):
        d = 10.0**log_d
        cs = RobinCrossSection(admitted_alpha(10.0**log_alpha_d, d), d)
        k = transversal_levels(cs, _MAX_SOLVE_N).k
        for m in (1, 2, n, _MAX_SOLVE_N):
            ref = mp_k(cs, m)
            assert abs(mpmath.mpf(float(k[m - 1])) - ref) <= 4 * np.spacing(float(ref))

    @given(alpha=st.floats(1e-4, 1e6), d=st.floats(0.01, 10.0),
           n=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_prefix_is_the_smaller_table(self, alpha, d, n):
        cs = RobinCrossSection(alpha, d)
        assert (transversal_eigenvalues(cs, 2 * n)[:n].tolist()
                == transversal_eigenvalues(cs, n).tolist())

    def test_returned_arrays_belong_to_the_caller(self):
        cs = RobinCrossSection(3.0, 1.0)
        E = transversal_eigenvalues(cs, 4)
        O = overlap_matrix(cs, cs, 4)
        E[:] = -1.0
        O[:] = -1.0
        assert np.all(transversal_eigenvalues(cs, 4) > 0.0)
        assert np.all(np.diag(overlap_matrix(cs, cs, 4)) > 0.0)

    @pytest.mark.parametrize("d", [1e-6, 1.0, 1e6])
    def test_levels_resolve_at_the_coupling_bound(self, d):
        # every level stays strictly inside its bracket up to the largest N a solve admits
        n = np.arange(1, _MAX_SOLVE_N + 1)
        E = transversal_eigenvalues(RobinCrossSection(_MAX_ALPHA_D / d, d), _MAX_SOLVE_N)
        assert np.all((((n - 1) * np.pi / d) ** 2 < E) & (E < (n * np.pi / d) ** 2))

    @pytest.mark.parametrize("alpha, d", [(1e16, 1.0), (1e160, 1.0), (2e18, 1e-3),
                                          (1e300, 1e300)])
    def test_coupling_above_the_bound_is_config_error(self, alpha, d):
        with pytest.raises(ConfigError, match="alpha\\*d"):
            RobinCrossSection(alpha, d)

    @pytest.mark.parametrize("d", [1e-6, 1.0, 1e6])
    def test_levels_resolve_at_the_weak_coupling_bound(self, d):
        # the top levels of N = 3344 sit 8-16 ulp above their Neumann ends here
        n = np.arange(1, _MAX_SOLVE_N + 1)
        E = transversal_eigenvalues(RobinCrossSection(_MIN_ALPHA_D / d, d), _MAX_SOLVE_N)
        assert np.all((((n - 1) * np.pi / d) ** 2 < E) & (E < (n * np.pi / d) ** 2))
        ref = transversal_eigenvalues(RobinCrossSection(_MIN_ALPHA_D, 1.0), _MAX_SOLVE_N)
        assert np.allclose(E * d * d, ref, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("alpha, d", [(1e-9, 1.0), (1e-3, 1e-6), (1e-14, 1e6),
                                          (9.039e-29 / 21.838, 21.838)])
    def test_coupling_below_the_bound_is_config_error(self, alpha, d):
        # the last one built [pi^2, 4 pi^2] d^-2 for [1.8e-28, pi^2] d^-2
        with pytest.raises(ConfigError, match="alpha\\*d must be at least"):
            RobinCrossSection(alpha, d)

    @pytest.mark.parametrize("d", [1e-80, 1e80])
    def test_levels_scale_with_the_width(self, d):
        # (alpha, d) -> (alpha / s, s d) maps E -> E / s^2, also 80 decades from d = 1
        E = transversal_eigenvalues(RobinCrossSection(20.0 / d, d), 16)
        ref = transversal_eigenvalues(RobinCrossSection(20.0, 1.0), 16)
        assert np.allclose(E * d * d, ref, rtol=1e-12, atol=0.0)

    @given(log_alpha=st.floats(-300.0, 300.0), log_d=st.floats(-300.0, 300.0),
           n=st.integers(1, 64))
    @example(log_alpha=160.0, log_d=-150.0, n=8)    # alpha**2 overflows
    @example(log_alpha=80.0, log_d=-80.0, n=8)      # f * f would overflow
    @example(log_alpha=-80.0, log_d=80.0, n=8)      # f * f would underflow
    @example(log_alpha=-195.0, log_d=200.0, n=8)    # k^2 underflows to 0
    @example(log_alpha=20.0, log_d=0.0, n=8)        # above the alpha*d bound
    @settings(max_examples=300, deadline=None)
    def test_any_cross_section_builds_or_raises_package_error(self, log_alpha, log_d, n):
        # no OverflowError, FloatingPointError or other stray exception; a
        # table that is built scales as (alpha, d) -> (alpha d, 1), E -> E d^2
        alpha, d = 10.0**log_alpha, 10.0**log_d
        try:
            E = transversal_levels(RobinCrossSection(alpha, d), n).energy
        except RobinStripError:
            return
        assert E[0] > 0.0 and np.all(np.diff(E) > 0.0) and np.all(np.isfinite(E))
        if alpha * d >= 1e-5:   # the coupling range the norm test covers
            ref = transversal_eigenvalues(RobinCrossSection(alpha * d, 1.0), n)
            assert np.allclose(E * d * d, ref, rtol=1e-11, atol=0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RobinCrossSection(0.0, 1.0)
        with pytest.raises(ConfigError):
            RobinCrossSection(1.0, -2.0)
        with pytest.raises(ConfigError):
            RobinCrossSection(np.inf, 1.0)
        with pytest.raises(ContractError):
            transversal_eigenvalues(RobinCrossSection(1.0, 1.0), 0)


def newton_trace(cs, n_max):
    """Solve cs afresh and return, level by level, the theta = k d/2 its
    Newton steps end at and the number of steps it took (the last step,
    which does not raise theta, counted)."""
    thetas, steps, step = {}, Counter(), transverse._newton_step

    def recording(theta, a, c):
        # a = (n-1) pi/2 tells the live levels apart
        thetas.update(zip(a.tolist(), theta.tolist()))
        steps.update(a.tolist())
        return step(theta, a, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transverse, "_newton_step", recording)
        transverse._tables.cache_clear()
        transversal_levels(cs, n_max)
    keys = sorted(thetas)
    assert len(keys) == n_max
    return np.array([thetas[a] for a in keys]), np.array([steps[a] for a in keys])


def unit_width_twin(alpha_d, d):
    """A cross-section of width d and the one of width 1 with bitwise the
    same c = 0.5 * alpha * d."""
    cs = RobinCrossSection(admitted_alpha(alpha_d, d), d)
    return cs, RobinCrossSection(2.0 * (0.5 * cs.alpha * d), 1.0)


class TestNewtonSolve:
    @pytest.mark.parametrize("alpha_d", [_MIN_ALPHA_D, _MAX_ALPHA_D])
    @pytest.mark.parametrize("d", [1e-6, 1e6])
    def test_steps_at_the_coupling_corners(self, alpha_d, d):
        _, steps = newton_trace(RobinCrossSection(admitted_alpha(alpha_d, d), d), _MAX_SOLVE_N)
        assert steps.max() <= 8

    @given(log_alpha_d=st.floats(-7.0, 15.0), log_d=st.floats(-6.0, 6.0),
           n_max=st.integers(1, 256))
    @settings(max_examples=60, deadline=None)
    def test_steps_over_the_admitted_couplings(self, log_alpha_d, log_d, n_max):
        d = 10.0**log_d
        _, steps = newton_trace(RobinCrossSection(admitted_alpha(10.0**log_alpha_d, d), d), n_max)
        assert steps.max() <= 8

    @pytest.mark.parametrize("alpha_d", [_MIN_ALPHA_D, 0.6, 20.0, _MAX_ALPHA_D])
    @pytest.mark.parametrize("d", [1e-6, 0.37, 3.0, 1e6])
    def test_theta_depends_on_c_alone(self, alpha_d, d):
        # the solve never sees d: equal 0.5 * alpha * d, bitwise equal theta
        cs, twin = unit_width_twin(alpha_d, d)
        assert newton_trace(cs, 64)[0].tobytes() == newton_trace(twin, 64)[0].tobytes()

    @pytest.mark.parametrize("alpha_d", [_MIN_ALPHA_D, 0.6, 20.0, _MAX_ALPHA_D])
    @pytest.mark.parametrize("d", [1e-6, 1e6])
    def test_kd_agrees_to_2_ulp_across_widths(self, alpha_d, d):
        # k d is 2 theta exactly at d = 1; elsewhere 2 theta / d and the
        # product each round once
        cs, twin = unit_width_twin(alpha_d, d)
        ref = transversal_levels(twin, _MAX_SOLVE_N).k
        kd = transversal_levels(cs, _MAX_SOLVE_N).k * d
        assert np.all(np.abs(kd - ref) <= 2 * np.spacing(ref))

    def test_step_that_keeps_rising_is_numerical_error(self, monkeypatch):
        transverse._tables.cache_clear()
        monkeypatch.setattr(transverse, "_newton_step", lambda theta, a, c: theta + 1.0)
        with pytest.raises(NumericalError, match="Newton steps"):
            transversal_levels(RobinCrossSection(20.0, 1.0), 8)


class TestModes:
    @staticmethod
    def _table(alpha, d, n):
        return transversal_levels(RobinCrossSection(alpha, d), n)

    def test_boundary_conditions(self):
        for alpha, d, n in ((0.3, 1.0, 1), (20.0, 1.0, 3), (5.0, 2.0, 2)):
            t = self._table(alpha, d, n)
            chi, dchi = t.chi(np.array([0.0, d])), t.chi_deriv(np.array([0.0, d]))
            scale = alpha * np.abs(chi[:, 0]) + np.abs(dchi[:, 0])
            assert np.all(np.abs(-dchi[:, 0] + alpha * chi[:, 0]) <= 1e-12 * scale)
            assert np.all(np.abs(dchi[:, 1] + alpha * chi[:, 1]) <= 1e-12 * scale)

    @staticmethod
    def _closed_form_norm_matches_quadrature(t):
        I = _profile_norm_sq(t.cs.alpha, t.cs.d, t.k)
        assert np.all(np.abs(I - quadrature_norm_sq(t.cs, t.k)) <= 1e-12 * I)

    # the top is pulled in so that alpha * d stays at most the bound after rounding
    @given(log_alpha_d=st.floats(-5.0, np.log10(_MAX_ALPHA_D) - 1e-12),
           log_d=st.floats(-6.0, 6.0), n=st.integers(1, 128))
    @example(log_alpha_d=np.log10(0.5), log_d=0.0, n=1)
    @example(log_alpha_d=np.log10(20.0), log_d=0.0, n=2)
    @example(log_alpha_d=3.0, log_d=0.0, n=4)
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_by_quadrature(self, log_alpha_d, log_d, n):
        # norm_const comes from a closed form of the squared norm
        d = 10.0**log_d
        t = self._table(10.0**log_alpha_d / d, d, n)
        self._closed_form_norm_matches_quadrature(t)
        y, w = composite_gl(0.0, d, max_panel_width=d / (n + 1))
        chi = t.chi(y)
        assert np.all(np.abs((chi * chi) @ w - 1.0) < 1e-12)

    @pytest.mark.parametrize("alpha_d", [1e-5, _MAX_ALPHA_D])
    def test_unit_norm_by_quadrature_at_N_1024(self, alpha_d):
        self._closed_form_norm_matches_quadrature(self._table(alpha_d, 1.0, 1024))

    def test_derivative_obeys_eigen_identity(self):
        # int chi_n'^2 + alpha (chi_n(0)^2 + chi_n(d)^2) = E_n for unit chi_n
        for alpha, d in ((0.5, 1.0), (20.0, 0.7), (1e3, 2.0)):
            t = self._table(alpha, d, 6)
            y, w = composite_gl(0.0, d, max_panel_width=d / 7)
            ends = t.chi(np.array([0.0, d]))
            lhs = (t.chi_deriv(y) ** 2) @ w + alpha * np.sum(ends**2, axis=1)
            assert np.allclose(lhs, t.energy, rtol=1e-11, atol=0.0)

    def test_scalar_y_gives_one_value_per_level(self):
        t = self._table(3.0, 1.0, 5)
        assert t.chi(0.25).shape == t.chi_deriv(0.25).shape == (5,)
        assert t.chi(0.25).tolist() == t.chi(np.array([0.25]))[:, 0].tolist()

    def test_out_of_range_rejected(self):
        t = self._table(1.0, 1.0, 1)
        for y in (-0.01, 1.01):
            with pytest.raises(ContractError):
                t.chi(y)
            with pytest.raises(ContractError):
                t.chi_deriv(y)

    def test_interior_nodes_count(self):
        # mode n has n-1 sign changes in (0, d)
        chi = self._table(7.0, 1.0, 4).chi(np.linspace(1e-6, 1.0 - 1e-6, 2001))
        assert [np.sum(np.diff(np.sign(row)) != 0) for row in chi] == [0, 1, 2, 3]

    def test_table_is_shared_and_read_only(self, newton_levels):
        cs = RobinCrossSection(3.0, 1.0)
        t = transversal_levels(cs, 4)
        assert transversal_levels(cs, 4) is t
        # a smaller table is a prefix, a larger one is solved whole
        assert transversal_levels(cs, 2).k.tobytes() == t.k[:2].tobytes()
        assert transversal_levels(cs, 6).norm_const[:4].tobytes() == t.norm_const.tobytes()
        assert transversal_levels(cs, 2) is transversal_levels(cs, 2)
        assert transversal_levels(cs, 3) is transversal_levels(cs, 3)
        assert newton_levels == [(cs, 4), (cs, 6)]
        assert t.energy.tolist() == transversal_eigenvalues(cs, 4).tolist()
        with pytest.raises(ValueError):
            t.energy[0] = 0.0

    @pytest.mark.parametrize("order", [(1, 32), (32, 1), (7, 16, 33)])
    def test_levels_keep_their_bits_in_any_request_order(self, newton_levels, order):
        # a prefix of a larger table has the bits of a table built at its size
        cs = RobinCrossSection(20.0, 1.0)
        grown = [transversal_levels(cs, n) for n in order]
        for n, table in zip(order, grown):
            transverse._tables.cache_clear()
            fresh = transversal_levels(cs, n)
            for a, b in ((table.energy, fresh.energy), (table.k, fresh.k),
                         (table.norm_const, fresh.norm_const)):
                assert a.tobytes() == b.tobytes()


class TestOverlap:
    def test_y_even_block_shape(self):
        cs = RobinCrossSection(5.0, 1.0)
        for N, n in ((1, 1), (2, 1), (7, 4), (8, 4)):
            assert overlap_matrix(cs, cs, N).shape == (n, n)

    def test_same_family_is_orthonormal(self):
        cs = RobinCrossSection(5.0, 1.0)
        O = overlap_matrix(cs, cs, 15)
        assert np.max(np.abs(O - np.eye(8))) < 1e-12

    # alpha_b = alpha_a (1 + eps) when eps is drawn: equal or nearly equal
    # wavenumbers on the diagonal, the limit of the closed form
    @given(alpha_a=st.floats(0.05, 200.0), alpha_b=st.floats(0.05, 200.0),
           eps=st.none() | st.just(0.0) | st.floats(1e-15, 1e-3),
           ia=st.integers(0, 3), ib=st.integers(0, 3))
    @example(alpha_a=5.0, alpha_b=5.0, eps=1e-15, ia=2, ib=2)
    @example(alpha_a=0.05, alpha_b=0.05, eps=0.0, ia=0, ib=0)
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_quadrature(self, alpha_a, alpha_b, eps, ia, ib):
        d = 1.0
        if eps is not None:
            alpha_b = alpha_a * (1.0 + eps)
        inner, outer = RobinCrossSection(alpha_a, d), RobinCrossSection(alpha_b, d)
        na, nb = 2 * ia + 1, 2 * ib + 1
        n = max(na, nb)
        y, w = composite_gl(0.0, d, max_panel_width=d / (na + nb + 1))
        chi_a = transversal_levels(inner, n).chi(y)[na - 1]
        chi_b = transversal_levels(outer, n).chi(y)[nb - 1]
        assert abs(overlap_matrix(inner, outer, n)[ib, ia] - w @ (chi_a * chi_b)) < 1e-11

    @pytest.mark.parametrize("alpha_in, alpha_out", [
        (5.0, 20.0), (20.0, 5.0), (5.0, 5.0),
        (5.0, 5.0 * (1.0 + 1e-9)),   # near-degenerate diagonal
        (300.0, 0.07),
    ])
    def test_matrix_matches_independent_quadrature(self, alpha_in, alpha_out):
        inner, outer = RobinCrossSection(alpha_in, 1.0), RobinCrossSection(alpha_out, 1.0)
        O = overlap_matrix(inner, outer, 8)
        assert np.max(np.abs(O - reference_overlaps(inner, outer, 8)[::2, ::2])) <= 1e-11

    def test_rows_have_nearly_unit_mass(self):
        # completeness: expanding a y-even inner mode in the 100 y-even
        # outer modes of N = 200 recovers its norm (Parseval)
        inner = RobinCrossSection(5.0, 1.0)
        outer = RobinCrossSection(20.0, 1.0)
        O = overlap_matrix(inner, outer, 200)
        col = np.sum(O**2, axis=0)
        assert np.all(col[:3] > 1.0 - 1e-5)
        assert np.all(col[:3] <= 1.0 + 1e-12)

    def test_build_memory_at_N_1024(self):
        # the y-even block is 512^2 doubles (2 MiB); one temporary of the
        # full N x N matrix alone would take 8 MiB
        inner, outer = RobinCrossSection(1e-5, 1.0), RobinCrossSection(1e5, 1.0)
        tracemalloc.start()
        try:
            O = overlap_matrix(inner, outer, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert O.shape == (512, 512)
        assert peak <= 32 * 2**20

    def test_largest_block_is_built_in_row_chunks(self):
        # the hard-wall block at the largest N a solve takes is 21 MiB; built
        # whole, its temporaries peaked at 256 MiB.  Chunks of other sizes
        # give the N = 1024 block bit for bit.
        inner, outer = RobinCrossSection(1e-5, 1.0), RobinCrossSection(1e5, 1.0)
        transversal_levels(inner, _MAX_SOLVE_N), transversal_levels(outer, _MAX_SOLVE_N)
        tracemalloc.start()
        try:
            O = overlap_matrix(inner, outer, _MAX_SOLVE_N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert O.shape == (1672, 1672)
        assert peak <= 64 * 2**20
        assert O[:512, :512].tobytes() == overlap_matrix(inner, outer, 1024).tobytes()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractError):
            overlap_matrix(RobinCrossSection(1.0, 1.0), RobinCrossSection(1.0, 2.0), 1)


class TestQuadrature:
    def test_cached_rule_is_read_only(self):
        # gauss_legendre is cached: an in-place edit by one caller would
        # change every later quadrature in the process
        x, w = gauss_legendre(64)
        with pytest.raises(ValueError):
            w *= 2.0
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert composite_gl(0.0, 1.0)[1].sum() == pytest.approx(1.0, abs=1e-14)


class TestPublicSurface:
    @pytest.mark.parametrize("name", ["TransversalMode", "transversal_mode", "mode_eval",
                                      "mode_eval_derivative", "overlap"])
    def test_per_level_path_is_gone(self, name):
        # a level is read from the transversal_levels table only
        assert name not in robinstrip.__all__
        assert not hasattr(robinstrip, name)
        assert not hasattr(robinstrip.transverse, name)
