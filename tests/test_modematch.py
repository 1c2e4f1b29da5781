"""Mode matching: channel values and derivatives against the closed-form
axial stiffness, the matching matrix C, root scan, bound states,
wavefunctions, residuals."""

import dataclasses
import pickle
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from conftest import admitted_alpha, full_window_roots, neumann_state_cap, reference_overlaps
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robinstrip import (ConfigError, ContractError, NumericalError, ParitySector, WellConfig,
                        bound_state_energies, matching_residual, minimax_brackets,
                        overlap_matrix, transversal_eigenvalues, wavefunction)
from robinstrip import modematch, transverse
from robinstrip.modematch import (_count_bounds, _mode_table, _ModeTable, _pair_nearest,
                                  _scan_matrices, _scan_roots, _scan_slogdet, _value_deriv,
                                  _window, bound_states)
from robinstrip.transverse import transversal_levels

SYM = ParitySector.SYMMETRIC
ANTI = ParitySector.ANTISYMMETRIC

WELL = WellConfig(alpha0=20.0, alpha1=5.0, a=0.3, d=1.0)


@lru_cache(maxsize=None)
def _energies(cfg, parity):
    return [x.lam for x in bound_state_energies(cfg, parity, 32)]


def _stiffness(lam, E, a, parity):
    """Closed-form axial stiffness L_n: l tanh(l a) resp. l coth(l a) with
    l = sqrt(E - lam), continued as -kappa tan(kappa a) resp. kappa
    cot(kappa a) with kappa = sqrt(lam - E); limits 0 and 1/a at lam = E."""
    sym = parity is SYM
    if lam == E:
        return 0.0 if sym else 1.0 / a
    if lam < E:
        l = np.sqrt(E - lam)
        return l * np.tanh(l * a) if sym else l / np.tanh(l * a)
    kap = np.sqrt(lam - E)
    return -kap * np.tan(kap * a) if sym else kap / np.tan(kap * a)


def _ratio(lam, E, a, parity):
    V, D = _value_deriv(np.array([lam]), np.array([E]), a, parity)
    return D[0, 0] / V[0, 0]


def _full_table(cfg, N):
    """All N channels, y-odd ones included, from the level tables and the
    quadrature overlaps of conftest: a reference independent of the
    solver's y-even table and of overlap_matrix."""
    return _ModeTable(transversal_levels(cfg.inner, N), transversal_levels(cfg.outer, N),
                      reference_overlaps(cfg.inner, cfg.outer, N))


def _matching_matrix(table, cfg, parity, lam):
    """C_mn = (L_n + k_m) O_mn / (1 + k_m d) on the channels of table from
    the closed-form stiffness, independent of the rescaled stack the solver
    builds."""
    L = np.array([_stiffness(lam, E, cfg.a, parity) for E in table.inner.energy])
    k = np.sqrt(table.outer.energy - lam)
    return (L[None, :] + k[:, None]) * table.overlaps / (1.0 + k * cfg.d)[:, None]


def _scattered(state):
    """a_coeffs in the odd-n slots of a length-N vector, zeros elsewhere."""
    a = np.zeros(state.N)
    a[::2] = state.a_coeffs
    return a


@pytest.fixture(scope="module")
def reference_ground():
    states = bound_state_energies(WELL, SYM, 32)
    assert len(states) == 1
    return states[0]


class TestWellConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WellConfig(0.0, 1.0, 0.3, 1.0)
        with pytest.raises(ConfigError):
            WellConfig(20.0, 5.0, -0.3, 1.0)
        with pytest.raises(ConfigError):
            WellConfig(20.0, np.nan, 0.3, 1.0)

    def test_is_well(self):
        assert WELL.is_well
        assert not WellConfig(20.0, 20.0, 0.3, 1.0).is_well
        assert not WellConfig(5.0, 20.0, 0.3, 1.0).is_well

    def test_sector_values(self):
        assert SYM.value == "symmetric"
        assert ANTI.value == "antisymmetric"


class TestAxialStiffness:
    """D/V of _value_deriv is the closed-form stiffness, without its poles."""

    def test_evanescent_branch(self):
        # l tanh(l a) and l coth(l a) with l = 2, a = 0.3
        E, lam = 10.0, 6.0
        l = 2.0
        assert _ratio(lam, E, 0.3, SYM) == pytest.approx(l * np.tanh(l * 0.3), rel=1e-14)
        assert _ratio(lam, E, 0.3, ANTI) == pytest.approx(l / np.tanh(l * 0.3), rel=1e-14)

    def test_at_channel_energy(self):
        assert _ratio(4.0, 4.0, 0.5, SYM) == 0.0
        assert _ratio(4.0, 4.0, 0.5, ANTI) == 2.0

    def test_oscillatory_branch(self):
        E, lam, a = 1.0, 5.0, 0.7
        kap = 2.0
        assert _ratio(lam, E, a, SYM) == pytest.approx(-kap * np.tan(kap * a), rel=1e-13)
        assert _ratio(lam, E, a, ANTI) == pytest.approx(kap / np.tan(kap * a), rel=1e-13)

    def test_continuity_across_channel_energy(self):
        E, a = 7.0, 0.4
        for parity in (SYM, ANTI):
            below = _ratio(E - 1e-9, E, a, parity)
            at = _ratio(E, E, a, parity)
            above = _ratio(E + 1e-9, E, a, parity)
            assert abs(below - at) < 1e-8
            assert abs(above - at) < 1e-8

    def test_derivative_stays_finite_at_stiffness_poles(self):
        # at a pole of L_n the value vanishes, to rounding, and the
        # derivative does not, so the scan matrix has no pole there
        a, E = 0.5, 2.0
        for parity, pole in ((SYM, E + (0.5 * np.pi / a) ** 2), (ANTI, E + (np.pi / a) ** 2)):
            V, D = _value_deriv(np.array([pole]), np.array([E]), a, parity)
            assert abs(D[0, 0]) > 0.5
            assert abs(V[0, 0]) < 1e-14 * abs(D[0, 0])

    @given(lam=st.floats(0.1, 60.0), E=st.floats(0.1, 60.0),
           a=st.floats(0.05, 2.0), sym=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_value_deriv_ratio_is_stiffness(self, lam, E, a, sym):
        parity = SYM if sym else ANTI
        V, D = _value_deriv(np.array([lam]), np.array([E]), a, parity)
        V, D = V[0, 0], D[0, 0]
        if abs(V) < 1e-12:
            return
        L = _stiffness(lam, E, a, parity)
        scale = max(1.0, abs(L))
        assert abs(D / V - L) <= 1e-9 * scale


class TestMatchingMatrix:
    """Each state against C built from the closed-form stiffness: the full
    N-channel C on the reference overlaps, and the y-even block on the
    solver's."""

    STATES = ((WELL, SYM, 32), (WellConfig(8.0, 1.0, 1.5, 1.0), SYM, 32),
              (WellConfig(40.0, 2.0, 1.0, 0.8), SYM, 16),
              (WellConfig(40.0, 2.0, 1.0, 0.8), ANTI, 16),
              (WellConfig(1e5, 1e-5, 2.0, 1.0), ANTI, 32),
              (WellConfig(8.0, 1.0, 1.5, 1.0), SYM, 33))

    @pytest.mark.parametrize("cfg,parity,N", STATES)
    def test_state_is_null_vector_of_C(self, cfg, parity, N):
        states = bound_state_energies(cfg, parity, N)
        assert states
        for st in states:
            assert len(st.a_coeffs) == len(st.b_coeffs) == (N + 1) // 2
            C = _matching_matrix(_full_table(cfg, N), cfg, parity, st.lam)
            assert np.linalg.norm(C @ _scattered(st)) <= 1e-8 * np.linalg.norm(C, 2)

    @pytest.mark.parametrize("cfg,parity,N", STATES)
    def test_sigma_min_is_that_of_C(self, cfg, parity, N):
        # the y-even block of C (the y-odd one is regular in the window) on
        # the solver's overlaps, so only the column rescaling is under test
        table = _mode_table(cfg.inner, cfg.outer, N)
        for st in bound_state_energies(cfg, parity, N):
            s = np.linalg.svd(_matching_matrix(table, cfg, parity, st.lam), compute_uv=False)
            assert abs(st.sigma_min - s[-1]) <= 1e-15 * s[0]

    @pytest.mark.parametrize("cfg,parity,N", STATES)
    def test_row_weight_away_from_a_root(self, cfg, parity, N):
        # at a root sigma_min is below the tolerance above whatever the row
        # weight; midway between E_1(alpha1) and the first root it is
        # O(sigma_max), so there the weight 1/(1 + k_m d) is pinned
        table = _mode_table(cfg.inner, cfg.outer, N)
        lam = 0.5 * (table.inner.energy[0] + bound_state_energies(cfg, parity, N)[0].lam)
        Creg, colfac = (x[0] for x in _scan_matrices(table, cfg.a, parity, np.array([lam])))
        C = _matching_matrix(table, cfg, parity, lam)
        s = np.linalg.svd(C, compute_uv=False)
        assert s[-1] > 1e-3 * s[0]
        assert np.abs(Creg / colfac - C).max() <= 1e-13 * s[0]
        assert abs(np.linalg.svd(Creg / colfac, compute_uv=False)[-1] - s[-1]) <= 1e-13 * s[0]


class TestBoundStates:
    def test_reference_ground_state(self, reference_ground):
        s = reference_ground
        assert s.lam == pytest.approx(7.679645769, rel=1e-8)
        assert s.parity is SYM
        assert s.a_coeffs[0] > 0.9  # dominated by the first channel
        assert np.linalg.norm(s.a_coeffs) == pytest.approx(1.0, abs=1e-12)
        assert s.sigma_min < 1e-10
        assert s.trunc_err == abs(s.lam - s.lam_coarse) and s.trunc_err < 5e-3
        assert s.richardson() == pytest.approx(s.lam, abs=5e-3)

    def test_no_antisymmetric_state_in_narrow_well(self):
        assert bound_state_energies(WELL, ANTI, 16) == []

    def test_constant_profile_has_no_states(self):
        const = WellConfig(20.0, 20.0, 0.3, 1.0)
        assert bound_state_energies(const, SYM, 8) == []
        assert bound_state_energies(const, ANTI, 8) == []

    def test_near_degenerate_window_is_safe(self):
        cfg = WellConfig(20.0, 20.0 - 1e-9, 0.3, 1.0)
        assert bound_state_energies(cfg, SYM, 8) == []

    @pytest.mark.parametrize("eps", [0.1, 1e-3, 1e-4, 1e-5])
    def test_shallow_well_state_near_threshold(self, eps):
        # the binding falls from 5e-6 at eps = 0.1 to 5e-14, about 27 ulp of
        # lambda, at eps = 1e-5; det varies with sqrt(E_1(alpha0) - lambda)
        # there, so a bracket must shrink to a few ulp to place the root
        cfg = WellConfig(20.0, 20.0 - eps, 0.3, 1.0)
        states = bound_state_energies(cfg, SYM, 16)
        E1_in = float(transversal_eigenvalues(cfg.inner, 1)[0])
        E1_out = float(transversal_eigenvalues(cfg.outer, 1)[0])
        assert len(states) == 1
        assert E1_in < states[0].lam < E1_out

    @pytest.mark.parametrize("cfg", [WellConfig(1e12, 1e9, 2.0, 1.0),
                                     WellConfig(1e9, 1e8, 16.0, 6.0)])
    @pytest.mark.parametrize("N", [8, 16, 32, 64])
    def test_narrow_window_keeps_its_ground_state(self, cfg, N):
        # every well has a state below E_1(alpha0); on these windows, about
        # 1e-8 E_1 wide, it binds by 1e-15 to 1e-14 E_1, so at 8 ulp of
        # lambda its sigma_min is still about 5e-8 sigma_max and only the
        # sign change of det certifies it
        states = bound_state_energies(cfg, SYM, N)
        E1_in = float(transversal_eigenvalues(cfg.inner, 1)[0])
        E1_out = float(transversal_eigenvalues(cfg.outer, 1)[0])
        assert len(states) == 1
        assert E1_in < states[0].lam < E1_out

    def test_one_channel_truncation_finds_the_ground_state(self):
        # at N = 2 the scan matrix is 1 x 1, so sigma_min = sigma_max and
        # only the sign change of det certifies the state
        states = bound_state_energies(WELL, SYM, 2)
        lo, hi = minimax_brackets(WELL, 1)
        assert len(states) == 1
        assert lo < states[0].lam < hi

    def test_binding_weakens_toward_uniform_coupling(self):
        E1_out = float(transversal_eigenvalues(WELL.outer, 1)[0])
        bindings = []
        for alpha1 in (5.0, 10.0, 15.0, 19.0):
            cfg = WellConfig(20.0, alpha1, 0.3, 1.0)
            states = bound_state_energies(cfg, SYM, 16)
            assert len(states) == 1
            bindings.append(E1_out - states[0].lam)
        assert all(b > 0 for b in bindings)
        assert bindings == sorted(bindings, reverse=True)

    def test_parameter_validation(self):
        with pytest.raises(ContractError):
            bound_state_energies(WELL, SYM, 1)
        with pytest.raises(ContractError):
            bound_state_energies(WELL, SYM, 8, scan_points=4)

    @given(log_alpha0_d=st.floats(-7.0, 15.0), log_alpha1_d=st.floats(-7.0, 15.0),
           a=st.floats(0.1, 1.6))
    @example(log_alpha0_d=np.log10(20.0), log_alpha1_d=np.log10(5.0), a=0.3)
    @example(log_alpha0_d=5.0, log_alpha1_d=-5.0, a=1.6)
    @example(log_alpha0_d=15.0, log_alpha1_d=-7.0, a=1.6)
    @settings(max_examples=25, deadline=None)
    def test_count_within_rigorous_cap_and_brackets(self, log_alpha0_d, log_alpha1_d, a):
        # over the admitted range of alpha*d, from a barely bound weak
        # coupling to the hard-wall pair
        assume(log_alpha1_d < log_alpha0_d)
        cfg = WellConfig(admitted_alpha(10.0**log_alpha0_d, 1.0),
                         admitted_alpha(10.0**log_alpha1_d, 1.0), a, 1.0)
        [states] = bound_states([cfg], 10, scan_points=200)
        assert len(states) <= neumann_state_cap(cfg)
        E1_in = float(transversal_eigenvalues(cfg.inner, 1)[0])
        E1_out = float(transversal_eigenvalues(cfg.outer, 1)[0])
        for i, s in enumerate(states, start=1):
            assert E1_in < s.lam < E1_out
            lo, hi = minimax_brackets(cfg, i)
            width = hi - lo
            assert s.lam >= lo - 1e-9 * max(1.0, abs(lo)) - 1e-6 * width
            assert s.lam <= hi + 1e-9 * max(1.0, abs(hi)) + 1e-6 * width

    @given(s=st.floats(1e-3, 1e3))
    @example(s=1e-2)
    @example(s=1e-3)
    @example(s=1e3)
    @example(s=1e-10)
    @example(s=1e-8)
    @example(s=1e7)
    @example(s=1e10)
    @settings(max_examples=4, deadline=None)
    def test_scale_covariance(self, s):
        # (alpha, a, d) -> (alpha/s, s a, s d) maps lambda to lambda/s^2;
        # roots are refined to a width relative to lambda, so every copy
        # is resolved alike, from lambda ~ 8e20 at s = 1e-10 to 8e-20 at
        # 1e10.  An absolute energy in the window's emptiness test lost
        # the copies at s = 1e7 and 1e10, and the scan's row weight
        # 1 / (1 + k_m) the near-critical well's root at s = 1e-10 and 1e-8.
        for cfg in (WELL, WellConfig(40.0, 2.0, 1.0, 0.8), WellConfig(20.0, 19.999, 0.3, 1.0)):
            scaled = WellConfig(cfg.alpha0 / s, cfg.alpha1 / s, s * cfg.a, s * cfg.d)
            for parity in ParitySector:
                ref = _energies(cfg, parity)
                got = [x.lam * s * s for x in bound_state_energies(scaled, parity, 32)]
                assert len(got) == len(ref)
                assert got == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_large_copy_keeps_its_state(self):
        # the s = 1e3 copy of WELL has lambda ~ 7.7e-6; an absolute
        # stopping width of 1e-12 left its root 5e-9 relative off
        states = bound_state_energies(WellConfig(0.02, 0.005, 300.0, 1000.0), SYM, 32)
        assert len(states) == 1
        assert states[0].lam * 1e6 == pytest.approx(_energies(WELL, SYM)[0], rel=1e-12)

    @pytest.mark.parametrize("s", [1e6, 1e8, 1e10])
    def test_near_critical_copy_keeps_its_state(self, s):
        # the window of (20, 19, 0.3, 1) is 0.4 wide at s = 1; an absolute
        # 1.0 in its emptiness test called the s = 1e6 copy's window empty
        cfg = WellConfig(20.0, 19.0, 0.3, 1.0)
        scaled = WellConfig(cfg.alpha0 / s, cfg.alpha1 / s, s * cfg.a, s * cfg.d)
        states = bound_state_energies(scaled, SYM, 32)
        assert len(states) == 1
        assert states[0].lam * s * s == pytest.approx(_energies(cfg, SYM)[0], rel=1e-12)

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_small_d_state(self, N):
        # lambda ~ 53 on a strip of width 0.01: a stopping width scaled by
        # (pi/d)^2 instead of ulp(lambda) loses this state
        cfg = WellConfig(0.26484298784654076, 0.00019083472338531928,
                         0.0027645563666160197, 0.010000093954599118)
        states = bound_state_energies(cfg, SYM, N)
        assert len(states) == 1
        assert states[0].lam == pytest.approx(52.92335, abs=1e-6)

    def test_a_sweep_solves_each_cross_section_once_per_N(self, newton_levels):
        # tables depend on (alpha, d) and N only; the N/2 companion and E_1
        # read the first levels of the N table, and a larger N solves a
        # whole new table
        _mode_table.cache_clear()
        for r in (0.3, 0.6, 0.9):
            for parity in ParitySector:
                bound_state_energies(WellConfig(20.0, 5.0, r, 1.0), parity, 16)
        assert sorted((cs.alpha, n) for cs, n in newton_levels) == [(5.0, 16), (20.0, 16)]
        assert _mode_table.cache_info().misses == 1
        bound_state_energies(WellConfig(20.0, 5.0, 0.3, 1.0), SYM, 24)
        assert sorted((cs.alpha, n) for cs, n in newton_levels[2:]) == [(5.0, 24), (20.0, 24)]

    def test_narrow_second_state_of_wide_well(self):
        # the second symmetric state lies 3e-3 below threshold; its dip is
        # narrower than the scan grid spacing in the full matrix, where the
        # y-odd block's floor hides it, but not in the y-even block
        cfg = WellConfig(8.0, 1.0, 1.5, 1.0)
        E1_out = float(transversal_eigenvalues(cfg.outer, 1)[0])
        lo, hi = minimax_brackets(cfg, 3)
        lams = []
        for N in (16, 24, 32, 48, 64):
            states = bound_state_energies(cfg, SYM, N)
            assert len(states) == 2
            assert lo < states[1].lam < hi <= E1_out
            assert states[1].sigma_min < 1e-10
            lams.append(states[1].lam)
        # converging from below as N grows
        assert np.all(np.diff(lams) > 0) and np.all(np.diff(lams) < 2e-4)
        # the s = 1e-2 copy keeps it at lambda / s^2
        s = 1e-2
        scaled = WellConfig(cfg.alpha0 / s, cfg.alpha1 / s, s * cfg.a, s * cfg.d)
        states = bound_state_energies(scaled, SYM, 64)
        assert len(states) == 2
        assert states[1].lam * s * s == pytest.approx(lams[-1], rel=1e-8, abs=0.0)

    def test_antisymmetric_state_of_thin_strip(self):
        # a sigma_min scan of the grid lost this state at N = 64
        cfg = WellConfig(78.79295871732337, 3.9018661273165116,
                         0.39662561687452436, 0.5549311055010613)
        lams = []
        for N in (32, 48, 64):
            states = bound_state_energies(cfg, ANTI, N)
            assert len(states) == 1
            assert states[0].sigma_min < 1e-10
            lams.append(states[0].lam)
        assert lams[-1] == pytest.approx(29.3099721, abs=1e-7)
        assert np.all(np.diff(lams) > 0) and np.all(np.diff(lams) < 5e-4)


class TestBatchedSolve:
    """bound_states solves the wells that share a cross-section pair
    together: every sector's brackets in one lockstep refinement, every
    null vector in one batched SVD."""

    @staticmethod
    def _fields(states):
        return [(s.lam, s.parity, s.a_coeffs.tobytes(), s.b_coeffs.tobytes(), s.sigma_min,
                 s.lam_coarse) for s in states]

    @classmethod
    def _alone(cls, well, N):
        """One bound_state_energies call per sector, merged by lambda."""
        return cls._fields(sorted(bound_state_energies(well, SYM, N)
                                  + bound_state_energies(well, ANTI, N), key=lambda s: s.lam))

    @given(log_alpha0_d=st.floats(-7.0, 15.0), log_alpha1_d=st.floats(-7.0, 15.0),
           log_d=st.floats(-2.0, 2.0),
           ratios=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
           N=st.sampled_from([2, 3, 8, 32]))
    @example(log_alpha0_d=np.log10(8.0), log_alpha1_d=0.0, log_d=0.0,
             ratios=[0.6, 1.0, 1.5, 1.8], N=32)
    @example(log_alpha0_d=5.0, log_alpha1_d=-5.0, log_d=0.0, ratios=[0.8, 2.0, 0.3], N=8)
    @example(log_alpha0_d=np.log10(20.0), log_alpha1_d=np.log10(5.0), log_d=0.0,
             ratios=[0.3, 0.3], N=2)
    @settings(max_examples=40, deadline=None)
    def test_batching_is_invisible(self, log_alpha0_d, log_alpha1_d, log_d, ratios, N):
        # lam, coefficients, sigma_min and the N/2 companion of every state
        # have the bits of one solve per (well, sector)
        assume(log_alpha1_d < log_alpha0_d)
        d = 10.0**log_d
        alpha0 = admitted_alpha(10.0**log_alpha0_d, d)
        alpha1 = admitted_alpha(10.0**log_alpha1_d, d)
        wells = [WellConfig(alpha0, alpha1, r * d, d) for r in ratios]
        batched = [self._fields(states) for states in bound_states(wells, N)]
        assert batched == [self._alone(well, N) for well in wells]

    def test_runs_of_one_cross_section_share_a_table(self):
        # consecutive wells of one (alpha0, alpha1, d) share a mode table;
        # a well of another pair in between starts a new run
        other = WellConfig(40.0, 2.0, 1.0, 0.8)
        wells = [WELL, dataclasses.replace(WELL, a=0.6), other, dataclasses.replace(WELL, a=0.9)]
        alone = [self._alone(well, 16) for well in wells]
        _mode_table.cache_clear()
        batched = [self._fields(states) for states in bound_states(wells, 16)]
        assert _mode_table.cache_info().misses == 3
        assert batched == alone

    def test_sizes_are_refused_before_any_solve(self):
        with pytest.raises(ContractError):
            bound_states([WELL], 1)
        with pytest.raises(ContractError):
            bound_states([WELL], 8, scan_points=4)


class TestBlockScan:
    WELLS = (WELL, WellConfig(8.0, 1.0, 1.5, 1.0), WellConfig(40.0, 2.0, 1.0, 0.8))
    NEAR_THRESHOLD = tuple(WellConfig(20.0, 20.0 - eps, 0.3, 1.0) for eps in (1e-3, 1e-4, 1e-5))
    HARD_WALL = WellConfig(1e5, 1e-5, 2.0, 1.0)

    @staticmethod
    def _grid(table, P=37):
        return np.linspace(table.inner.energy[0], table.outer.energy[0], P)

    def test_table_is_the_y_even_block(self):
        for cfg in self.WELLS:
            for N in (16, 33):
                table, full = _mode_table(cfg.inner, cfg.outer, N), _full_table(cfg, N)
                assert table.inner.energy.tolist() == full.inner.energy[::2].tolist()
                assert table.outer.k.tolist() == full.outer.k[::2].tolist()
                assert table.overlaps.tolist() == overlap_matrix(cfg.inner, cfg.outer,
                                                                 N).tolist()
                assert np.max(np.abs(table.overlaps - full.overlaps[::2, ::2])) <= 1e-11

    @staticmethod
    def _signs(block, a, parity, lam):
        return np.linalg.slogdet(_scan_matrices(block, a, parity, lam)[0])[0]

    def test_batched_det_sign_equals_per_energy_sign(self):
        for cfg in self.WELLS:
            block = _mode_table(cfg.inner, cfg.outer, 32)
            lam = self._grid(block)
            for parity in ParitySector:
                batched = self._signs(block, cfg.a, parity, lam)
                single = [self._signs(block, cfg.a, parity, np.array([x]))[0] for x in lam]
                assert batched.tolist() == single

    @given(log_alpha0_d=st.floats(-7.0, 15.0), log_alpha1_d=st.floats(-7.0, 15.0),
           ratio=st.floats(0.05, 3.0), log_d=st.floats(-3.0, 3.0),
           N=st.sampled_from([2, 3, 5, 16, 32]))
    @example(log_alpha0_d=np.log10(20.0), log_alpha1_d=np.log10(5.0), ratio=0.3, log_d=0.0, N=2)
    @example(log_alpha0_d=np.log10(8.0), log_alpha1_d=0.0, ratio=1.5, log_d=0.0, N=32)
    @example(log_alpha0_d=np.log10(32.0), log_alpha1_d=np.log10(1.6), ratio=1.25,
             log_d=np.log10(0.8), N=16)
    @example(log_alpha0_d=12.0, log_alpha1_d=9.0, ratio=2.0, log_d=0.0, N=32)
    @example(log_alpha0_d=15.0, log_alpha1_d=0.0, ratio=1.0, log_d=2.03125, N=2)
    @settings(max_examples=60, deadline=None)
    def test_sign_changes_count_accepted_roots(self, log_alpha0_d, log_alpha1_d, ratio,
                                               log_d, N):
        # over the admitted range of alpha*d, every sign change on the scan
        # grid gives exactly one root and every exact zero one more, all in
        # the window, and both sectors together stay within the Neumann cap
        assume(log_alpha1_d < log_alpha0_d)
        d = 10.0**log_d
        cfg = WellConfig(admitted_alpha(10.0**log_alpha0_d, d),
                         admitted_alpha(10.0**log_alpha1_d, d), ratio * d, d)
        table = _mode_table(cfg.inner, cfg.outer, N)
        win = _window(table)
        total = 0
        for parity in ParitySector:
            roots = _scan_roots(table, [(cfg.a, parity)], 400)[0]
            total += len(roots)
            if win is None:
                assert roots == []
                continue
            sg = self._signs(table, cfg.a, parity, np.linspace(*win, 400))
            changes = np.count_nonzero(sg[:-1] * sg[1:] < 0.0)
            assert len(roots) == changes + np.count_nonzero(sg == 0.0)
            assert all(win[0] <= lam <= win[1] for lam in roots)
        assert total <= neumann_state_cap(cfg)

    @pytest.mark.parametrize("cfg", WELLS + (HARD_WALL,))
    def test_scan_matrix_is_continuous_across_branch_points(self, cfg):
        # a sign change of det C_hat is a root only because C_hat is
        # continuous: its entries must change linearly in the distance to
        # each inner channel energy E_n(alpha1), where _value_deriv switches
        # branch, and to each stiffness pole of channel 1 in the window,
        # where V_1 = 0 and C itself blows up.  No y-even threshold but
        # E_1(alpha1), the window's lower end, reaches into the window
        table = _mode_table(cfg.inner, cfg.outer, 16)
        lo, hi = float(table.inner.energy[0]), float(table.outer.energy[0])
        assert table.inner.energy[1] > hi
        for parity in ParitySector:
            first = np.pi / (2.0 * cfg.a) if parity is SYM else 0.0
            poles = lo + (first + np.pi / cfg.a * np.arange(1, 64)) ** 2
            for E in np.concatenate([table.inner.energy, poles[poles < hi]]):
                jumps = []
                for delta in (1e-4, 1e-6, 1e-8):
                    lam = np.array([E - delta * (hi - lo), E + delta * (hi - lo)])
                    C = _scan_matrices(table, cfg.a, parity, lam)[0]
                    jumps.append(np.max(np.abs(C[1] - C[0])))
                assert jumps[0] < 1e-2, (parity, E)
                assert jumps[1] <= 0.02 * jumps[0] and jumps[2] <= 0.02 * jumps[1], \
                    (parity, E, jumps)

    def test_block_roots_are_roots_of_full_matrix(self):
        found = 0
        for cfg in self.WELLS + (WellConfig(1e5, 1e-5, 2.0, 1.0),):
            for N in (8, 16, 32, 33):
                table, full = _mode_table(cfg.inner, cfg.outer, N), _full_table(cfg, N)
                for parity in ParitySector:
                    for lam in _scan_roots(table, [(cfg.a, parity)], 400)[0]:
                        C = _scan_matrices(full, cfg.a, parity, np.array([lam]))[0][0]
                        s = np.linalg.svd(C, compute_uv=False)
                        assert s[-1] < 1e-8 * s[0]
                        found += 1
        assert found >= 20

    @staticmethod
    def _count_work(monkeypatch):
        calls = {"matrices": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(modematch, "_scan_matrices",
                            counted("matrices", modematch._scan_matrices))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        return calls

    def test_rootless_sector_is_one_lu_and_no_svd(self, monkeypatch):
        table = _mode_table(WELL.inner, WELL.outer, 16)
        calls = self._count_work(monkeypatch)
        assert _scan_roots(table, [(WELL.a, ANTI)], 400)[0] == []
        assert calls == {"matrices": 1, "svd": 0}

    def test_bisection_work_does_not_grow_with_root_count(self, monkeypatch):
        # each bracket stops at 8 ulp of its upper end, which is at least
        # 8 ulp of the smallest root, so the step count is bounded by the
        # halvings from the grid spacing h down to that width
        calls = self._count_work(monkeypatch)
        counts = set()
        for cfg in self.WELLS + (WellConfig(1e5, 1e-5, 2.0, 1.0),):
            table = _mode_table(cfg.inner, cfg.outer, 32)
            lo, hi = _window(table)
            h = (hi - lo) / 399
            for parity in ParitySector:
                calls.update(matrices=0, svd=0)
                roots = _scan_roots(table, [(cfg.a, parity)], 400)[0]
                if roots:
                    counts.add(len(roots))
                    width = 8.0 * np.spacing(min(roots))
                    assert calls["matrices"] <= 2 + np.ceil(np.log2(h / width))
                    assert calls["svd"] == 0
        assert counts == {1, 2}

    def test_sweep_refines_in_the_steps_of_its_slowest_job(self, monkeypatch):
        # the brackets of every (well, sector) job of a table step together:
        # past one grid LU per job (one chunk at N = 32), a 4-point a sweep
        # takes no more batched LUs than its slowest job alone
        wells = [WellConfig(8.0, 1.0, r, 1.0) for r in (0.6, 1.0, 1.5, 1.8)]
        table = _mode_table(wells[0].inner, wells[0].outer, 32)
        jobs = [(w.a, parity) for w in wells for parity in ParitySector]
        lus = []
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda C: lus.append(1) or slogdet(C))
        roots = _scan_roots(table, jobs, 400)
        lockstep = len(lus) - len(jobs)
        alone = []
        for job, job_roots in zip(jobs, roots):
            lus.clear()
            assert _scan_roots(table, [job], 400)[0] == job_roots
            alone.append(len(lus) - 1)
        assert sum(bool(r) for r in roots) >= 6
        assert lockstep <= max(alone) < sum(alone)

    def test_a_sweep_takes_two_svd_calls(self, monkeypatch):
        # one batched SVD for the null vectors of every root of the table
        # and one for their sigma_min
        wells = [WellConfig(8.0, 1.0, r, 1.0) for r in (0.6, 1.0, 1.5, 1.8)]
        calls = self._count_work(monkeypatch)
        solved = list(bound_states(wells, 32))
        assert sum(map(len, solved)) >= 8
        assert calls["svd"] == 2

    @staticmethod
    def _bisected_roots(table, a, parity, scan_points=400):
        """The lockstep bisection that the Illinois refinement replaced,
        with its window: every sign-change interval halved until it is 8
        ulp wide, its midpoint the root."""
        lo, hi = float(table.inner.energy[0]), float(table.outer.energy[0])
        w = hi - lo
        if w <= 1e3 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0):
            return []

        def sign(lam):
            return np.linalg.slogdet(_scan_matrices(table, a, parity, lam)[0])[0]

        grid = np.linspace(lo + 1e-9 * w, hi - 1e-9 * w, scan_points)
        sg = sign(grid)
        j = np.flatnonzero(sg[:-1] * sg[1:] < 0.0)
        gl, gh, sl = grid[j], grid[j + 1], sg[j]
        while True:
            act = np.flatnonzero(gh - gl > 8.0 * np.spacing(gh))
            if not act.size:
                break
            mid = 0.5 * (gl[act] + gh[act])
            right = sign(mid) == sl[act]
            gl[act] = np.where(right, mid, gl[act])
            gh[act] = np.where(right, gh[act], mid)
        return np.sort(np.concatenate([grid[sg == 0.0], 0.5 * (gl + gh)])).tolist()

    def test_illinois_roots_are_the_bisected_roots(self):
        rooted = 0
        for cfg in self.WELLS + (self.HARD_WALL,) + self.NEAR_THRESHOLD:
            for N in (8, 16, 32, 64):
                table = _mode_table(cfg.inner, cfg.outer, N)
                for parity in ParitySector:
                    ref = self._bisected_roots(table, cfg.a, parity)
                    roots = _scan_roots(table, [(cfg.a, parity)], 400)[0]
                    assert len(roots) == len(ref), (cfg, N, parity)
                    for lam, lam_ref in zip(roots, ref):
                        assert abs(lam - lam_ref) <= 8.0 * np.spacing(lam_ref)
                    rooted += bool(roots)
        assert rooted >= 40

    def test_illinois_work_per_rooted_scan(self, monkeypatch):
        # one grid LU and at most 20 Illinois steps; bisection
        # from the 400-point grid to 8 ulp takes about 40 steps, and so
        # does regula falsi without the Illinois halving on scaled copies
        calls = self._count_work(monkeypatch)
        rooted = 0
        wells = self.WELLS + (self.HARD_WALL,) + self.NEAR_THRESHOLD
        scaled = tuple(WellConfig(w.alpha0 / s, w.alpha1 / s, w.a * s, w.d * s)
                       for s in (1e-2, 1e3) for w in self.WELLS)
        for cfg in wells + scaled:
            for N in (8, 16, 32, 64):
                table = _mode_table(cfg.inner, cfg.outer, N)
                for parity in ParitySector:
                    calls.update(matrices=0, svd=0)
                    if _scan_roots(table, [(cfg.a, parity)], 400)[0]:
                        rooted += 1
                        assert calls["matrices"] <= 2 + 20, (cfg, N, parity)
        assert rooted >= 80

    @pytest.mark.parametrize("power", [3, 9, 21])
    def test_refinement_halves_a_bracket_every_four_steps(self, monkeypatch, power):
        # det = d^power, d = (lam - r) / h, has a root of multiplicity
        # power, where regula falsi alone crawls (power 21 took 776 steps
        # without the bisection fallback); a bisection at latest every
        # fourth step bounds the count by the halvings down to 8 ulp
        table = _mode_table(WELL.inner, WELL.outer, 8)
        lo, hi = _window(table)
        h = (hi - lo) / 399
        r = lo + 100.3 * h
        calls = []

        def fake(table, a, parity, lam):
            calls.append(lam.size)
            d = (lam - r) / h
            return (np.sign(d) * np.abs(d) ** power)[:, None, None], np.ones((lam.size, 1))

        monkeypatch.setattr(modematch, "_scan_matrices", fake)
        _scan_roots(table, [(WELL.a, SYM)], 400)
        halvings = np.ceil(np.log2(h / (8.0 * np.spacing(r))))
        assert len(calls) <= 2 + 4 * (halvings + 1)

    def test_window_stops_short_of_threshold(self):
        # at E_1(alpha0) itself k_1 = 0 and the scan matrix is singular to
        # rounding, so a window that reached it could accept a fake root
        for eps in (1e-9, 1e-7, 0.5):
            cfg = WellConfig(20.0, 20.0 - eps, 0.3, 1.0)
            table = _mode_table(cfg.inner, cfg.outer, 8)
            top = float(table.outer.energy[0])
            assert _window(table)[1] <= top - 2.0 * np.spacing(top)

    def test_companion_roots_are_the_half_truncation_scan(self):
        # the N/2 companion scans a prefix of the y-even table; its roots
        # are bitwise those of the table built at N // 2
        paired = 0
        for cfg in self.WELLS + (WellConfig(1e5, 1e-5, 2.0, 1.0),):
            for N in (16, 32, 33):
                for parity in ParitySector:
                    states = bound_state_energies(cfg, parity, N)
                    if not states:
                        continue
                    coarse = _scan_roots(_mode_table(cfg.inner, cfg.outer, N // 2),
                                         [(cfg.a, parity)], 400)[0]
                    fine = [st.lam for st in states]
                    assert [st.lam_coarse for st in states] == _pair_nearest(fine, coarse)
                    paired += sum(st.lam_coarse is not None for st in states)
        assert paired >= 20


class TestScanChunks:
    WELLS = (WELL, WellConfig(1e5, 1e-5, 0.8, 1.0), WellConfig(8.0, 1.0, 1.5, 1.0))

    def test_default_grid_is_one_chunk_at_N_32(self):
        n = (32 + 1) // 2
        assert modematch._SCAN_CHUNK_DOUBLES // (n * n) >= 400

    @pytest.mark.parametrize("chunk", [1, 7, 16, 33, 128])
    def test_chunked_slogdet_is_bitwise_one_batch(self, monkeypatch, chunk):
        for cfg in self.WELLS:
            table = _mode_table(cfg.inner, cfg.outer, 32)
            lam = np.linspace(*_window(table), 400)
            for parity in ParitySector:
                whole = np.linalg.slogdet(_scan_matrices(table, cfg.a, parity, lam)[0])
                monkeypatch.setattr(modematch, "_SCAN_CHUNK_DOUBLES", chunk * table.overlaps.size)
                sign, logdet = _scan_slogdet(table, cfg.a, parity, lam)
                monkeypatch.undo()
                assert sign.tolist() == whole.sign.tolist()
                assert logdet.tolist() == whole.logabsdet.tolist()

    def test_states_do_not_depend_on_the_chunk(self, monkeypatch):
        def fields(states):
            return [(s.lam, s.lam_coarse, s.sigma_min, s.a_coeffs.tolist())
                    for s in states]

        for cfg in self.WELLS:
            for parity in ParitySector:
                whole = fields(bound_state_energies(cfg, parity, 32))
                monkeypatch.setattr(modematch, "_SCAN_CHUNK_DOUBLES", 7 * 16 * 16)
                assert fields(bound_state_energies(cfg, parity, 32)) == whole
                monkeypatch.undo()

    def test_scan_memory_does_not_grow_with_the_grid(self):
        # at N = 512 the 400-energy stack alone would be 400 * 256^2 doubles
        # (200 MiB); a chunk holds 32 MiB and the mode table build about 5 MiB
        tracemalloc.start()
        try:
            states = bound_state_energies(WellConfig(1e5, 1e-5, 0.75, 1.0), SYM, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == 1
        assert peak < 64 * 2**20


class TestSizeGuard:
    class Admitted(Exception):
        pass

    @pytest.mark.parametrize("N, scan_points, admitted", [
        (1024, 400, True), (1158, 400, True), (1159, 400, False),
        (3344, 8, True), (3345, 8, False),
        # 8 * 4096^2 scan entries are exactly 2^27, but N is over 3344, the
        # largest level table the weak-coupling bound is derived for
        (8191, 8, False),
    ])
    def test_guard_bounds(self, monkeypatch, N, scan_points, admitted):
        # a solve the guard admits stops where its mode table would be built
        def admit(*args):
            raise self.Admitted
        monkeypatch.setattr(modematch, "_mode_table", admit)
        with pytest.raises(self.Admitted if admitted else ContractError):
            bound_state_energies(WELL, SYM, N, scan_points=scan_points)


class TestCompanionPairing:
    def test_pairs_by_proximity_not_index(self):
        assert _pair_nearest([5.0, 6.0], [4.2, 5.001, 6.002]) == [5.001, 6.002]

    def test_unmatched_roots_get_none(self):
        assert _pair_nearest([5.0, 6.0], []) == [None, None]
        # 5.004 is nearest to both fine roots but pairs only with 5.0
        assert _pair_nearest([5.0, 5.01], [5.004]) == [5.004, None]
        # 5.15's nearest fine root is 5.2, so 5.0 has no companion
        assert _pair_nearest([5.0, 5.2], [5.15]) == [None, 5.15]


class TestLazyCompanion:
    """lam_coarse is scanned on first read, once for all states of a solve."""

    CFG = WellConfig(8.0, 1.0, 1.5, 1.0)   # two symmetric states

    @staticmethod
    def _estimates(states):
        return [(s.lam_coarse, s.trunc_err, s.richardson()) for s in states]

    def test_one_prefix_scan_per_solve(self, scanned_channels):
        states = bound_state_energies(self.CFG, SYM, 32)
        assert len(states) >= 2 and scanned_channels == [16]
        first = self._estimates(states)
        assert self._estimates(states) == first
        assert scanned_channels == [16, 8]
        assert None not in (c for c, _, _ in first)

    @pytest.mark.parametrize("N", [4, 5])
    def test_one_channel_companion_pairs(self, scanned_channels, N):
        # the N/2 companion of N = 4 and 5 is a 1 x 1 scan
        states = bound_state_energies(WELL, SYM, N)
        assert len(states) == 1 and states[0].lam_coarse is not None
        assert scanned_channels == [(N + 1) // 2, 1]

    def test_estimates_survive_cleared_caches(self):
        want = self._estimates(bound_state_energies(self.CFG, SYM, 32))
        states = bound_state_energies(self.CFG, SYM, 32)
        _mode_table.cache_clear()
        transverse._tables.cache_clear()
        assert self._estimates(states) == want

    def test_pickle_carries_the_estimate(self):
        states = bound_state_energies(self.CFG, SYM, 32)
        copies = pickle.loads(pickle.dumps(states))
        assert [(s.lam, s.sigma_min, s.a_coeffs.tolist()) for s in copies] == \
            [(s.lam, s.sigma_min, s.a_coeffs.tolist()) for s in states]
        assert self._estimates(copies) == self._estimates(states)

    @pytest.mark.parametrize("N", [2, 3])
    def test_no_companion_below_N_4(self, scanned_channels, N):
        states = bound_state_energies(self.CFG, SYM, N)
        # the one channel at N = 2 gives a 1 x 1 scan matrix, and its sign
        # change is a state like any other
        assert states
        assert self._estimates(states) == [(None, None, None)] * len(states)
        assert set(scanned_channels) == {(N + 1) // 2}


class TestBrackets:
    def test_bracket_contains_ground_state(self, reference_ground):
        lo, hi = minimax_brackets(WELL, 1)
        assert lo < reference_ground.lam < hi

    def test_upper_end_clipped_at_threshold(self):
        E1_out = float(transversal_eigenvalues(WELL.outer, 1)[0])
        _, hi = minimax_brackets(WELL, 4)
        assert hi == E1_out

    def test_empty_bracket_signals_no_guarantee(self):
        lo, hi = minimax_brackets(WELL, 4)
        assert lo >= hi  # no 4th state is guaranteed in the reference well

    def test_cap_counts_bracketed_levels(self):
        assert neumann_state_cap(WELL) == 1
        assert neumann_state_cap(WellConfig(20.0, 20.0, 0.3, 1.0)) == 0
        wide = WellConfig(1e5, 1e-5, 2.0, 1.0)
        assert neumann_state_cap(wide) == 4

    @given(log_alpha0=st.floats(-7.0, 15.0), log_alpha1=st.floats(-7.0, 15.0),
           a=st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_cap_counts_bracket_lower_ends_below_threshold(self, log_alpha0, log_alpha1, a):
        # one Neumann cut at |x| = a gives both: the cap counts the ordinals
        # whose bracket is not empty, over the whole range of alpha*d
        cfg = WellConfig(10.0**log_alpha0, 10.0**log_alpha1, a, 1.0)
        E1_out = float(transversal_eigenvalues(cfg.outer, 1)[0])
        count = 0
        while minimax_brackets(cfg, count + 1)[0] < E1_out:
            count += 1
        assert neumann_state_cap(cfg) == count

    @given(log_alpha0=st.floats(-7.0, 15.0), log_alpha1=st.floats(-7.0, 15.0),
           a=st.floats(0.05, 3.0), N=st.sampled_from([8, 32]))
    @settings(max_examples=60, deadline=None)
    def test_neumann_skip_loses_no_state(self, log_alpha0, log_alpha1, a, N):
        # wherever the second bracket is empty, the scan the antisymmetric
        # sector skips finds no root either
        cfg = WellConfig(10.0**log_alpha0, 10.0**log_alpha1, a, 1.0)
        assume(minimax_brackets(cfg, 2)[0] >= transversal_eigenvalues(cfg.outer, 1)[0])
        assert full_window_roots(_mode_table(cfg.inner, cfg.outer, N), a, ANTI) == []

    @given(log_alpha0_d=st.floats(-7.0, 15.0), log_alpha1_d=st.floats(-7.0, 15.0),
           ratio=st.floats(0.05, 3.0), N=st.sampled_from([4, 8, 32]))
    @example(log_alpha0_d=np.log10(8.0), log_alpha1_d=0.0, ratio=1.5, N=32)
    @example(log_alpha0_d=5.0, log_alpha1_d=-5.0, ratio=2.0, N=32)
    @example(log_alpha0_d=np.log10(40.0), log_alpha1_d=np.log10(2.0), ratio=1.25, N=8)
    @example(log_alpha0_d=np.log10(78.79), log_alpha1_d=np.log10(3.9), ratio=0.72, N=32)
    @settings(max_examples=60, deadline=None)
    def test_no_antisymmetric_root_below_its_neumann_floor(self, log_alpha0_d, log_alpha1_d,
                                                           ratio, N):
        # the solver starts the antisymmetric grid at its last point below
        # E_1(alpha1) + (pi/2a)^2; over the admitted range of alpha*d a scan
        # of the whole window finds no root below that floor, and the
        # trimmed scan gives its roots bit for bit
        assume(log_alpha1_d < log_alpha0_d)
        cfg = WellConfig(admitted_alpha(10.0**log_alpha0_d, 1.0),
                         admitted_alpha(10.0**log_alpha1_d, 1.0), ratio, 1.0)
        table = _mode_table(cfg.inner, cfg.outer, N)
        full = full_window_roots(table, cfg.a, ANTI)
        assert all(lam >= minimax_brackets(cfg, 2)[0] for lam in full)
        assert _scan_roots(table, [(cfg.a, ANTI)], 400)[0] == full

    def test_neumann_skip_builds_no_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("mode table built")

        monkeypatch.setattr(modematch, "_mode_table", fail)
        assert bound_state_energies(WELL, ANTI, 32) == []
        with pytest.raises(AssertionError, match="mode table built"):
            bound_state_energies(WELL, SYM, 32)


class TestCountGuard:
    @pytest.mark.parametrize("cfg", [WELL, WellConfig(20.0, 5.0, 100.0, 1.0),
                                     WellConfig(1e3, 1.0, 100.0, 1.0),
                                     WellConfig(1e5, 1e-5, 2.0, 1.0),
                                     WellConfig(20.0, 20.0, 0.3, 1.0)],
                             ids=["reference", "wide", "deep_wide", "hard_wall", "no_well"])
    def test_bounds_count_the_cut_levels(self, cfg):
        # k >= 1 of the sector's parity for the Dirichlet cut, k >= 0 for
        # the Neumann one, counted level by level
        E1_in = float(transversal_levels(cfg.inner, 32).energy[0])
        E1_out = float(transversal_levels(cfg.outer, 32).energy[0])
        below = [k for k in range(100_000) if E1_in + (k * np.pi / (2.0 * cfg.a)) ** 2 < E1_out]
        for parity, odd in ((SYM, 1), (ANTI, 0)):
            lower = sum(1 for k in below if k >= 1 and k % 2 == odd)
            cap = sum(1 for k in below if k % 2 != odd)
            assert _count_bounds(E1_in, E1_out, cfg.a, parity) == (lower, cap)
        # the caps of both sectors add up to the test suite's own cap
        assert sum(_count_bounds(E1_in, E1_out, cfg.a, p)[1] for p in ParitySector) == \
            neumann_state_cap(cfg)

    @pytest.mark.parametrize("a", [1e20, 1e306, 1e308])
    def test_huge_widths_count_at_once(self, a):
        # past 2^52 levels the estimate stands, with no level-by-level steps
        for parity in ParitySector:
            lower, cap = _count_bounds(1.0, 2.0, a, parity)
            assert 2**52 <= lower <= cap

    @pytest.mark.parametrize("cfg, N, scan_points, found, lower", [
        # two roots in one scan interval: both are lost
        (WellConfig(20.0, 5.0, 100.0, 1.0), 16, 400, 53, 55),
        (WellConfig(20.0, 5.0, 20.0, 1.0), 32, 8, 3, 11),
    ], ids=["wide_n16", "scan_points_8"])
    def test_short_count_raises(self, cfg, N, scan_points, found, lower):
        match = f"symmetric sector.*{found} roots found, outside \\[{lower}, "
        with pytest.raises(NumericalError, match=match):
            next(bound_states([cfg], N, scan_points))
        with pytest.raises(NumericalError, match=match):
            bound_state_energies(cfg, SYM, N, scan_points)

    def test_reference_well_passes(self):
        # one symmetric root within [0, 1]; the antisymmetric cap is 0, so
        # that sector is not scanned
        assert [s.parity for s in next(bound_states([WELL], 32))] == [SYM]


class TestWavefunction:
    def test_symmetric_state_is_even_and_decays(self, reference_ground):
        x = np.linspace(-4.0, 4.0, 161)
        y = np.linspace(0.0, 1.0, 41)
        grid = wavefunction(WELL, reference_ground, x, y)
        assert grid.values.shape == (161, 41)
        assert np.allclose(grid.values, grid.values[::-1, :], rtol=0, atol=1e-13)
        nrm = np.sqrt(np.trapezoid(np.trapezoid(grid.values**2, y, axis=1), x))
        assert nrm == pytest.approx(1.0, abs=1e-10)
        mid = np.max(np.abs(grid.values[np.abs(x) < 0.3]))
        far = np.max(np.abs(grid.values[np.abs(x) > 3.0]))
        assert far < 0.2 * mid

    def test_interface_continuity(self, reference_ground):
        eps = 1e-9
        y = np.linspace(0.0, 1.0, 201)
        a = WELL.a
        grid = wavefunction(WELL, reference_ground, np.array([a - eps, a + eps]), y)
        jump = np.max(np.abs(grid.values[0] - grid.values[1]))
        scale = np.max(np.abs(grid.values))
        # pointwise continuity up to the truncation residual (the L2 jump
        # c0 is tested exactly in TestResidual)
        assert jump < 0.05 * scale

    @pytest.mark.parametrize("s", [1e-13, 1e3])
    def test_scaled_copy(self, reference_ground, s):
        # the copy (alpha/s, s a, s d) samples s x, s y to the reference
        # values / s; a snap width of 64 eps, absolute in x, moved samples
        # up to 0.47 a away onto the interface at s = 1e-13
        x = np.linspace(-1.3, 1.3, 131)     # x = +-a are grid points
        y = np.linspace(0.0, 1.0, 21)
        ref = wavefunction(WELL, reference_ground, x, y).values
        cfg = WellConfig(WELL.alpha0 / s, WELL.alpha1 / s, s * WELL.a, s * WELL.d)
        state = bound_state_energies(cfg, SYM, 32)[0]
        got = wavefunction(cfg, state, s * x, s * y).values
        assert np.abs(got * s - ref).max() <= 1e-12

    def test_grid_validation(self, reference_ground):
        with pytest.raises(ContractError):
            wavefunction(WELL, reference_ground, np.array([0.0, 0.0, 1.0]),
                         np.linspace(0, 1, 5))
        with pytest.raises(ContractError):
            wavefunction(WELL, reference_ground, np.array([0.2]), np.linspace(0, 1, 5))


class TestResidual:
    def test_computed_only_on_request(self, monkeypatch):
        # bound_state_energies runs no residual quadrature; matching_residual does
        def no_quadrature(*args, **kwargs):
            raise AssertionError("residual quadrature run")

        monkeypatch.setattr(modematch, "composite_gl", no_quadrature)
        state = bound_state_energies(WELL, SYM, 32)[0]
        with pytest.raises(AssertionError, match="residual quadrature"):
            matching_residual(WELL, state)

    def test_value_jump_matches_projection_identity(self, reference_ground):
        # the L2 value jump equals the part of the inner trace outside the
        # span of the outer modes: c0^2 = 1 - ||b||^2 at ||a|| = 1
        c0, _c1 = matching_residual(WELL, reference_ground)
        b_norm_sq = float(np.dot(reference_ground.b_coeffs, reference_ground.b_coeffs))
        assert c0**2 == pytest.approx(1.0 - b_norm_sq, rel=1e-6, abs=1e-14)

    def test_derivative_jump_grows_off_root(self, reference_ground):
        # c0 depends only on (a, b) and stays put; c1 carries the lambda
        # sensitivity, rising monotonically above its truncation floor
        c0, _c1 = matching_residual(WELL, reference_ground)
        c1s = []
        for dlam in (0.0, 0.05, 0.1, 0.3):
            off = dataclasses.replace(reference_ground, lam=reference_ground.lam + dlam)
            c0_off, c1_off = matching_residual(WELL, off)
            assert c0_off == pytest.approx(c0, rel=1e-12)
            c1s.append(c1_off)
        assert c1s == sorted(c1s)
        assert c1s[-1] > 5.0 * c1s[0]
