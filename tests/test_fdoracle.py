"""Finite-difference oracle: grid construction, assembly, eigensolver,
extrapolated bound-state extraction."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import lowest_fd_value
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh, eigvalsh_tridiagonal, null_space
from scipy.linalg.lapack import dsytrf

import robinstrip.fdoracle as fdoracle
from robinstrip import (ConfigError, ContractError, NumericalError, ParitySector,
                        WellConfig, bound_state_energies, oracle_bound_states,
                        transversal_eigenvalues)
from robinstrip.fdoracle import (FdGrid, _apply, _capacitance, _folded_tx, _folded_ty,
                                 _inner_rows, _inverse_corner, _lam_x, _lowest, _negatives_off,
                                 _norm_inf, _stencil, _vx, _y_spectra, assemble,
                                 lowest_eigenpairs, make_grid, sector_floor, y_odd_floor)

WELL = WellConfig(alpha0=20.0, alpha1=5.0, a=0.3, d=1.0)
# alpha1 > alpha0, so min(alpha) lies outside; d = 1.25 puts a node on
# y = d/2 at h = 1/16 and 1/32, and none at 1/17 and 1/33
ANTI_WELL = WellConfig(alpha0=1.0, alpha1=20.0, a=0.25, d=1.25)
CONFIGS = pytest.mark.parametrize("config", [WELL, ANTI_WELL], ids=["well", "anti_well"])
HARD_WALL = WellConfig(alpha0=1e5, alpha1=1e-5, a=0.7, d=1.0)
SOLVER_CONFIGS = pytest.mark.parametrize("config", [WELL, ANTI_WELL, HARD_WALL],
                                         ids=["well", "anti_well", "hard_wall"])
SYM, ANTI = ParitySector.SYMMETRIC, ParitySector.ANTISYMMETRIC


def ghost_point_reference(config, grid):
    """The full-grid operator in its generalized-symmetric ghost-point form
    kron(Tx, W) plus one Robin cross-section block per column, made
    symmetric by W^(-1/2); alpha classified by position."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    x = -grid.L + hx * np.arange(1, nx + 1)
    alpha_x = np.where(np.abs(x) < config.a - 0.5 * hx, config.alpha1, config.alpha0)
    Tx = sp.diags([-np.ones(nx - 1), np.full(nx, 2.0), -np.ones(nx - 1)], [-1, 0, 1]) / hx**2
    w = np.r_[0.5, np.ones(ny - 2), 0.5]
    blocks = []
    for al in alpha_x:
        dy = np.r_[1.0 + al * hy, np.full(ny - 2, 2.0), 1.0 + al * hy]
        off = -np.ones(ny - 1)
        blocks.append(sp.diags([off, dy, off], [-1, 0, 1]) / hy**2)
    s = sp.diags(np.tile(w ** -0.5, nx))
    return (s @ (sp.kron(Tx, sp.diags(w)) + sp.block_diag(blocks)) @ s).tocsr()


def mirror_basis(n, sign, centre):
    """Orthonormal columns (e_(n-1-j) + sign e_j)/sqrt(2) for j = n//2 - 1,
    ..., 0 (nearest the mirror first), led by the mirror node itself when
    n is odd and centre is set."""
    cols = []
    if n % 2 and centre:
        cols.append(np.eye(n)[n // 2])
    for j in range(n // 2 - 1, -1, -1):
        v = np.zeros(n)
        v[n - 1 - j], v[j] = np.sqrt(0.5), sign * np.sqrt(0.5)
        cols.append(v)
    return np.array(cols).T


def parity_basis(grid, sector):
    """P with P^T ref P the (x-parity sector, y-even) block: x columns from
    x = 0 outwards, y columns from the wall y = 0 inwards."""
    x_sign = 1.0 if sector is SYM else -1.0
    px = mirror_basis(grid.nx, x_sign, centre=sector is SYM)
    py = mirror_basis(grid.ny, 1.0, centre=True)[:, ::-1]
    return sp.kron(sp.csr_matrix(px), sp.csr_matrix(py)).tocsr()


class TestGrid:
    def test_alignment(self):
        grid = make_grid(WELL, 8.0, 1.0 / 64)
        m = WELL.a / grid.hx
        assert m == pytest.approx(round(m), abs=1e-12)
        assert grid.L == pytest.approx(round(grid.L / grid.hx) * grid.hx)
        assert grid.hy * (grid.ny - 1) == pytest.approx(WELL.d, rel=1e-14)
        assert grid.hx == pytest.approx(2 * grid.L / (grid.nx + 1), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FdGrid(L=1.0, nx=8, ny=33, hx=2.0 / 9, hy=1.0 / 32)
        with pytest.raises(ConfigError):
            FdGrid(L=1.0, nx=33, ny=33, hx=0.5, hy=1.0 / 32)  # hx mismatch
        with pytest.raises(ConfigError):
            make_grid(WELL, 0.2, 1.0 / 64)  # L inside the well

    @pytest.mark.parametrize("L, h", [
        (8.0, 1.0 / 64 / 2**69),   # refinement 70 of the default oracle
        (4.0, 1.0 / 512),          # (258 + 64) x 2053 x 257 doubles
        (8.0, 1.0 / 512),
        (2e4, 1.0 / 16),           # (9 + 65) x 3.0 M
        (1e12, 1.0 / 64),
    ])
    def test_oversized_grid_is_config_error(self, L, h):
        with pytest.raises(ConfigError, match="sector solve"):
            make_grid(WELL, L, h)
        make_grid(WELL, 8.0, 1.0 / 256)    # check 3: (130 + 64) x 264,837 doubles

    def test_wide_capacitance_is_config_error(self):
        # (9 + 65) x 576,009 doubles fit, but not 16 p^2 for p = 16,000
        with pytest.raises(ConfigError, match="sector solve"):
            make_grid(WellConfig(20.0, 5.0, 1000.0, 1.0), 4000.0, 1.0 / 16)
        make_grid(WellConfig(20.0, 5.0, 100.0, 1.0), 400.0, 1.0 / 16)    # p = 1,600
        # p = 1,280: 64 n + 16 p^2 and (128 + 66) n fit, not (128 + 66) n + 16 p^2
        make_grid(WellConfig(20.0, 5.0, 5.0, 1.0), 20.0, 1.0 / 256)


@pytest.mark.parametrize("sector", list(ParitySector))
class TestAssemblyPerSector:
    def test_exactly_symmetric(self, sector):
        op = assemble(WELL, make_grid(WELL, 4.0, 1.0 / 32), sector)
        assert abs(op.matrix - op.matrix.T).max() == 0.0

    def test_positive_semidefinite(self, sector):
        assert lowest_fd_value(WELL, make_grid(WELL, 4.0, 1.0 / 32), sector) > 0.0

    def test_five_point_sparsity(self, sector):
        grid = make_grid(WELL, 4.0, 1.0 / 32)
        op = assemble(WELL, grid, sector)
        assert op.matrix.nnz <= 5 * op.dimension

    @CONFIGS
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 33])   # node on y = d/2, or none
    def test_matches_ghost_point_reference(self, sector, config, h):
        # the folded operator is exactly the parity block P^T ref P
        grid = make_grid(config, 2.0, h)
        ref = ghost_point_reference(config, grid)
        P = parity_basis(grid, sector)
        block = (P.T @ ref @ P).toarray()
        A = assemble(config, grid, sector).matrix.toarray()
        assert A.shape == block.shape
        assert np.abs(A - block).max() <= 4.0 * np.finfo(float).eps * abs(ref).max()

    @pytest.mark.parametrize("config", [WELL, ANTI_WELL, HARD_WALL],
                             ids=["well", "anti_well", "hard_wall"])
    @pytest.mark.parametrize("L, h", [(4.0, 1.0 / 17), (4.0, 1.0 / 128), (8.0, 1.0 / 256)])
    def test_bitwise_the_kronecker_sum(self, sector, config, L, h):
        # the five diagonals give the same CSR arrays, bit for bit, as the
        # Kronecker sum of the folded 1D operators plus the wall term
        grid = make_grid(config, L, h)
        tx, ex = _folded_tx(grid, sector)
        ty, ey = _folded_ty(grid, even=True)
        alpha_x = np.where(np.arange(tx.size) < _inner_rows(config, grid, sector),
                           config.alpha1, config.alpha0).astype(float)
        walls = np.zeros(ty.size)
        walls[0] = 2.0 / grid.hy
        ref = sp.kronsum(sp.diags([ey, ty, ey], [-1, 0, 1]),
                         sp.diags([ex, tx, ex], [-1, 0, 1]), format="csr")
        ref = ref + sp.kron(sp.diags(alpha_x), sp.diags(walls), format="csr")
        A = assemble(config, grid, sector).matrix
        assert A.format == "csr" and A.shape == ref.shape
        for got, want in ((A.indptr, ref.indptr), (A.indices, ref.indices), (A.data, ref.data)):
            assert got.tobytes() == want.tobytes()

    @CONFIGS
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 33])
    def test_half_bandwidth_is_the_folded_y_size(self, sector, config, h):
        # y is the fast index, the layout lowest_eigenpairs reshapes by
        grid = make_grid(config, 2.0, h)
        A = assemble(config, grid, sector).matrix.tocoo()
        ny_folded = mirror_basis(grid.ny, 1.0, centre=True).shape[1]
        assert (A.col - A.row).max() == ny_folded


@pytest.mark.parametrize("sector", list(ParitySector))
@SOLVER_CONFIGS
@pytest.mark.parametrize("cells", [16, 17, 128])   # node on y = d/2 or none, a bench grid
class TestStencil:
    # the residual check applies the stencil; assemble is its CSR reference
    def test_product_matches_the_matrix(self, sector, config, cells):
        grid = make_grid(config, 2.0 * config.d, config.d / cells)
        main, ex, ey = _stencil(config, grid, sector)
        A = assemble(config, grid, sector).matrix
        u = np.random.default_rng(cells).standard_normal(main.shape)
        want = A @ u.ravel()
        got = _apply(main, ex, ey, u).ravel()
        norm = abs(A).sum(axis=1).max()
        assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * norm * np.abs(u).max()

    def test_norm_matches_the_row_sums(self, sector, config, cells):
        grid = make_grid(config, 2.0 * config.d, config.d / cells)
        want = abs(assemble(config, grid, sector).matrix).sum(axis=1).max()
        assert _norm_inf(config, grid, sector) == pytest.approx(
            want, rel=4.0 * np.finfo(float).eps)


def lowest_x_value(grid):
    """The lowest eigenvalue of the folded symmetric Tx, that of the full
    Dirichlet second difference on nx interior nodes; a constant coupling
    makes the operator separable, so it is the x part of the lowest one."""
    return 4.0 * np.sin(np.pi / (2 * (grid.nx + 1))) ** 2 / grid.hx**2


class TestAssembly:

    def test_strong_coupling_reaches_dirichlet_value(self):
        # ghost-row Robin walls at alpha -> 1e8 degenerate to the discrete
        # Dirichlet cross-section 4 sin^2(pi h/(2d))/h^2
        const = WellConfig(1e8, 1e8, 0.3, 1.0)
        grid = make_grid(const, 2.0, 1.0 / 32)
        lowest = lowest_fd_value(const, grid, SYM)
        dirichlet_fd = 4.0 * np.sin(np.pi * grid.hy / 2.0) ** 2 / grid.hy**2
        assert lowest - lowest_x_value(grid) == pytest.approx(dirichlet_fd, rel=1e-5)

    def test_fold_splits_the_full_spectrum(self):
        # two-state well: every eigenvalue of the full reference below the
        # y-odd floor is one of the two folded y-even sectors' values
        cfg = WellConfig(8.0, 2.0, 1.0, 1.0)
        grid = make_grid(cfg, 2.0, 1.0 / 16)
        ref = ghost_point_reference(cfg, grid)
        floor = y_odd_floor(cfg, grid)
        full = np.linalg.eigvalsh(ref.toarray())
        split = np.sort(np.concatenate([
            np.linalg.eigvalsh(assemble(cfg, grid, sector).matrix.toarray())
            for sector in ParitySector]))
        full, split = full[full < floor], split[split < floor]
        assert len(full) == len(split) >= 4
        norm = abs(ref).sum(axis=1).max()
        assert np.abs(full - split).max() <= 128.0 * np.finfo(float).eps * norm

    def test_rejects_grid_off_the_jump(self):
        # a/hx = 0.3 * 17 = 5.1: no grid line at |x| = a
        grid = FdGrid(L=1.0, nx=33, ny=33, hx=2.0 / 34, hy=1.0 / 32)
        with pytest.raises(ContractError):
            assemble(WELL, grid, SYM)
        # a/hx = 5 but nx even: no node at x = 0 to fold on
        grid = FdGrid(L=1.35, nx=44, ny=33, hx=2.7 / 45, hy=1.0 / 32)
        with pytest.raises(ContractError):
            assemble(WELL, grid, ANTI)

    def test_grid_config_consistency_checked(self):
        grid = make_grid(WELL, 4.0, 1.0 / 32)
        wrong_d = WellConfig(20.0, 5.0, 0.3, 2.0)
        with pytest.raises(ConfigError):
            assemble(wrong_d, grid, SYM)


def alpha0_top(config, grid, sector):
    """The lowest eigenvalue of the block's alpha0 operator."""
    return _lam_x(grid, sector)[0] + _y_spectra(config, grid).lam_y[0]


def top_and_dense(config, grid, sector):
    """The lowest eigenvalue of the block's alpha0 operator, and the dense
    eigenpairs of the block."""
    return alpha0_top(config, grid, sector), *eigh(assemble(config, grid, sector).matrix.toarray())


def count_capacitance_solves(monkeypatch):
    """Record the shape of every capacitance eigensolve (the Newton steps'
    dsyevr calls) in the list returned."""
    calls, dsyevr = [], fdoracle.dsyevr

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(fdoracle, "dsyevr", counting)
    return calls


class TestEigensolver:
    @pytest.mark.parametrize("sector", list(ParitySector))
    @SOLVER_CONFIGS
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 17])   # node on y = d/2, or none
    def test_matches_dense_eigh(self, sector, config, h):
        grid = make_grid(config, 2.0, h)
        top, ref_vals, ref_vecs = top_and_dense(config, grid, sector)
        pairs = lowest_eigenpairs(config, grid, sector)
        # the anti-well's block is at least its alpha0 operator
        assert len(pairs) == np.sum(ref_vals < top) == (config is not ANTI_WELL)
        for j, (lam, v) in enumerate(pairs):
            assert abs(lam - ref_vals[j]) <= 1e-10 * ref_vals[j]
            assert abs(v @ ref_vecs[:, j]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 17])
    def test_several_pairs_match_dense_eigh(self, sector, h):
        # a wide well: two values below top in the symmetric sector, one in
        # the antisymmetric one
        cfg = WellConfig(20.0, 5.0, 2.0, 1.0)
        grid = make_grid(cfg, 6.0, h)
        top, ref_vals, ref_vecs = top_and_dense(cfg, grid, sector)
        pairs = lowest_eigenpairs(cfg, grid, sector)
        assert len(pairs) == np.sum(ref_vals < top) == (2 if sector is SYM else 1)
        for j, (lam, v) in enumerate(pairs):
            assert abs(lam - ref_vals[j]) <= 1e-10 * ref_vals[j]
            assert abs(v @ ref_vecs[:, j]) == pytest.approx(1.0, abs=1e-10)
        vecs = np.array([v for _, v in pairs])
        assert np.abs(vecs @ vecs.T - np.eye(len(pairs))).max() <= 1e-12

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("config", [WELL, HARD_WALL, WellConfig(20.0, 5.0, 2.0, 1.0)],
                             ids=["well", "hard_wall", "wide_well"])
    def test_inertia_count_matches_dense(self, sector, config):
        # N(lambda) = I/c - U^T (D0 - lambda)^(-1) U, built here from the
        # alpha0 eigenpairs: its negative eigenvalues count the block's
        # eigenvalues below lambda, at midpoints between them
        grid = make_grid(config, 6.0, 1.0 / 16)
        top, ref_vals, _ = top_and_dense(config, grid, sector)
        lam_x, ys = _lam_x(grid, sector), _y_spectra(config, grid)
        c, p = (config.alpha0 - config.alpha1) * 2.0 / grid.hy, _inner_rows(config, grid, sector)
        capacitance = _capacitance(lam_x.size, sector, p)
        below = ref_vals[ref_vals < top]
        for lam in np.r_[below[0] - 1.0, 0.5 * (below[:-1] + below[1:]), 0.5 * (below[-1] + top)]:
            h = 1.0 / c - (ys.qy[0] ** 2 / (lam_x[:, None] + ys.lam_y - lam)).sum(axis=1)
            nu = eigvalsh(capacitance(h))
            assert np.sum(nu < 0.0) == np.sum(ref_vals < lam)

    @pytest.mark.parametrize("config, L, roots", [
        (WELL, 4.0, 1),                       # a bench grid
        (HARD_WALL, 4.0, 1),
        (WellConfig(20.0, 5.0, 2.0, 1.0), 8.0, 2),
    ])
    def test_few_capacitance_solves(self, monkeypatch, config, L, roots):
        # Newton steps on the pole model take 5-7 solves per root (a wrong
        # derivative would leave them to bisection, about 40)
        calls = count_capacitance_solves(monkeypatch)
        assert len(lowest_eigenpairs(config, make_grid(config, L, 1.0 / 128), SYM)) == roots
        assert 0 < len(calls) <= 8 * roots

    @pytest.mark.parametrize("config, L, rel", [
        (WELL, 4.0, 1e-14),
        # the hard wall's nu at its root is rounding noise (1e-26 against a
        # slope of 2e-13), which fixes the root to about 1.6e-14 only
        (HARD_WALL, 4.0, 3e-14),
        (WellConfig(8.0, 1.0, 1.5, 1.0), 6.0, 1e-14),
    ], ids=["well", "hard_wall", "two_sector"])
    @pytest.mark.parametrize("sector", list(ParitySector))
    def test_coarse_root_start_takes_fewer_solves(self, monkeypatch, config, L, rel, sector):
        calls = count_capacitance_solves(monkeypatch)
        coarse, fine = (make_grid(config, L, h) for h in (1.0 / 64, 1.0 / 128))
        start = [lam for lam, _ in lowest_eigenpairs(config, coarse, sector)]
        calls.clear()
        floor = [lam for lam, _ in lowest_eigenpairs(config, fine, sector)]
        from_floor = len(calls)
        calls.clear()
        started = [lam for lam, _ in lowest_eigenpairs(config, fine, sector, None, start)]
        assert len(started) == len(floor) == len(start) >= 1
        assert 0 < len(calls) < from_floor
        assert started == pytest.approx(floor, rel=rel, abs=0.0)

    def test_start_outside_the_bracket_is_ignored(self):
        # a guess at or above top, or below the alpha1 value, falls back to
        # the alpha1 value's Newton steps
        grid = make_grid(WELL, 4.0, 1.0 / 64)
        want = lowest_eigenpairs(WELL, grid, SYM)
        for start in ([1e9], [-1.0], [np.nan]):
            got = lowest_eigenpairs(WELL, grid, SYM, None, start)
            assert [lam for lam, _ in got] == [lam for lam, _ in want]

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("p", [1, 7, 64, 128])     # up to every row of Vx
    def test_toeplitz_hankel_is_the_product(self, sector, p):
        n = 128
        g = np.random.default_rng(p).uniform(0.1, 10.0, n)
        rows = _vx(np.eye(n), sector)[:p]                 # R = Vx[:p]
        ref = (rows * g) @ rows.T
        got = _capacitance(n, sector, p)(g)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("sector", list(ParitySector))
    def test_closed_form_x_basis(self, sector):
        # the DCT/DST columns and values are those of the folded Tx
        grid = make_grid(WELL, 2.0, 1.0 / 32)
        lam, vecs = eigh_tridiagonal(*_folded_tx(grid, sector))
        lam_x = _lam_x(grid, sector)
        assert np.abs(lam_x - lam).max() <= 1e-12 * lam.max()
        vx = _vx(np.eye(lam.size), sector)
        assert np.abs(np.abs(np.sum(vx * vecs, axis=0)) - 1.0).max() <= 1e-12
        assert np.abs(_vx(np.eye(lam.size), sector, transpose=True) - vx.T).max() <= 1e-15

    @pytest.mark.parametrize("sector", list(ParitySector))
    def test_constant_coupling_has_nothing_below_top(self, sector):
        # the block is its alpha0 operator (the anti-well is in test_matches_dense_eigh)
        const = WellConfig(20.0, 20.0, 0.3, 1.0)
        assert lowest_eigenpairs(const, make_grid(const, 2.0, 1.0 / 16), sector) == []

    def test_pure_strip_matches_transversal_value(self):
        const = WellConfig(20.0, 20.0, 0.3, 1.0)
        E1 = float(transversal_eigenvalues(const.outer, 1)[0])
        grid = make_grid(const, 8.0, 1.0 / 64)
        lam0 = lowest_fd_value(const, grid, SYM)
        assert abs(lam0 - lowest_x_value(grid) - E1) < 1e-3

    def test_deterministic(self):
        grid = make_grid(WELL, 4.0, 1.0 / 32)
        a = [v for v, _ in lowest_eigenpairs(WELL, grid, SYM)]
        b = [v for v, _ in lowest_eigenpairs(WELL, grid, SYM)]
        assert a == b

    def test_residual_guard_fires(self, monkeypatch):
        monkeypatch.setattr(fdoracle, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalError, match="residual"):
            lowest_eigenpairs(WELL, make_grid(WELL, 4.0, 1.0 / 32), SYM)


def ty_spectrum(m, hy):
    """The eigenvalues tau_k = 4 sin^2(pi k/m)/hy^2 of the folded y-even Ty
    of a grid with m intervals across the strip, and the squares of its
    orthonormal eigenvectors' wall entries: 2/m, 1/m at k = 0 and k = m/2."""
    k = np.arange(m // 2 + 1)
    return (2.0 * np.sin(np.pi * k / m) / hy) ** 2, np.where((k == 0) | (2 * k == m), 1.0, 2.0) / m


class TestNewtonStepParts:
    @pytest.mark.parametrize("m", [32, 33, 64, 65, 128, 129, 256])
    def test_closed_form_ty_spectrum(self, m):
        ty, ey = _folded_ty(make_grid(WellConfig(20.0, 5.0, 0.3, 1.0), 2.0, 1.0 / m), even=True)
        tau, vecs = eigh_tridiagonal(ty, ey)
        want_tau, want_w = ty_spectrum(m, 1.0 / m)
        assert np.abs(tau - want_tau).max() <= 1e-14 * want_tau.max()
        assert np.abs(vecs[0] ** 2 - want_w).max() <= 1e-13

    @pytest.mark.parametrize("m", [32, 33, 64, 65, 128, 129, 256])
    def test_corner_matches_spectral_sum(self, m):
        hy = 1.0 / m
        tau, w = ty_spectrum(m, hy)
        first_zero = (2.0 * np.sin(0.5 * np.pi / m) / hy) ** 2
        # below the spectrum (s < 0) from deep to near 0, and inside it
        # (0 < s) up to near the first zero of phi
        mu = np.r_[-3.9 / hy**2, -1e4, -50.0, -1e-3, 1e-6, 1e-3, 3.0,
                   0.5 * first_zero, 0.99 * first_zero]
        psi, dpsi = _inverse_corner(mu, m, hy)
        phi = (w / (tau - mu[:, None])).sum(axis=1)
        dphi = (w / (tau - mu[:, None]) ** 2).sum(axis=1)
        assert np.all(np.abs(1.0 / psi - phi) <= 1e-13 * np.abs(phi))
        assert np.all(np.abs(-dpsi / psi**2 - dphi) <= 1e-13 * dphi)

    def test_corner_at_the_pole_of_phi(self):
        # phi has its pole at mu = tau_0 = 0, where psi = 1/phi is 0 with
        # slope -m; the two branches meet there
        psi, dpsi = _inverse_corner(np.array([-1e-12, 0.0, 1e-12]), 64, 1.0 / 64)
        assert psi[1] == 0.0 and dpsi[1] == -64.0
        assert np.abs(psi - 64e-12 * np.array([1.0, 0.0, -1.0])).max() <= 1e-20
        assert np.abs(dpsi + 64.0).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_ldl_inertia_matches_eigvalsh(self, seed):
        # a zero diagonal makes every Bunch-Kaufman pivot of the first
        # column search a 2 x 2 one
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        c = rng.standard_normal((n, n))
        c = c + c.T
        np.fill_diagonal(c, 0.0)
        assert (dsytrf(c[1:, 1:], lower=1)[1] < 0).any()
        assert _negatives_off(c, np.eye(n)[0], 0.0) == np.sum(eigvalsh(c[1:, 1:]) < 0.0)
        r = rng.standard_normal(n)
        q = null_space(r[None, :])
        assert _negatives_off(c, r, 0.0) == np.sum(eigvalsh(q.T @ c @ q) < 0.0)

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("config", [WELL, HARD_WALL], ids=["well", "hard_wall"])
    def test_ldl_inertia_of_capacitance_matrices(self, sector, config):
        # N(lambda) without its first direction, below the root, between
        # and at the top, the count lowest_eigenpairs takes there
        grid = make_grid(config, 4.0, 1.0 / 32)
        lam_x, ys = _lam_x(grid, sector), _y_spectra(config, grid)
        c, p = (config.alpha0 - config.alpha1) * 2.0 / grid.hy, _inner_rows(config, grid, sector)
        capacitance = _capacitance(lam_x.size, sector, p)
        r = _vx(np.eye(lam_x.size, 1), sector)[:p, 0]
        q = null_space(r[None, :])
        top = lam_x[0] + ys.lam_y[0]
        for lam in np.linspace(lam_x[0] + ys.low1, top, 7)[:-1]:
            h = 1.0 / c - (ys.qy[0] ** 2 / (lam_x[:, None] + ys.lam_y - lam)).sum(axis=1)
            n = capacitance(h)
            assert _negatives_off(n, r, lam) == np.sum(eigvalsh(q.T @ n @ q) < 0.0)

    def test_non_finite_capacitance_raises(self, monkeypatch):
        def not_finite(n, sector, p):
            return lambda g: np.full((p, p), np.nan)

        monkeypatch.setattr(fdoracle, "_capacitance", not_finite)
        with pytest.raises(NumericalError, match="lambda="):
            lowest_eigenpairs(WELL, make_grid(WELL, 4.0, 1.0 / 32), SYM)
        # the count alone, before any eigensolve could see it
        c = np.eye(5)
        c[2, 3] = c[3, 2] = np.nan
        with pytest.raises(NumericalError, match="LDL"):
            _negatives_off(c, np.eye(5)[0], 1.0)

    def test_failed_eigensolve_raises(self, monkeypatch):
        def failing(a, **kwargs):
            return np.zeros(a.shape[0]), np.zeros((a.shape[0], 1)), 1, None, 1

        monkeypatch.setattr(fdoracle, "dsyevr", failing)
        with pytest.raises(NumericalError, match="lambda="):
            lowest_eigenpairs(WELL, make_grid(WELL, 4.0, 1.0 / 32), SYM)

    def test_non_finite_tridiagonal_raises(self):
        with pytest.raises(NumericalError):
            _lowest(np.array([np.nan, 1.0, 2.0]), np.array([-1.0, -1.0]))


class TestYOddFloor:
    # the anti-well's floor must take the outer alpha0, not alpha1
    @CONFIGS
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 17])
    def test_below_the_true_y_odd_spectrum(self, config, h):
        grid = make_grid(config, 2.0, h)
        ref = ghost_point_reference(config, grid)
        Q = sp.kron(sp.identity(grid.nx), sp.csr_matrix(
            mirror_basis(grid.ny, -1.0, centre=False))).tocsr()
        lowest = np.linalg.eigvalsh((Q.T @ ref @ Q).toarray())[0]
        assert y_odd_floor(config, grid) <= lowest

    def test_hard_wall_pair_still_passes(self):
        # the floor sits just under E_1(alpha0), inside the oracle's margin
        cfg = WellConfig(1e5, 1e-5, 0.7, 1.0)
        floor = y_odd_floor(cfg, make_grid(cfg, 4.0, 1.0 / 64))
        E1 = float(transversal_eigenvalues(cfg.outer, 1)[0])
        assert floor == pytest.approx(9.86766, abs=1e-5)
        assert E1 == pytest.approx(9.86921, abs=1e-5)
        states = oracle_bound_states(cfg, L=4.0, refinements=2)
        assert len(states[SYM]) == 1

    def test_raises_when_the_floor_could_pass(self):
        # d/16 puts the hard-wall floor 0.031 under threshold, and L = 32d
        # shrinks the truncation margin below that
        cfg = WellConfig(1e5, 1e-5, 0.7, 1.0)
        with pytest.raises(NumericalError, match="y-odd"):
            oracle_bound_states(cfg, L=32.0, refinements=2, h0=1.0 / 16)


def count_solves(monkeypatch):
    """The grids and sectors lowest_eigenpairs is called on."""
    calls, solve = [], fdoracle.lowest_eigenpairs

    def counting(config, grid, sector, *args, **kwargs):
        calls.append((grid, sector))
        return solve(config, grid, sector, *args, **kwargs)

    monkeypatch.setattr(fdoracle, "lowest_eigenpairs", counting)
    return calls


class TestSectorFloor:
    # the lower block is the inner one on the well, the outer one on the anti-well
    @pytest.mark.parametrize("sector", list(ParitySector))
    @CONFIGS
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 33])
    def test_below_the_sector_spectrum(self, sector, config, h):
        grid = make_grid(config, 2.0, h)
        lowest = np.linalg.eigvalsh(assemble(config, grid, sector).matrix.toarray())[0]
        assert sector_floor(config, grid, sector) <= lowest

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("config", [WELL, ANTI_WELL, WellConfig(20.0, 5.0, 1.0 / 32, 1.0)],
                             ids=["well", "anti_well", "first_offset"])
    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 33, 1.0 / 128])
    def test_closed_forms_are_the_cut_blocks(self, sector, config, h):
        # the floor from the cut Tx blocks' tridiagonals, with the Ty + alpha
        # walls' lowest values
        grid = make_grid(config, 2.0, h)
        p = _inner_rows(config, grid, sector)
        tx, ex = _folded_tx(grid, sector)
        if p > 0:
            tx[p - 1] -= (2.0 if p == 1 and sector is SYM else 1.0) / grid.hx**2
            tx[p] -= 1.0 / grid.hx**2
        ty, ey = _folded_ty(grid, even=True)
        want = np.inf
        for alpha, t, e in ((config.alpha1, tx[:p], ex[:p - 1]), (config.alpha0, tx[p:], ex[p:])):
            if t.size:
                walls = ty.copy()
                walls[0] += alpha * 2.0 / grid.hy
                want = min(want, eigvalsh_tridiagonal(t, e)[0] + eigvalsh_tridiagonal(walls, ey)[0])
        norm = (3.0 + np.sqrt(2.0)) * (grid.hx**-2 + grid.hy**-2) + max(
            config.alpha0, config.alpha1) * 2.0 / grid.hy
        got = sector_floor(config, grid, sector) + fdoracle._RESIDUAL_TOL * norm
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * grid.hx**-2)

    @pytest.mark.parametrize("sector", list(ParitySector))
    @pytest.mark.parametrize("alpha0, alpha1", [(20.0, 5.0), (1.0, 20.0)])
    def test_cut_at_the_first_offset(self, sector, alpha0, alpha1):
        # a = hx: the symmetric cut ends on the half-weight node x = 0, which
        # loses 2/hx^2; the antisymmetric sector has no inner node to cut off,
        # so its floor is its lowest eigenvalue less the allowance
        cfg = WellConfig(alpha0, alpha1, 1.0 / 32, 1.0)
        grid = make_grid(cfg, 2.0, 1.0 / 32)
        assert round(cfg.a / grid.hx) == 1
        A = assemble(cfg, grid, sector).matrix
        vals = np.linalg.eigvalsh(A.toarray())
        floor = sector_floor(cfg, grid, sector)
        assert floor <= vals[0]
        if sector is ANTI:
            assert vals[0] - floor <= 2e-8 * abs(A).sum(axis=1).max()
        # one inner wall node (symmetric) or none: the solver still agrees
        top = alpha0_top(cfg, grid, sector)
        got = [lam for lam, _ in lowest_eigenpairs(cfg, grid, sector)]
        assert got == pytest.approx(vals[vals < (1.0 - 1e-9) * top], rel=1e-10)

    @pytest.mark.parametrize("config, L, refinements, solves, anti", [
        (WELL, 8.0, 3, 2, 0),                           # check 3's oracle
        (WellConfig(8.0, 1.0, 1.5, 1.0), 6.0, 2, 4, 1),
        (WellConfig(1e5, 1e-5, 0.7, 1.0), 4.0, 2, 4, 1),
    ])
    def test_skip_changes_no_result(self, monkeypatch, config, L, refinements, solves, anti):
        calls = count_solves(monkeypatch)
        skipped = oracle_bound_states(config, L, refinements)
        assert len(calls) == solves
        assert len(skipped[ANTI]) == anti
        monkeypatch.setattr(fdoracle, "sector_floor", lambda *args: -np.inf)
        assert oracle_bound_states(config, L, refinements) == skipped
        assert len(calls) == solves + 4


class TestOracle:
    def test_constant_coupling_yields_nothing(self):
        const = WellConfig(20.0, 20.0, 0.3, 1.0)
        assert oracle_bound_states(const, L=4.0, refinements=2) == {SYM: [], ANTI: []}

    def test_anti_well_yields_nothing(self):
        # alpha1 > alpha0: nothing lies below the alpha0 operator's spectrum
        anti = WellConfig(1.0, 20.0, 0.3, 1.0)
        assert oracle_bound_states(anti, L=4.0, refinements=2) == {SYM: [], ANTI: []}

    def test_longer_domain_changes_little(self):
        a = oracle_bound_states(WELL, L=6.0, refinements=2, h0=1.0 / 32)[SYM]
        b = oracle_bound_states(WELL, L=12.0, refinements=2, h0=1.0 / 32)[SYM]
        assert len(a) == len(b) == 1
        k1 = np.sqrt(float(transversal_eigenvalues(WELL.outer, 1)[0]) - b[0])
        assert abs(a[0] - b[0]) < np.exp(-k1 * 6.0)

    @pytest.mark.parametrize("alpha0,alpha1,a,L", [
        (15.0, 4.0, 0.5, 8.0),
        (30.0, 8.0, 0.8, 8.0),
        (8.0, 2.0, 1.0, 12.0),   # two states; the upper one needs more room
    ])
    def test_agrees_with_mode_matching(self, alpha0, alpha1, a, L):
        cfg = WellConfig(alpha0, alpha1, a, 1.0)
        oracle = oracle_bound_states(cfg, L=L, refinements=2, h0=1.0 / 48)
        tol = 5e-3 * (np.pi / cfg.d) ** 2
        for sector in ParitySector:
            matched = [s.lam for s in bound_state_energies(cfg, sector, 24)]
            assert len(oracle[sector]) == len(matched), sector
            for lam_m, lam_o in zip(matched, oracle[sector]):
                assert abs(lam_m - lam_o) < tol

    def test_no_spectrum_below_inner_threshold(self):
        cfg = WellConfig(8.0, 2.0, 1.0, 1.0)
        E1_in = float(transversal_eigenvalues(cfg.inner, 1)[0])
        grid = make_grid(cfg, 6.0, 1.0 / 48)
        h = max(grid.hx, grid.hy)
        for sector in ParitySector:
            for lam, _ in lowest_eigenpairs(cfg, grid, sector):
                assert lam >= E1_in - 10.0 * h**2 * E1_in

    def test_raises_when_top_is_not_above_threshold(self):
        # at L = 32d the lowest x value (pi/64)^2 no longer lifts the d/32
        # grid's lowest alpha0 cross-section value, 3.5e-3 under E_1(alpha0),
        # above E_1(alpha0): a kept value could lie above every solved one
        top = alpha0_top(WELL, make_grid(WELL, 32.0, 1.0 / 32), SYM)
        E1 = float(transversal_eigenvalues(WELL.outer, 1)[0])
        assert top - E1 == pytest.approx(-1.08e-3, abs=1e-5)
        with pytest.raises(NumericalError, match="not above E_1"):
            oracle_bound_states(WELL, L=32.0, refinements=2, h0=1.0 / 16)

    @pytest.mark.parametrize("config", [WellConfig(20.0, 40.0, 0.3, 1.0),
                                        WellConfig(20.0, 20.0, 0.3, 1.0), ANTI_WELL],
                             ids=["anti_well_20", "constant", "anti_well"])
    def test_top_is_not_checked_where_nothing_is_solved(self, config):
        # alpha1 >= alpha0 leaves nothing below top to solve; at L = 32d,
        # h0 = d/16 the first two have their finest symmetric top 1.08e-3
        # under E_1(alpha0), as WELL has
        assert oracle_bound_states(config, L=32.0 * config.d, refinements=2,
                                   h0=config.d / 16) == {SYM: [], ANTI: []}

    def test_unpaired_fine_value_that_cannot_be_kept(self):
        # at L = 32d, h0 = d/16 the coarse symmetric top lies 1.06e-3 under
        # E_1(alpha0) and the fine grid's second symmetric value, 9.9e-4 under
        # it, has no coarse partner; with k_1 L about 1 no partner would
        # let the rule keep it, so it raises nothing, and the ground states
        # stay
        cfg = WellConfig(8.0, 1.0, 1.51, 1.0)
        grids = [make_grid(cfg, 32.0, h) for h in (1.0 / 16, 1.0 / 32)]
        coarse, fine = ([lam for lam, _ in lowest_eigenpairs(cfg, grid, SYM)] for grid in grids)
        assert len(coarse) < len(fine)
        out = oracle_bound_states(cfg, L=32.0, refinements=2, h0=1.0 / 16)
        assert [len(out[sector]) for sector in ParitySector] == [1, 1]

    def test_raises_when_a_fine_value_could_lose_its_coarse_partner(self, monkeypatch):
        # the coarse grid returns nothing at or above its top; a fine value
        # whose partner could lie there and still be kept is an error, not
        # a state dropped without a word
        coarse = make_grid(WELL, 8.0, 1.0 / 64)
        solve = fdoracle.lowest_eigenpairs

        def coarse_top_below_ground_state(config, grid, sector, *args, **kwargs):
            pairs = solve(config, grid, sector, *args, **kwargs)
            return pairs[1:] if grid == coarse else pairs

        monkeypatch.setattr(fdoracle, "lowest_eigenpairs", coarse_top_below_ground_state)
        with pytest.raises(NumericalError, match="no coarse partner"):
            oracle_bound_states(WELL, L=8.0, refinements=2)

    def test_each_tridiagonal_is_solved_once(self, monkeypatch):
        # per grid: Ty + alpha0 walls decomposed, the lowest values of Ty +
        # alpha1 walls and of the y-odd floor's tridiagonal; Ty's resolvent
        # and the cut Tx blocks of the sector floors have closed forms
        solved = []
        for name in ("eigh_tridiagonal", "dstebz"):
            def recording(diag, off, *args, solve=getattr(fdoracle, name), **kwargs):
                solved.append((diag.tobytes(), off.tobytes()))
                return solve(diag, off, *args, **kwargs)
            monkeypatch.setattr(fdoracle, name, recording)
        states = oracle_bound_states(WELL, L=4.0, refinements=2)
        assert [len(states[sector]) for sector in ParitySector] == [1, 0]
        assert 0 < len(set(solved)) == len(solved) <= 2 * 3

    def test_no_warning_where_the_pole_term_vanishes(self):
        # 1 + k0 phi_0 rounds to exactly 0 at this well's top, where h_0 is
        # left out; a bench oracle well
        cfg = WellConfig(26.70849451403646, 2.231601872899484, 0.6301354314659016,
                         1.405519113311714)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            states = oracle_bound_states(cfg, L=5.622076453246856, refinements=2)
        assert [len(states[sector]) for sector in ParitySector] == [1, 0]

    def test_assembles_no_matrix(self, monkeypatch):
        def fail(*args):
            raise AssertionError("matrix assembled")

        monkeypatch.setattr(fdoracle, "assemble", fail)
        states = oracle_bound_states(WELL, L=4.0, refinements=2, h0=1.0 / 32)
        assert [len(states[sector]) for sector in ParitySector] == [1, 0]

    def test_validation(self):
        with pytest.raises(ContractError):
            oracle_bound_states(WELL, L=2.0, refinements=2)
        with pytest.raises(ContractError):
            oracle_bound_states(WELL, L=8.0, refinements=1)
