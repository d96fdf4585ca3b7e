"""Radial least-squares solver: residual blocks, recovery, and guards."""

import math
import tracemalloc

import numpy as np
import pytest

from ryslab import cli, solver
from ryslab.errors import BeyondAntipode, GridTooCoarse, NoConvergence
from ryslab.soliton import SolitonParams

FLAT = solver.Background.flat()


def gaussian_profile(grid, lam, params=None):
    params = params or SolitonParams(1.0, 0.0, lam, 0.0)
    return solver.RadialProfile(grid, -0.5 * lam * grid**2, params, FLAT)


class TestRadialResidual:
    def test_exact_gaussian_is_tiny(self):
        grid = solver.make_grid(64)
        res = solver.radial_residual(gaussian_profile(grid, 2.0))
        assert np.max(np.abs(res)) <= 1e-10

    def test_zero_profile_tangential_block_equals_lambda(self):
        grid = solver.make_grid(32)
        lam = 2.0
        prof = solver.RadialProfile(
            grid, np.zeros_like(grid), SolitonParams(1.0, 0.0, lam, 0.0), FLAT
        )
        res = solver.radial_residual(prof)
        m = len(grid)
        assert np.allclose(res[m:], lam)
        assert np.allclose(res[:m], lam)

    def test_sphere_background_balanced_constant(self):
        bg = solver.Background.sphere(1.0)
        lam = 0.5 * 0.0 * bg.scalar - 1.0 * bg.ric_factor  # alpha=1, beta=0
        grid = solver.make_grid(32, r_max=1.5)
        prof = solver.RadialProfile(
            grid, np.zeros_like(grid), SolitonParams(1.0, 0.0, lam, 0.0), bg
        )
        assert np.max(np.abs(solver.radial_residual(prof))) <= 1e-10

    def test_grid_too_coarse(self):
        grid = solver.make_grid(8)
        with pytest.raises(GridTooCoarse):
            solver.radial_residual(gaussian_profile(grid, 1.0))

    def test_grid_monotonicity_guard(self):
        with pytest.raises(ValueError):
            solver.RadialProfile(
                np.array([0.1, 0.05, 0.2] + list(np.linspace(0.3, 1, 20))),
                np.zeros(23),
                SolitonParams(1, 0, 0),
                FLAT,
            )


class TestSolve:
    def test_recovers_gaussian(self):
        """flat, lam = 2, zero init: the fit lands on f = -r^2 + const."""
        grid = solver.make_grid(128)
        prof = solver.solve_radial(SolitonParams(1.0, 0.0, 2.0, 0.0), FLAT, grid)
        expected = -(grid**2) + grid[0] ** 2  # gauge f(r_0) = 0
        assert np.max(np.abs(prof.values - expected)) <= 1e-6

    def test_steady_stays_trivial(self):
        grid = solver.make_grid(32)
        prof = solver.solve_radial(SolitonParams(1.0, 0.0, 0.0, 0.0), FLAT, grid)
        assert np.max(np.abs(prof.values)) == 0.0

    def test_hyperbolic_balanced(self):
        bg = solver.Background.hyperbolic()
        lam = -1.0 * bg.ric_factor  # alpha=1, beta=0 balance
        grid = solver.make_grid(32, r_max=1.2)
        prof = solver.solve_radial(SolitonParams(1.0, 0.0, lam, 0.0), bg, grid)
        assert np.max(np.abs(prof.values)) <= 1e-8

    def test_sphere_off_balance_no_convergence(self):
        """Only constant profiles are candidates on the sphere, so a
        mismatched lam leaves a residual about the size of the mismatch."""
        bg = solver.Background.sphere(1.0)
        gap = 0.5
        lam = -bg.ric_factor + gap
        grid = solver.make_grid(32, r_max=1.5)
        with pytest.raises(NoConvergence) as info:
            solver.solve_radial(SolitonParams(1.0, 0.0, lam, 0.0), bg, grid)
        assert info.value.residual_inf == pytest.approx(gap, rel=0.5)
        assert info.value.profile is not None

    def test_gauge_invariance_under_init_shift(self):
        grid = solver.make_grid(48)
        params = SolitonParams(1.0, 0.0, 1.0, 0.0)
        init_a = solver.RadialProfile(grid, np.full_like(grid, 0.0), params, FLAT)
        init_b = solver.RadialProfile(grid, np.full_like(grid, 17.5), params, FLAT)
        a = solver.solve_radial(params, FLAT, grid, init=init_a)
        b = solver.solve_radial(params, FLAT, grid, init=init_b)
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0

    def test_objective_monotone_on_accepted_steps(self):
        grid = solver.make_grid(64)
        trace: list = []
        solver.solve_radial(
            SolitonParams(1.0, 0.0, 2.0, 0.0), FLAT, grid, cost_trace=trace
        )
        assert len(trace) >= 2
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_init_length_mismatch(self):
        grid = solver.make_grid(32)
        bad = solver.RadialProfile(
            solver.make_grid(20), np.zeros(21), SolitonParams(1, 0, 0), FLAT
        )
        with pytest.raises(ValueError):
            solver.solve_radial(SolitonParams(1, 0, 0), FLAT, grid, init=bad)


class TestJacobian:
    def test_matches_central_differences(self):
        bg = solver.Background.sphere(1.0)
        grid = solver.make_grid(24, r_max=1.4)
        params = SolitonParams(1.0, 0.3, -0.7, 0.0)
        values = np.sin(grid)
        prof = solver.RadialProfile(grid, values, params, bg)
        jac = solver.residual_jacobian(prof)
        eps = 1e-6
        scale = 1.0 + np.max(np.abs(jac))
        for k in range(0, len(grid), 5):
            vp, vm = values.copy(), values.copy()
            vp[k] += eps
            vm[k] -= eps
            rp = solver.radial_residual(solver.RadialProfile(grid, vp, params, bg))
            rm = solver.radial_residual(solver.RadialProfile(grid, vm, params, bg))
            col = (rp - rm) / (2.0 * eps)
            assert np.max(np.abs(jac[:, k] - col)) <= 1e-6 * scale


def test_named_background():
    assert solver.named_background("flat").name == "flat"
    assert solver.named_background("sphere", 2.0).scalar == pytest.approx(1.5)
    assert solver.named_background("hyperbolic").scalar == -6.0
    with pytest.raises(ValueError):
        solver.named_background("torus")


def _loop_derivative_matrices(grid):
    """Row-by-row reference for solver.derivative_matrices."""
    m = len(grid)
    h = grid[1] - grid[0]
    d1 = np.zeros((m, m))
    d2 = np.zeros((m, m))
    for k in range(2, m - 2):
        d1[k, k - 2 : k + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
        d2[k, k - 2 : k + 3] = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    e1_0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    e1_1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    e2_0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h * h)
    e2_1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12 * h * h)
    d1[0, :5], d1[1, :5] = e1_0, e1_1
    d1[m - 1, -5:], d1[m - 2, -5:] = -e1_0[::-1], -e1_1[::-1]
    d2[0, :6], d2[1, :6] = e2_0, e2_1
    d2[m - 1, -6:], d2[m - 2, -6:] = e2_0[::-1], e2_1[::-1]
    return d1, d2


class TestDirectSolve:
    @pytest.mark.parametrize("m", [17, 128, 1025])
    def test_derivative_matrices_match_row_loop_bitwise(self, m):
        grid = np.linspace(solver.ORIGIN_MARGIN, 1.3, m)
        for got, want in zip(solver.derivative_matrices(grid), _loop_derivative_matrices(grid)):
            assert got.tobytes() == want.tobytes()

    def test_flat_gaussian_at_1024_intervals(self):
        """Rounding in the 1/h^2-scaled differences is about 2e-9 at this
        size (the exact profile itself re-evaluates to 2.0e-9), so the bound
        is half the solver tolerance."""
        grid = solver.make_grid(1024)
        params = SolitonParams(1.0, 0.0, 2.0, 0.0)
        prof = solver.solve_radial(params, FLAT, grid)
        assert np.max(np.abs(solver.radial_residual(prof))) <= 0.5 * solver.RESIDUAL_TOL
        assert np.max(np.abs(prof.values + (grid**2 - grid[0] ** 2))) <= 1e-8

    def test_builds_derivative_matrices_once(self, monkeypatch):
        """The solve builds the stencil table at most once and never the
        dense matrices."""
        calls = []
        build = solver.derivative_stencils

        def counting(grid):
            calls.append(len(grid))
            return build(grid)

        def forbidden(*_args):
            raise AssertionError("derivative_matrices called")

        monkeypatch.setattr(solver, "derivative_stencils", counting)
        monkeypatch.setattr(solver, "derivative_matrices", forbidden)
        solver.solve_radial(SolitonParams(1.0, 0.0, 2.0, 0.0), FLAT, solver.make_grid(256))
        assert len(calls) <= 1

    def test_balanced_sphere_needs_no_linear_solve(self, monkeypatch):
        """A zero initial residual returns before the band factorisation."""

        def forbidden(*_args):
            raise AssertionError("band_cholesky called")

        monkeypatch.setattr(solver, "band_cholesky", forbidden)
        bg = solver.Background.sphere(1.0)
        grid = solver.make_grid(128, r_max=1.5)
        trace: list = []
        prof = solver.solve_radial(
            SolitonParams(1.0, 0.0, -bg.ric_factor, 0.0), bg, grid, cost_trace=trace
        )
        assert np.max(np.abs(prof.values)) == 0.0
        assert trace == [0.0]

    def test_singular_normal_matrix_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(solver, "band_cholesky", lambda band: None)
        grid = solver.make_grid(32)
        with pytest.raises(NoConvergence) as info:
            solver.solve_radial(SolitonParams(1.0, 0.0, 2.0, 0.0), FLAT, grid)
        assert info.value.residual_inf == pytest.approx(2.0)
        assert np.array_equal(info.value.profile.values, np.zeros_like(grid))

    def test_flat_gaussian_at_2048_intervals_in_little_memory(self):
        """No grid x grid array: the solve's allocations stay O(grid)."""
        grid = solver.make_grid(2048)
        tracemalloc.start()
        try:
            prof = solver.solve_radial(SolitonParams(1.0, 0.0, 2.0, 0.0), FLAT, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.max(np.abs(prof.values + (grid**2 - grid[0] ** 2))) <= 1e-8

    def test_off_balance_refinement_stops(self):
        """Off balance the least-squares minimum is not a solution; past it
        a step only moves the cost by rounding, so a step that raises it
        ends the refinement, and MAX_STEPS bounds it in any case."""
        bg = solver.Background.sphere(1.0)
        trace: list = []
        with pytest.raises(NoConvergence):
            solver.solve_radial(
                SolitonParams(1.0, 0.0, -bg.ric_factor + 0.5, 0.0),
                bg,
                solver.make_grid(64, r_max=1.5),
                cost_trace=trace,
            )
        assert 2 <= len(trace) <= solver.MAX_STEPS + 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))


def _dense_band(band):
    n = len(band[0])
    dense = np.zeros((n, n))
    for d, diagonal in enumerate(band):
        for j in range(n - d):
            dense[j, j + d] = dense[j + d, j] = diagonal[j]
    return dense


def _random_spd_band(n, rng, p=5):
    """A random symmetric, strictly diagonally dominant (so positive
    definite) matrix of half-bandwidth p, as the diagonals
    ``band_cholesky`` takes (padded to length n)."""
    upper = np.triu(np.tril(rng.uniform(-1.0, 1.0, size=(n, n)), p), 1)
    dense = upper + upper.T
    dense[np.diag_indices(n)] = np.abs(dense).sum(axis=1) + rng.uniform(0.5, 1.5, size=n)
    return [[dense[j, j + d] if j + d < n else 0.0 for j in range(n)] for d in range(p + 1)]


def _dot(u, v):
    """sum(map(operator.mul, u, v)) as Python 3.11 sums floats: from the
    integer 0, left to right, uncompensated."""
    total = 0
    for a, b in zip(u, v):
        total = total + a * b
    return total


def _loop_band_cholesky(band):
    """Generic-bandwidth reference for solver.band_cholesky, one list
    slice per element."""
    p = len(band) - 1
    factor = []
    for i in range(len(band[0])):
        row = [0.0] * (p + 1)
        for a in range(max(0, p - i), p + 1):  # column j = i - p + a
            j = i - p + a
            prior = factor[j] if a < p else row
            s = band[p - a][j] - _dot(row[:a], prior[p - a : p])
            if a < p:
                row[a] = s / prior[p]
            elif s > 0.0 and math.isfinite(s):
                row[p] = math.sqrt(s)
            else:
                return None
        factor.append(row)
    return factor


def _loop_band_solve(factor, rhs):
    """Generic-bandwidth reference for solver.band_solve: forward
    substitution by rows, back substitution by columns."""
    p = len(factor[0]) - 1
    x = [0.0] * p + list(rhs)  # x[i + p] is unknown i; the pad meets row i's zeros
    for i, row in enumerate(factor):
        x[i + p] = (x[i + p] - _dot(row, x[i : i + p])) / row[p]
    for i in range(len(factor) - 1, -1, -1):
        row = factor[i]
        xi = x[i + p] = x[i + p] / row[p]
        x[i : i + p] = [v - c * xi for v, c in zip(x[i : i + p], row)]
    return x[p:]


def _bits(rows):
    return None if rows is None else np.array(rows, dtype=float).tobytes()


def _assert_kernels_match_loop(band, rhs):
    """Factor and solve bit for bit as the loop reference, or None on both."""
    factor = solver.band_cholesky(band)
    want = _loop_band_cholesky(band)
    assert _bits(factor) == _bits(want)
    if factor is not None:
        assert _bits(solver.band_solve(factor, rhs)) == _bits(_loop_band_solve(want, rhs))
    return factor


def _fuzzed_bands(n, rng):
    """Width-6 bands of size n: diagonally dominant (so positive definite),
    with exact zeros, with every off-diagonal negative (zeros become -0.0),
    with one pivot negated, and unstructured."""
    dominant = _random_spd_band(n, rng)
    zeros = [dominant[0]] + [
        [0.0 if rng.random() < 0.3 else v for v in diagonal] for diagonal in dominant[1:]
    ]
    negative = [zeros[0]] + [[-abs(v) for v in diagonal] for diagonal in zeros[1:]]
    negated = [list(diagonal) for diagonal in dominant]
    negated[0][int(rng.integers(n))] *= -1.0
    unstructured = [rng.normal(size=n).tolist() for _ in range(6)]
    unstructured[0] = np.abs(unstructured[0]).tolist()
    return dominant, zeros, negative, negated, unstructured


class TestBandKernelsBitwise:
    def test_fuzzed_bands_match_loop_reference(self):
        rng = np.random.default_rng(18)
        verdicts = []
        for n in range(1, 61):
            for band in _fuzzed_bands(n, rng):
                rhs = rng.normal(size=n)
                rhs[rng.random(n) < 0.2] = 0.0
                rhs[rng.random(n) < 0.2] = -0.0
                verdicts.append(_assert_kernels_match_loop(band, rhs.tolist()) is None)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are covered

    def test_signed_zero_sums_match_loop_reference(self):
        """A sum of -0.0 products starts from 0 in the reference, so it is
        +0.0 and N[j, i] - sum keeps the sign of a -0.0 entry; a sum that
        started from its first product would flip it."""
        n = 12
        band = [[4.0] * n, [0.5] * n] + [[-0.0] * n for _ in range(4)]
        factor = _assert_kernels_match_loop(band, [-0.0] * n)
        assert math.copysign(1.0, factor[6][1]) == -1.0

    @pytest.mark.parametrize("intervals", [16, 17, 128, 1024, 2048])
    @pytest.mark.parametrize(
        "background, lam, r_max",
        [("flat", 2.0, 1.0), ("sphere", -1.5, 1.5), ("hyperbolic", 3.0, 1.0)],
    )
    def test_solver_normal_bands_match_loop_reference(
        self, monkeypatch, background, lam, r_max, intervals
    ):
        """The bands and right-hand sides solve_radial builds itself."""
        systems = []
        factor_band, solve_band = solver.band_cholesky, solver.band_solve

        def recording_cholesky(band):
            systems.append((band, []))
            return factor_band(band)

        def recording_solve(factor, rhs):
            systems[-1][1].append(rhs)
            return solve_band(factor, rhs)

        monkeypatch.setattr(solver, "band_cholesky", recording_cholesky)
        monkeypatch.setattr(solver, "band_solve", recording_solve)
        bg = solver.named_background(background)
        grid = solver.make_grid(intervals, r_max=r_max)
        try:
            solver.solve_radial(SolitonParams(1.0, 0.0, lam, 0.0), bg, grid)
        except NoConvergence:
            pass  # off balance on the sphere
        monkeypatch.undo()
        (band, rhs_list), = systems
        assert len(band[0]) == intervals and rhs_list
        for rhs in rhs_list:
            assert _assert_kernels_match_loop(band, rhs) is not None


@pytest.mark.parametrize("background", ["flat", "sphere", "hyperbolic"])
def test_solve_csv_bytes_match_loop_reference(background, tmp_path, monkeypatch, capsys):
    """`ryslab solve` writes the same CSV bytes and exit code on the loop
    reference kernels as on the solver's own, converged (exit 0) or not
    (exit 1: off balance, or at the rounding floor of large grids)."""

    def sweep(tag):
        runs = []
        for lam in (-3.0, 0.5, 2.0, 7.0):
            for r_max in (0.5, 1.0, 2.5):
                for intervals in (16, 17, 333, 2048):
                    out = tmp_path / f"{tag}-{lam}-{r_max}-{intervals}.csv"
                    code = cli.main([
                        "solve", "--background", background, "--lambda", repr(lam),
                        "--r-max", repr(r_max), "--grid", str(intervals), "--out", str(out),
                    ])
                    runs.append((code, out.read_bytes()))
        return runs

    kernels = sweep("kernels")
    with monkeypatch.context() as patch:
        patch.setattr(solver, "band_cholesky", _loop_band_cholesky)
        patch.setattr(solver, "band_solve", _loop_band_solve)
        loop = sweep("loop")
    assert kernels == loop
    assert {code for code, _ in kernels} <= {0, 1}


class TestBandCholesky:
    @pytest.mark.parametrize("n", [1, 6, 7, 100])
    def test_matches_dense_cholesky(self, n):
        rng = np.random.default_rng(n)
        band = _random_spd_band(n, rng)
        dense = _dense_band(band)
        factor = solver.band_cholesky(band)
        lower = np.zeros((n, n))
        for i, row in enumerate(factor):
            for b, value in enumerate(row):
                if i - 5 + b >= 0:
                    lower[i, i - 5 + b] = value
        want = np.linalg.cholesky(dense)
        assert np.max(np.abs(lower - want)) <= 1e-12 * np.max(np.abs(want))
        rhs = rng.normal(size=n)
        x = np.array(solver.band_solve(factor, rhs.tolist()))
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))

    def test_not_positive_definite_is_singular(self):
        band = _random_spd_band(20, np.random.default_rng(3))
        band[0][12] = -abs(band[0][12])  # a negative diagonal entry
        assert solver.band_cholesky(band) is None
        zero = [[0.0] * 20 for _ in range(6)]
        assert solver.band_cholesky(zero) is None
        nan = _random_spd_band(20, np.random.default_rng(4))
        nan[0][7] = float("nan")
        assert solver.band_cholesky(nan) is None

    @pytest.mark.parametrize("width", [1, 5, 7])
    def test_other_band_widths_are_rejected(self, width):
        band = _random_spd_band(20, np.random.default_rng(5), p=width - 1)
        with pytest.raises(ValueError, match=f"width {width}"):
            solver.band_cholesky(band)

    def test_diagonals_of_unequal_length_are_rejected(self):
        band = _random_spd_band(20, np.random.default_rng(6))
        band[3] = band[3][:17]
        with pytest.raises(ValueError, match="width 6"):
            solver.band_cholesky(band)


@pytest.mark.parametrize("background", ["flat", "sphere", "hyperbolic"])
def test_radial_residual_matches_dense_operators(background):
    bg = solver.named_background(background)
    rng = np.random.default_rng(11)
    for m in (17, 64, 513):
        grid = np.linspace(solver.ORIGIN_MARGIN, 1.4, m)
        values = rng.normal(size=m)
        params = SolitonParams(1.0, 0.3, -0.7, 0.0)
        coef = solver.soliton_coefficient(params, bg)
        d1, d2 = _loop_derivative_matrices(grid)
        warp = bg.log_warp_deriv(grid)
        want = np.concatenate([coef + d2 @ values, coef + warp * (d1 @ values)])
        got = solver.radial_residual(solver.RadialProfile(grid, values, params, bg))
        scale = np.max(np.abs(d2)) * np.max(np.abs(values)) + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_sphere_grid_across_the_antipode_is_rejected():
    """On the unit sphere the warp sin(r) vanishes at r = pi: a grid that
    reaches it is a typed error, not a profile."""
    params, sphere = SolitonParams(1, 0, -2, 0), solver.Background.sphere(1.0)
    with pytest.raises(BeyondAntipode):
        solver.solve_radial(params, sphere, solver.make_grid(128, r_max=10.0))
    with pytest.raises(BeyondAntipode):
        solver.solve_radial(params, sphere, solver.make_grid(128, r_max=np.pi))
    profile = solver.solve_radial(params, sphere, solver.make_grid(128, r_max=3.0))
    assert np.max(np.abs(solver.radial_residual(profile))) <= solver.RESIDUAL_TOL
