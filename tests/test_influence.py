"""Influence functional: system solve, linear influence system, oracle checks."""

import numpy as np
import pytest

from mixclust import (
    ConstraintBoundaryError,
    ConstraintConfig,
    GeometryError,
    SolveError,
    TrueDistribution,
    assemble_if_system,
    if_curve,
    influence_at,
    numeric_if_oracle,
    solve_functional,
)
import mixclust.influence as influence
from mixclust.influence import (
    _crossing_points,
    _f_pow_beta,
    _matrix_and_constants,
    _Measure,
    _poly_rows,
    _reduced_jacobian,
    _system_residual,
)

MODEL = TrueDistribution(weights=(0.5, 0.5), means=(0.0, 5.0), variances=(1.0, 4.0))
CFG = ConstraintConfig(c=5.0, c1=0.1)


@pytest.fixture(scope="module")
def sol_01():
    return solve_functional(MODEL, 0.1, CFG)


@pytest.fixture(scope="module")
def sol_02():
    return solve_functional(MODEL, 0.2, CFG)


class TestModel:
    @pytest.mark.parametrize("weights, means, variances", [
        ((1.5, -0.5), (0.0, 5.0), (1.0, 4.0)),
        ((-0.2, 1.2), (0.0, 5.0), (1.0, 4.0)),
        ((0.0, 1.0), (0.0, 5.0), (1.0, 4.0)),
        ((0.5, 0.4), (0.0, 5.0), (1.0, 4.0)),
        ((0.5, 0.5), (float("inf"), 5.0), (1.0, 4.0)),
        ((0.5, 0.5), (0.0, float("nan")), (1.0, 4.0)),
        ((0.5, 0.5), (0.0, 5.0), (float("nan"), 4.0)),
        ((0.5, 0.5), (0.0, 5.0), (1.0, float("inf"))),
        ((0.5, 0.5), (0.0, 5.0), (0.0, 4.0)),
    ], ids=["pi1-above-1", "pi1-negative", "pi1-zero", "sum-not-1", "mean-inf",
            "mean-nan", "var-nan", "var-inf", "var-zero"])
    def test_invalid_model_rejected(self, weights, means, variances):
        with pytest.raises(ValueError):
            TrueDistribution(weights=weights, means=means, variances=variances)


class TestKernel:
    # The stationarity integrands as first written, one per coefficient row
    # of _poly_rows, without the data-law density.
    FORMULAS = [
        lambda f, z, v, beta: f * z,
        lambda f, z, v, beta: f * (z**2 / v - 1.0),
        lambda f, z, v, beta: f * (beta * z**2 / v - 1.0),
        lambda f, z, v, beta: 0.5 * beta * f * (z**3 / v**2 - z / v),
        lambda f, z, v, beta: f * z / v * (beta * (z**2 / v - 1.0) - 2.0),
        lambda f, z, v, beta: f * (0.5 * beta / v * (z**2 / v - 1.0) ** 2 - z**2 / v**2),
    ]

    @pytest.mark.parametrize("row", range(6))
    @pytest.mark.parametrize("mu, var, beta", [(0.3, 1.2, 0.1), (4.6, 3.5, 1.0)])
    def test_scalar_kernel_matches_numpy_formula(self, row, mu, var, beta):
        xs = np.random.default_rng(11).uniform(-10.0, 25.0, size=64)
        kernel = _Measure(MODEL).kernel(_poly_rows(var, beta)[row], mu, var, beta)
        got = np.array([kernel(float(x)) for x in xs])
        want = (self.FORMULAS[row](_f_pow_beta(xs, mu, var, beta), xs - mu, var, beta)
                * MODEL.pdf(xs))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestSolve:
    def test_residuals_small(self, sol_01):
        u = np.array([sol_01.mu1, sol_01.mu2, np.log(sol_01.var1),
                      np.log(sol_01.var2), sol_01.a, sol_01.b])
        res = _system_residual(u, _Measure(MODEL), 0.1)
        assert np.abs(res).max() <= 1e-8
        assert sol_01.pi1 + sol_01.pi2 == pytest.approx(1.0, abs=1e-12)
        mass = float(MODEL.cdf(sol_01.b) - MODEL.cdf(sol_01.a))
        assert sol_01.pi1 == pytest.approx(mass, abs=1e-12)

    def test_interval_geometry(self, sol_01):
        assert sol_01.a < sol_01.b
        ca, cb = _crossing_points(sol_01.pi1, sol_01.pi2, sol_01.mu1, sol_01.mu2,
                                  sol_01.var1, sol_01.var2)
        assert ca == pytest.approx(sol_01.a, abs=1e-6)
        assert cb == pytest.approx(sol_01.b, abs=1e-6)

    def test_constraint_interior(self, sol_01):
        ratio = max(sol_01.var1, sol_01.var2) / min(sol_01.var1, sol_01.var2)
        assert ratio < CFG.c
        assert min(sol_01.var1, sol_01.var2) > CFG.c1

    def test_fisher_consistency_separated(self):
        # well-separated components: the functional returns the model itself
        far = TrueDistribution(weights=(0.5, 0.5), means=(0.0, 100.0),
                               variances=(1.0, 4.0))
        a0, b0 = _crossing_points(0.5, 0.5, 0.0, 100.0, 1.0, 4.0)
        truth = np.array([0.0, 100.0, 0.0, np.log(4.0), a0, b0])
        res = _system_residual(truth, _Measure(far), 0.1)
        assert np.abs(res).max() <= 1e-9
        sol = solve_functional(far, 0.1, CFG)
        assert sol.mu1 == pytest.approx(0.0, abs=1e-3)
        assert sol.mu2 == pytest.approx(100.0, abs=1e-3)

    def test_mirror_symmetry(self, sol_02):
        mirrored = TrueDistribution(weights=(0.5, 0.5), means=(0.0, -5.0),
                                    variances=(1.0, 4.0))
        other = solve_functional(mirrored, 0.2, CFG)
        assert other.a == pytest.approx(-sol_02.b, abs=1e-7)
        assert other.b == pytest.approx(-sol_02.a, abs=1e-7)
        assert other.mu1 == pytest.approx(-sol_02.mu1, abs=1e-7)
        assert other.mu2 == pytest.approx(-sol_02.mu2, abs=1e-7)
        assert other.var1 == pytest.approx(sol_02.var1, rel=1e-7)
        assert other.var2 == pytest.approx(sol_02.var2, rel=1e-7)

    def test_equal_variances_rejected_as_geometry(self):
        sym = TrueDistribution(weights=(0.5, 0.5), means=(-5.0, 5.0),
                               variances=(1.0, 1.0))
        with pytest.raises(GeometryError):
            solve_functional(sym, 0.2, CFG)

    def test_constraint_boundary_detected(self):
        wide = TrueDistribution(weights=(0.5, 0.5), means=(0.0, 5.0),
                                variances=(1.0, 4.0))
        with pytest.raises(ConstraintBoundaryError):
            solve_functional(wide, 0.1, ConstraintConfig(c=2.0, c1=0.1))

    def test_beta_zero_refused(self):
        with pytest.raises(ValueError):
            solve_functional(MODEL, 0.0, CFG)


class TestSharedDerivative:
    @pytest.mark.parametrize("measure", [_Measure(MODEL),
                                         _Measure(MODEL, atom_y=1.0, atom_eps=1e-2)],
                             ids=["clean", "contaminated"])
    def test_reduced_jacobian_matches_central_differences(self, sol_01, measure):
        # a point well away from the solution, so every chain-rule term counts
        u = np.array([sol_01.mu1 + 0.3, sol_01.mu2 - 0.4, np.log(sol_01.var1) + 0.2,
                      np.log(sol_01.var2) - 0.15, sol_01.a + 0.5, sol_01.b - 0.2])
        assert np.abs(_system_residual(u, measure, 0.1)).max() > 1.0
        jac = _reduced_jacobian(u, measure, 0.1)
        fd = np.empty((6, 6))
        for i in range(6):
            h = 1e-5 * max(1.0, abs(u[i]))
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[:, i] = (_system_residual(up, measure, 0.1)
                        - _system_residual(um, measure, 0.1)) / (2.0 * h)
        assert np.abs(jac - fd).max() <= 1e-7 * np.abs(jac).max()

    def test_newton_ends_quadratically(self, monkeypatch):
        seen = []

        def recording(u, measure, beta):
            res = _system_residual(u, measure, beta)
            seen.append(float(np.abs(res).max()))
            return res

        monkeypatch.setattr(influence, "_system_residual", recording)
        solve_functional(MODEL, 0.1, CFG)
        # The last evaluations are full Newton steps: about 4e-2, 5e-5, 1e-10.
        r1, r2, r3 = seen[-3:]
        assert r3 <= 1e-9
        assert r2 <= r1**2
        assert r3 <= r2**2

    def test_solve_quad_budget(self, monkeypatch):
        # Structural guard: a finite-difference Jacobian re-runs every
        # residual integral twelve times per step (984 quad calls here).
        calls = []
        original = influence.quad

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(influence, "quad", counting)
        solve_functional(MODEL, 0.1, CFG)
        assert len(calls) <= 400


class TestLinearSystem:
    def test_row_two_is_weight_identity(self, sol_01):
        A, _ = assemble_if_system(sol_01, MODEL, 0.1, y=1.0)
        assert np.allclose(A[1], [1, 1, 0, 0, 0, 0, 0, 0])

    def test_matrix_independent_of_y(self, sol_01):
        A1, _ = assemble_if_system(sol_01, MODEL, 0.1, y=-3.0)
        A2, _ = assemble_if_system(sol_01, MODEL, 0.1, y=7.0)
        assert np.array_equal(A1, A2)

    def test_cached_matrix_is_read_only(self, sol_01):
        A, _ = assemble_if_system(sol_01, MODEL, 0.1, y=1.0)
        assert A is _matrix_and_constants(sol_01, MODEL, 0.1)[0]
        with pytest.raises(ValueError):
            A[0, 0] = 2.0

    def test_rhs_depends_on_interval_indicator(self, sol_01):
        _, b_in = assemble_if_system(sol_01, MODEL, 0.1, y=0.0)
        _, b_out = assemble_if_system(sol_01, MODEL, 0.1, y=sol_01.b + 1.0)
        assert b_in[0] != b_out[0]

    def test_weight_influences_cancel(self, sol_01):
        rng = np.random.default_rng(3)
        for y in rng.uniform(-20, 20, size=100):
            vec = influence_at(sol_01, MODEL, 0.1, float(y))
            assert vec[0] + vec[1] == pytest.approx(0.0, abs=1e-9)

    def test_constants_match_second_quadrature(self, sol_01):
        # independent composite Gauss-Legendre oracle for the cached integrals
        from mixclust.influence import _f_pow_beta, _matrix_and_constants

        _, consts = _matrix_and_constants(sol_01, MODEL, 0.1)
        nodes, weights = np.polynomial.legendre.leggauss(64)

        def gl_quad(fn, lo, hi, panels=24):
            edges = np.linspace(lo, hi, panels + 1)
            total = 0.0
            for left, right in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (left + right), 0.5 * (right - left)
                total += half * np.sum(weights * fn(mid + half * nodes))
            return total

        lo, hi = MODEL.support()
        a, b = sol_01.a, sol_01.b

        def score1(x):
            return (_f_pow_beta(x, sol_01.mu1, sol_01.var1, 0.1)
                    * (x - sol_01.mu1) * MODEL.pdf(x))

        def spread2(x):
            return (_f_pow_beta(x, sol_01.mu2, sol_01.var2, 0.1)
                    * ((x - sol_01.mu2) ** 2 / sol_01.var2 - 1.0) * MODEL.pdf(x))

        assert gl_quad(score1, a, b) == pytest.approx(consts["C1"], abs=1e-7)
        c4 = gl_quad(spread2, lo, a) + gl_quad(spread2, b, hi)
        assert c4 == pytest.approx(consts["C4"], abs=1e-7)

    @pytest.mark.parametrize("y", [-10.0, 0.0, 3.0, 10.0])
    def test_against_numeric_oracle(self, sol_01, y):
        lin = influence_at(sol_01, MODEL, 0.1, y)
        num = numeric_if_oracle(MODEL, 0.1, CFG, y, base=sol_01)
        rel = np.abs(lin - num) / np.maximum(np.abs(num), 1e-12)
        assert np.all((rel <= 0.02) | (np.abs(lin - num) <= 1e-3))

    def test_oracle_richardson_stability(self, sol_01):
        coarse = numeric_if_oracle(MODEL, 0.1, CFG, 3.0, eps_list=(2e-4, 1e-4),
                                   base=sol_01)
        fine = numeric_if_oracle(MODEL, 0.1, CFG, 3.0, eps_list=(1e-4, 5e-5),
                                 base=sol_01)
        scale = np.maximum(np.abs(fine), 1.0)
        assert np.all(np.abs(coarse - fine) / scale <= 0.01)

    def test_influence_small_at_own_center(self, sol_01):
        grid = np.linspace(-30, 30, 121)
        curve = if_curve(sol_01, MODEL, 0.1, grid)
        mu1_col = curve[:, 5]
        at_center = influence_at(sol_01, MODEL, 0.1, float(sol_01.mu1))[4]
        assert abs(at_center) <= 0.05 * np.abs(mu1_col).max()

    def test_curve_matches_per_point_solves(self, sol_01):
        grid = np.linspace(-30, 30, 121)
        curve = if_curve(sol_01, MODEL, 0.1, grid)
        for i, y in enumerate(grid):
            A, B = assemble_if_system(sol_01, MODEL, 0.1, float(y))
            want = np.linalg.solve(A, B)
            assert curve[i, 0] == y
            np.testing.assert_allclose(curve[i, 1:], want, rtol=1e-12, atol=1e-12)

    def test_ill_conditioned_matrix_refused(self, sol_01):
        # Any 8x8 matrix other than a scaled orthogonal one has cond > 1.
        with pytest.raises(SolveError, match="ill-conditioned"):
            if_curve(sol_01, MODEL, 0.1, np.linspace(-5, 5, 11), max_condition=1.0)
        with pytest.raises(SolveError, match="ill-conditioned"):
            influence_at(sol_01, MODEL, 0.1, 2.0, max_condition=1.0)


class TestCurves:
    def test_bounded_on_grid(self, sol_01, sol_02):
        grid = np.linspace(-30, 30, 201)
        for beta, sol in ((0.1, sol_01), (0.2, sol_02)):
            curve = if_curve(sol, MODEL, beta, grid)
            assert np.all(np.isfinite(curve))

    def test_range_shrinks_with_beta(self, sol_01, sol_02):
        grid = np.linspace(-30, 30, 201)
        c1 = if_curve(sol_01, MODEL, 0.1, grid)
        c2 = if_curve(sol_02, MODEL, 0.2, grid)
        for col in range(1, 9):
            r1 = c1[:, col].max() - c1[:, col].min()
            r2 = c2[:, col].max() - c2[:, col].min()
            assert r2 <= r1 * (1 + 1e-9)

    def test_beta_one_closer_to_beta_02_than_01(self, sol_01, sol_02):
        sol_1 = solve_functional(MODEL, 1.0, CFG)
        grid = np.linspace(-30, 30, 121)
        c01 = if_curve(sol_01, MODEL, 0.1, grid)
        c02 = if_curve(sol_02, MODEL, 0.2, grid)
        c10 = if_curve(sol_1, MODEL, 1.0, grid)
        for col in range(1, 9):
            d21 = np.abs(c10[:, col] - c02[:, col]).max()
            d11 = np.abs(c10[:, col] - c01[:, col]).max()
            assert d21 <= d11 * (1 + 1e-9)

    def test_mirror_antisymmetry_of_mu1_curve(self, sol_02):
        mirrored = TrueDistribution(weights=(0.5, 0.5), means=(0.0, -5.0),
                                    variances=(1.0, 4.0))
        other = solve_functional(mirrored, 0.2, CFG)
        for y in (-4.0, 1.0, 6.0):
            direct = influence_at(sol_02, MODEL, 0.2, y)
            flipped = influence_at(other, mirrored, 0.2, -y)
            assert flipped[4] == pytest.approx(-direct[4], rel=1e-6, abs=1e-9)

    def test_csv_columns(self, tmp_path, sol_01):
        from mixclust.influence import write_if_curve

        table = if_curve(sol_01, MODEL, 0.1, np.linspace(-2, 2, 5))
        path = tmp_path / "curve.csv"
        write_if_curve(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "y,IF_pi1,IF_pi2,IF_a,IF_b,IF_mu1,IF_mu2,IF_s1,IF_s2"
