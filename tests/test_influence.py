"""Influence functional: system solve, linear influence system, oracle checks."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from mixclust import (
    AlgoConfig,
    ConstraintBoundaryError,
    ConstraintConfig,
    GeometryError,
    SolveError,
    TrueDistribution,
    assemble_if_system,
    fit,
    if_curve,
    solve_functional,
)
import mixclust.influence as influence
from mixclust.influence import (
    _crossing_points,
    _f_pow_beta,
    _Measure,
    _poly_rows,
    _reduced_jacobian,
    _system_residual,
)
from oracles import ContaminatedMeasure, numeric_if_oracle

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


class TestMoments:
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

    def oracle(self, measure, mu, var, beta, lo, hi):
        """Each row's integral over (lo, hi): adaptive quadrature against the
        law, plus the atom's share."""
        def term(x, row):
            return self.FORMULAS[row](_f_pow_beta(x, mu, var, beta), x - mu, var, beta)

        y, eps = getattr(measure, "atom_y", 0.0), getattr(measure, "atom_eps", 0.0)
        return np.array([
            (1.0 - eps) * quad(lambda x: term(x, row) * MODEL.pdf(x), lo, hi,
                               epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            + eps * (lo < y < hi) * term(y, row) for row in range(6)])

    @pytest.mark.parametrize("lo, hi", [(-30.0, 2.2), (-np.inf, -0.7), (6.1, np.inf)],
                             ids=["far-tail", "lower-half-line", "upper-half-line"])
    @pytest.mark.parametrize("beta", [0.1, 1.0])
    @pytest.mark.parametrize("mu, var", [(0.3, 1.2), (4.6, 3.5)], ids=["near-1", "near-2"])
    def test_moment_rows_match_quadrature(self, mu, var, beta, lo, hi):
        measure = _Measure(MODEL)
        got = np.array(_poly_rows(var, beta)) @ measure.moments(mu, var, beta, lo, hi)
        want = self.oracle(measure, mu, var, beta, lo, hi)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("lo", [6.1, 14.0, 25.0])
    def test_upper_tail_mirrors_lower_tail(self, lo):
        # Far upper tails keep their relative precision: the moments over
        # (lo, inf) are the mirrored law's over (-inf, -lo), with z^j -> (-z)^j.
        mirrored = TrueDistribution(weights=MODEL.weights, means=(0.0, -5.0),
                                    variances=MODEL.variances)
        got = _Measure(MODEL).moments(4.6, 3.5, 0.1, lo, np.inf)
        want = _Measure(mirrored).moments(-4.6, 3.5, 0.1, -np.inf, -lo) * (-1.0) ** np.arange(5)
        assert got[0] > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("a, b", [(-1.3, 2.9), (1.6, 6.2)],
                             ids=["atom-inside", "atom-outside"])
    def test_contaminated_integrals_match_quadrature(self, a, b):
        # Component 1 on (a, b), component 2 on both half-lines off it.
        measure = ContaminatedMeasure(MODEL, atom_y=1.0, atom_eps=1e-2)
        (mu1, v1), (mu2, v2), beta = (0.3, 1.2), (4.6, 3.5), 0.1
        inner, outer = measure.integrals(beta, a, b, mu1, mu2, v1, v2, rows=slice(0, 6))
        np.testing.assert_allclose(inner, self.oracle(measure, mu1, v1, beta, a, b),
                                   rtol=1e-12, atol=1e-15)
        want = (self.oracle(measure, mu2, v2, beta, -np.inf, a)
                + self.oracle(measure, mu2, v2, beta, b, np.inf))
        np.testing.assert_allclose(outer, want, rtol=1e-12, atol=1e-15)


class TestSolve:
    @pytest.mark.parametrize("means, variances, message", [
        ((0.0, 1e200), (1.0, 4.0), "floating point"),
        ((0.0, 5.0), (1.0, 1e300), "outside its domain"),
        ((0.0, 5.0), (1e-200, 4.0), "outside its domain")],
        ids=["mu2-1e200", "var2-1e300", "var1-1e-200"])
    def test_float_failure_is_solve_error(self, means, variances, message):
        # A law this far out of scale overflows in floats, or, with a
        # |log variance| past 50, gives Newton no start in the solve's domain.
        dist = TrueDistribution(weights=(0.5, 0.5), means=means, variances=variances)
        with pytest.raises(SolveError, match=message):
            solve_functional(dist, 0.1, CFG)

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
    @pytest.mark.parametrize("measure", [
        _Measure(MODEL), ContaminatedMeasure(MODEL, atom_y=1.0, atom_eps=1e-2)],
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

    def test_solve_integral_budget(self, monkeypatch):
        # Structural guard: this solve evaluates 43 integral sets (32 residuals
        # and 11 analytic Jacobians); a finite-difference Jacobian would add
        # twelve residuals per step, over 150 in all.
        calls = []
        original = _Measure.integrals

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Measure, "integrals", counting)
        solve_functional(MODEL, 0.1, CFG)
        assert len(calls) <= 50


class TestLinearSystem:
    def test_row_two_is_weight_identity(self, sol_01):
        A, _ = assemble_if_system(sol_01, MODEL, y=1.0)
        assert np.allclose(A[1], [1, 1, 0, 0, 0, 0, 0, 0])

    def test_matrix_independent_of_y(self, sol_01):
        A1, _ = assemble_if_system(sol_01, MODEL, y=-3.0)
        A2, _ = assemble_if_system(sol_01, MODEL, y=7.0)
        assert np.array_equal(A1, A2)

    def test_rhs_depends_on_interval_indicator(self, sol_01):
        _, b_in = assemble_if_system(sol_01, MODEL, y=0.0)
        _, b_out = assemble_if_system(sol_01, MODEL, y=sol_01.b + 1.0)
        assert b_in[0] != b_out[0]

    def test_weight_influences_cancel(self, sol_01):
        rng = np.random.default_rng(3)
        for y in rng.uniform(-20, 20, size=100):
            vec = if_curve(sol_01, MODEL, [y])[0, 1:]
            assert vec[0] + vec[1] == pytest.approx(0.0, abs=1e-9)

    def test_constants_match_second_quadrature(self, sol_01):
        # independent composite Gauss-Legendre oracle for the integrals in
        # the right-hand side: component 1's location, component 2's spread
        (c1, _), (_, c4) = _Measure(MODEL).integrals(0.1, sol_01.a, sol_01.b, sol_01.mu1,
                                                     sol_01.mu2, sol_01.var1, sol_01.var2)
        nodes, weights = np.polynomial.legendre.leggauss(64)

        def gl_quad(fn, lo, hi, panels=24):
            edges = np.linspace(lo, hi, panels + 1)
            total = 0.0
            for left, right in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (left + right), 0.5 * (right - left)
                total += half * np.sum(weights * fn(mid + half * nodes))
            return total

        lo, hi = -19.0, 29.0  # twelve law standard deviations beyond either mean
        a, b = sol_01.a, sol_01.b

        def score1(x):
            return (_f_pow_beta(x, sol_01.mu1, sol_01.var1, 0.1)
                    * (x - sol_01.mu1) * MODEL.pdf(x))

        def spread2(x):
            return (_f_pow_beta(x, sol_01.mu2, sol_01.var2, 0.1)
                    * ((x - sol_01.mu2) ** 2 / sol_01.var2 - 1.0) * MODEL.pdf(x))

        assert gl_quad(score1, a, b) == pytest.approx(c1, abs=1e-7)
        assert gl_quad(spread2, lo, a) + gl_quad(spread2, b, hi) == pytest.approx(c4, abs=1e-7)

    @pytest.mark.parametrize("y", [-10.0, 0.0, 3.0, 10.0])
    def test_against_numeric_oracle(self, sol_01, y):
        lin = if_curve(sol_01, MODEL, [y])[0, 1:]
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
        curve = if_curve(sol_01, MODEL, grid)
        mu1_col = curve[:, 5]
        at_center = if_curve(sol_01, MODEL, [sol_01.mu1])[0, 5]
        assert abs(at_center) <= 0.05 * np.abs(mu1_col).max()

    def test_curve_matches_per_point_solves(self, sol_01):
        grid = np.linspace(-30, 30, 121)
        curve = if_curve(sol_01, MODEL, grid)
        for i, y in enumerate(grid):
            A, B = assemble_if_system(sol_01, MODEL, float(y))
            want = np.linalg.solve(A, B)
            assert curve[i, 0] == y
            np.testing.assert_allclose(curve[i, 1:], want, rtol=1e-12, atol=1e-12)

    def test_ill_conditioned_matrix_refused(self, sol_01, monkeypatch):
        # Any 8x8 matrix other than a scaled orthogonal one has cond > 1.
        monkeypatch.setattr(influence, "MAX_CONDITION", 1.0)
        with pytest.raises(SolveError, match="ill-conditioned"):
            if_curve(sol_01, MODEL, np.linspace(-5, 5, 11))
        with pytest.raises(SolveError, match="ill-conditioned"):
            if_curve(sol_01, MODEL, [2.0])


class TestCurves:
    @pytest.mark.parametrize("beta", [0.1, 0.2, 1.0])
    def test_far_points_take_the_limit(self, beta):
        # f^beta is exactly 0 at |y| = 1e3 already; at 1e300 the spread
        # polynomial overflows too, and the term must still be 0, not NaN.
        sol = solve_functional(MODEL, beta, CFG)
        far = if_curve(sol, MODEL, [1e300, -1e300])[:, 1:]
        near = if_curve(sol, MODEL, [1e3, -1e3])[:, 1:]
        assert far.tobytes() == near.tobytes()

    def test_bounded_on_grid(self, sol_01, sol_02):
        grid = np.linspace(-30, 30, 201)
        for beta, sol in ((0.1, sol_01), (0.2, sol_02)):
            curve = if_curve(sol, MODEL, grid)
            assert np.all(np.isfinite(curve))

    def test_range_shrinks_with_beta(self, sol_01, sol_02):
        grid = np.linspace(-30, 30, 201)
        c1 = if_curve(sol_01, MODEL, grid)
        c2 = if_curve(sol_02, MODEL, grid)
        for col in range(1, 9):
            r1 = c1[:, col].max() - c1[:, col].min()
            r2 = c2[:, col].max() - c2[:, col].min()
            assert r2 <= r1 * (1 + 1e-9)

    def test_beta_one_closer_to_beta_02_than_01(self, sol_01, sol_02):
        sol_1 = solve_functional(MODEL, 1.0, CFG)
        grid = np.linspace(-30, 30, 121)
        c01 = if_curve(sol_01, MODEL, grid)
        c02 = if_curve(sol_02, MODEL, grid)
        c10 = if_curve(sol_1, MODEL, grid)
        for col in range(1, 9):
            d21 = np.abs(c10[:, col] - c02[:, col]).max()
            d11 = np.abs(c10[:, col] - c01[:, col]).max()
            assert d21 <= d11 * (1 + 1e-9)

    def test_mirror_antisymmetry_of_mu1_curve(self, sol_02):
        mirrored = TrueDistribution(weights=(0.5, 0.5), means=(0.0, -5.0),
                                    variances=(1.0, 4.0))
        other = solve_functional(mirrored, 0.2, CFG)
        for y in (-4.0, 1.0, 6.0):
            direct = if_curve(sol_02, MODEL, [y])[0, 1:]
            flipped = if_curve(other, mirrored, [-y])[0, 1:]
            assert flipped[4] == pytest.approx(-direct[4], rel=1e-6, abs=1e-9)

    def test_csv_columns(self, tmp_path, sol_01):
        from mixclust.influence import write_if_curve

        table = if_curve(sol_01, MODEL, np.linspace(-2, 2, 5))
        path = tmp_path / "curve.csv"
        write_if_curve(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "y,IF_pi1,IF_pi2,IF_a,IF_b,IF_mu1,IF_mu2,IF_s1,IF_s2"


def model_quantiles(n):
    """The deterministic sample x_i = F^-1((i - 1/2) / n) of MODEL, by bisection."""
    q = (np.arange(n) + 0.5) / n
    lo, hi = np.full(n, -15.0), np.full(n, 20.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = sum(w * ndtr((mid - m) / np.sqrt(v)) for w, m, v in
                    zip(MODEL.weights, MODEL.means, MODEL.variances)) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# The functional's (pi1, pi2, mu1, mu2, var1, var2): the entries a fit
# estimates directly (the crossings a, b are left out).
FITTED = [0, 1, 4, 5, 6, 7]


def fitted_functional(x, beta):
    """(pi1, pi2, mu1, mu2, var1, var2) of ``fit`` on x, the lower mean first."""
    res = fit(x, 2, AlgoConfig(beta=beta, constraint=CFG, n_restarts=3))
    order = np.argsort([comp.mean[0] for comp in res.params.components])
    comps = [res.params.components[j] for j in order]
    return np.array([*res.params.weights[order], *(c.mean[0] for c in comps),
                     *(c.cov[0, 0] for c in comps)])


def test_fit_converges_to_functional_with_if_sensitivity(irls_stop):
    # Only the public fit, solve_functional and if_curve: the sample version
    # of the clustering objective must approach the population functional,
    # and its finite-sample sensitivity curve must match the influence function.
    irls_stop(1e-12)
    base_n, m = 20_000, 40
    eps = m / (base_n + m)  # about 0.002
    base = model_quantiles(base_n)

    def sensitivity(beta, at_base, y):
        return (fitted_functional(np.concatenate([base, np.full(m, y)]), beta) - at_base) / eps

    far = {}
    for beta in (0.1, 0.2):
        sol = solve_functional(MODEL, beta, CFG)
        at_base = fitted_functional(base, beta)
        gaps = [np.abs(fitted - sol.as_vector()[FITTED]).max() for fitted in
                (fitted_functional(model_quantiles(1_250), beta),
                 fitted_functional(model_quantiles(5_000), beta), at_base)]
        # measured: 7.0 and 3.9 at beta 0.1, 6.3 and 2.3 at beta 0.2
        assert gaps[0] >= 2 * gaps[1] and gaps[1] >= 2 * gaps[2], gaps
        # At beta 0.1, y = 50 reads 5.8%: there eps = 0.002 is not yet in the
        # linear range, so the far-out point is checked at beta 0.2 alone.
        ys = [-3.0, 1.0, 3.5, 12.0, 25.0] + [50.0] * (beta == 0.2)
        for y, inf in zip(ys, if_curve(sol, MODEL, ys)[:, 1:][:, FITTED]):
            sens = sensitivity(beta, at_base, y)
            # measured: at most 4.0% of the largest |IF| entry, at beta 0.2 and y = 25
            assert np.abs(sens - inf).max() <= 0.05 * np.abs(inf).max(), (beta, y)
            far[beta, y] = sens[-1]
    # Bounded far out at beta 0.2 (var2 sensitivity 3.46 at y 25 and 50). At
    # beta 0 it grows with y (measured: 101, 900, 1003), though from y = 25 on
    # the c = 5 ratio bound holds var2 at 5 var1.
    assert far[0.2, 50.0] == pytest.approx(far[0.2, 25.0], rel=0.01)
    at_base = fitted_functional(base, 0.0)
    grows = [sensitivity(0.0, at_base, y)[-1] for y in (12.0, 25.0, 50.0)]
    assert grows[0] < grows[1] < grows[2]
    assert grows[0] > 10 * far[0.2, 25.0] and grows[2] > 100 * far[0.2, 50.0]
