"""Gaussian kernel and power-integral tests, including quadrature oracles."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.linalg import solve_triangular

from mixclust import (
    DimensionMismatchError,
    GaussianComponent,
    NotPositiveDefiniteError,
    dpd_integral,
    log_density,
    mahalanobis_sq,
)
from mixclust.gaussian import BLOCK
from oracles import component_beta_objective


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


class TestMahalanobis:
    def test_zero_at_mean(self):
        comp = GaussianComponent([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis_sq(comp.mean, comp) == 0.0

    def test_univariate_value(self):
        comp = GaussianComponent([0.0], [[4.0]])
        assert mahalanobis_sq(np.array([2.0]), comp) == pytest.approx(1.0)

    def test_matches_explicit_inverse(self):
        # brute-force 2x2 inverse: [[2,1],[1,2]]^{-1} applied to (1,1) gives 2/3
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        comp = GaussianComponent(np.zeros(2), cov)
        x = np.array([1.0, 1.0])
        expected = x @ np.linalg.inv(cov) @ x
        assert expected == pytest.approx(2.0 / 3.0)
        assert mahalanobis_sq(x, comp) == pytest.approx(expected, rel=1e-12)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        comp = GaussianComponent(rng.standard_normal(3), random_spd(rng, 3))
        pts = rng.standard_normal((40, 3))
        batch = mahalanobis_sq(pts, comp)
        for i in range(40):
            assert batch[i] == pytest.approx(mahalanobis_sq(pts[i], comp), rel=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(11)
        comp = GaussianComponent(rng.standard_normal(4), random_spd(rng, 4))
        q = mahalanobis_sq(rng.standard_normal((200, 4)), comp)
        assert np.all(q >= 0.0)

    def test_dimension_mismatch(self):
        comp = GaussianComponent([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            mahalanobis_sq(np.array([1.0, 2.0, 3.0]), comp)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            GaussianComponent([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            GaussianComponent([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            GaussianComponent([0.0, 0.0], [[bad, 0.0], [0.0, 1.0]])


def conditioned_component(p, cond):
    """Random rotation of eigenvalues spread log-evenly over
    [cond**-0.5, cond**0.5], so the covariance has condition number cond
    (for p = 1 the spread sets the variance instead)."""
    rng = np.random.default_rng([p, round(np.log10(cond))])
    rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eig = np.logspace(-0.5 * np.log10(cond), 0.5 * np.log10(cond), p)
    cov = (rot * eig) @ rot.T
    return GaussianComponent(rng.uniform(-5.0, 5.0, p), 0.5 * (cov + cov.T)), eig, rng


ACCURACY_GRID = pytest.mark.parametrize(
    "p, cond", [(p, c) for p in (1, 2, 5, 10) for c in (1.0, 1e4, 1e8, 1e12)])


class TestMahalanobisAccuracy:
    """The inverse-Cholesky GEMM kernel against independent oracles."""

    @ACCURACY_GRID
    def test_matches_triangular_solve(self, p, cond):
        # Isotropic points: the distance is dominated by the best-resolved
        # directions, so two sound kernels agree to rounding at any cond.
        comp, eig, rng = conditioned_component(p, cond)
        pts = comp.mean + np.sqrt(eig.max()) * rng.standard_normal((2000, p))
        z = solve_triangular(comp.chol, (pts - comp.mean).T, lower=True)
        expected = np.einsum("ij,ij->j", z, z)
        got = mahalanobis_sq(pts, comp)
        assert got.shape == (2000,)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12
        for i in range(20):
            single = mahalanobis_sq(pts[i], comp)
            assert isinstance(single, float)
            assert abs(single - expected[i]) <= 1e-12 * expected[i]

    @ACCURACY_GRID
    def test_component_shaped_points_within_conditioning(self, p, cond):
        # Points spread like the component itself weigh every direction
        # equally, so any method's distances are accurate only to about
        # cond(L) * eps; check against exact rational forward substitution.
        comp, _, rng = conditioned_component(p, cond)
        pts = comp.mean + rng.standard_normal((100, p)) @ comp.chol.T
        chol = [[Fraction(v) for v in row] for row in comp.chol]
        got = mahalanobis_sq(pts, comp)
        bound = 4 * p * np.linalg.cond(comp.chol) * np.finfo(float).eps
        for point, q in zip(pts, got):
            diff = [Fraction(v) - Fraction(m) for v, m in zip(point, comp.mean)]
            z = []
            for i in range(p):
                z.append((diff[i] - sum(chol[i][j] * z[j] for j in range(i))) / chol[i][i])
            exact = sum(v * v for v in z)
            assert abs(float((Fraction(q) - exact) / exact)) <= bound


BLOCK_NS = pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])


class TestBlockedKernel:
    """The blocked kernel against a one-shot GEMM over every column, bit for bit."""

    @BLOCK_NS
    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_bit_identical_to_one_shot(self, n, p):
        # Several components and draws: a one-column GEMV rounds differently
        # from the GEMM in about half of the columns, so one draw could miss it.
        for cond in (1.0, 1e4, 1e8):
            comp, _, rng = conditioned_component(p, cond)
            for _ in range(3):
                x = np.asfortranarray(comp.mean + 3.0 * rng.standard_normal((n, p)))
                z = np.linalg.inv(comp.chol) @ (x.T - comp.mean[:, None])
                expected = np.einsum("ij,ij->j", z, z)
                assert np.array_equal(mahalanobis_sq(x, comp), expected)
                # scratch of min(n, BLOCK) columns, as assign passes it, and of
                # all n, as the reweighted iteration passes its own buffers
                for m in {min(n, BLOCK), n}:
                    out = np.full(n, np.nan)
                    got = mahalanobis_sq(x, comp, (np.empty((p, m)), np.empty((p, m)), out))
                    assert got is out and np.array_equal(out, expected)
                    work = (np.empty((p, m)), np.empty((p, m)), np.empty(n))
                    assert np.array_equal(log_density(x, comp, work), log_density(x, comp))


class TestLogDensity:
    def test_standard_normal_mode(self):
        comp = GaussianComponent([0.0], [[1.0]])
        assert log_density(np.array([0.0]), comp) == pytest.approx(
            np.log(0.3989422804014327), abs=1e-12)

    def test_bivariate_mode(self):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        assert log_density(np.zeros(2), comp) == pytest.approx(
            np.log(1.0 / (2.0 * np.pi)), abs=1e-12)

    def test_against_dense_formula(self):
        rng = np.random.default_rng(3)
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        comp = GaussianComponent(mean, cov)
        pts = rng.standard_normal((25, 3)) * 2.0
        sign, logdet = np.linalg.slogdet(cov)
        inv = np.linalg.inv(cov)
        for x in pts:
            d = x - mean
            expected = -0.5 * (3 * np.log(2 * np.pi) + logdet + d @ inv @ d)
            assert log_density(x, comp) == pytest.approx(expected, abs=1e-12)

    def test_log_det_computed_on_first_read(self):
        rng = np.random.default_rng(5)
        cov = random_spd(rng, 4)
        comp = GaussianComponent(np.zeros(4), cov)
        assert "log_det" not in vars(comp)
        assert comp.log_det == pytest.approx(np.linalg.slogdet(cov)[1], abs=1e-12)
        assert vars(comp)["log_det"] == comp.log_det

    def test_integrates_to_one_1d(self):
        comp = GaussianComponent([0.5], [[1.3]])
        val, _ = quad(lambda x: np.exp(log_density(np.array([x]), comp)), -15, 16)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_integrates_to_one_2d(self):
        comp = GaussianComponent([0.0, 0.0], [[1.0, 0.4], [0.4, 2.0]])
        val, _ = dblquad(
            lambda y, x: np.exp(log_density(np.array([x, y]), comp)),
            -12, 12, -12, 12, epsabs=1e-6)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        x = rng.standard_normal(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        original = log_density(x, GaussianComponent(mean, cov))
        rotated = log_density(q @ x, GaussianComponent(q @ mean, q @ cov @ q.T))
        assert rotated == pytest.approx(original, abs=1e-10)


class TestDpdIntegral:
    def test_beta_zero_is_one(self):
        rng = np.random.default_rng(2)
        comp = GaussianComponent(np.zeros(3), random_spd(rng, 3))
        assert dpd_integral(comp.log_det, 3, 0.0) == pytest.approx(1.0)

    def test_univariate_beta_one(self):
        # quadrature of the squared standard normal density
        oracle, _ = quad(lambda x: (np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)) ** 2,
                         -12, 12, epsabs=1e-12)
        assert oracle == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-10)
        log_det = GaussianComponent([0.0], np.eye(1)).log_det
        assert dpd_integral(log_det, 1, 1.0) == pytest.approx(oracle, abs=1e-10)

    def test_bivariate_against_quadrature(self):
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        oracle, _ = dblquad(
            lambda y, x: np.exp(1.5 * log_density(np.array([x, y]), comp)),
            -10, 10, -10, 10, epsabs=1e-10)
        assert dpd_integral(comp.log_det, 2, 0.5) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("var", [0.5, 1.0, 2.5])
    def test_closed_form_matches_quadrature_1d(self, beta, var):
        comp = GaussianComponent([0.0], [[var]])
        oracle, _ = quad(
            lambda x: np.exp((1 + beta) * log_density(np.array([x]), comp)),
            -14 * np.sqrt(var), 14 * np.sqrt(var), epsabs=1e-12)
        assert dpd_integral(comp.log_det, 1, beta) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 1.0])
    def test_closed_form_matches_quadrature_2d(self, beta):
        cov = np.array([[1.2, 0.3], [0.3, 0.8]])
        comp = GaussianComponent(np.zeros(2), cov)
        oracle, _ = dblquad(
            lambda y, x: np.exp((1 + beta) * log_density(np.array([x, y]), comp)),
            -11, 11, -11, 11, epsabs=1e-10)
        assert dpd_integral(comp.log_det, 2, beta) == pytest.approx(oracle, abs=1e-7)

    def test_decreasing_in_determinant(self):
        vals = [dpd_integral(GaussianComponent(np.zeros(2), scale * np.eye(2)).log_det, 2, 0.3)
                for scale in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestComponentBetaObjective:
    def test_single_point_formula(self):
        comp = GaussianComponent([0.0], [[1.0]])
        beta = 0.5
        phi = 1.0 / np.sqrt(2.0 * np.pi)
        expected = phi**beta / beta - dpd_integral(comp.log_det, 1, beta) / (1 + beta)
        got = component_beta_objective(np.array([[0.0]]), comp, beta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_beta_zero_is_mean_loglik(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((30, 2))
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        assert component_beta_objective(data, comp, 0.0) == pytest.approx(
            np.mean(log_density(data, comp)), rel=1e-12)

    def test_small_beta_limit(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((50, 1))
        comp = GaussianComponent([0.1], [[1.2]])
        beta = 1e-6
        obj = component_beta_objective(data, comp, beta)
        constant = 1.0 / beta - dpd_integral(comp.log_det, 1, beta) / (1 + beta)
        mean_loglik = np.mean(log_density(data, comp))
        assert obj - constant == pytest.approx(mean_loglik, abs=1e-4)

    def test_single_observation_maximized_at_point(self):
        x = np.array([[1.7]])
        best = component_beta_objective(x, GaussianComponent([1.7], [[1.0]]), 0.4)
        for mu in (-1.0, 0.0, 1.0, 2.5):
            other = component_beta_objective(x, GaussianComponent([mu], [[1.0]]), 0.4)
            assert other <= best + 1e-12

    def test_empty_data_rejected(self):
        comp = GaussianComponent([0.0], [[1.0]])
        with pytest.raises(ValueError):
            component_beta_objective(np.empty((0, 1)), comp, 0.3)
