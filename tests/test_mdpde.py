"""Single-component robust fitting: weights, updates, fixed points, oracles."""

import numpy as np
import pytest

from mixclust import (
    GaussianComponent,
    NonPositiveDenominatorError,
    NotPositiveDefiniteError,
    fit_component,
    irls_step,
    irls_weights,
    log_density,
    robust_init,
)
import mixclust.mdpde as mdpde
from mixclust.mdpde import MIN_DENOMINATOR
from oracles import component_beta_objective, estimating_equation_residual


@pytest.fixture
def tight(irls_stop):
    """A stop tight enough for the fixed-point accuracy these tests assert."""
    irls_stop(1e-11, 3000)


class TestRobustInit:
    def test_three_point_line(self):
        comp = robust_init(np.array([[-1.0], [0.0], [1.0]]))
        assert comp.mean[0] == pytest.approx(0.0)
        # centered squares are {1, 0, 1}; their median is 1, far above the floor
        assert comp.cov[0, 0] == pytest.approx(1.4826**2)

    def test_constant_coordinate_floored(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.standard_normal(50), np.full(50, 3.0)])
        comp = robust_init(data)
        # the constant coordinate's zero eigenvalue is raised to the floor
        floor = max(MIN_DENOMINATOR * np.trace(comp.cov), 1e-12)
        assert np.linalg.eigvalsh(comp.cov)[0] == pytest.approx(floor, rel=1e-6)

    def test_mad_consistency(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((10000, 2))
        comp = robust_init(data)
        assert np.all(np.abs(np.diag(comp.cov) - 1.0) < 0.1)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            robust_init(np.array([[1.0, 2.0]]))


class TestWeights:
    def test_beta_zero_all_ones(self):
        rng = np.random.default_rng(1)
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        w = irls_weights(rng.standard_normal((20, 2)), comp, 0.0)
        assert np.all(w == 1.0)

    def test_weight_one_at_mean(self):
        comp = GaussianComponent([2.0], [[3.0]])
        assert irls_weights(np.array([[2.0]]), comp, 0.7)[0] == 1.0

    def test_formula_value(self):
        comp = GaussianComponent([0.0], [[1.0]])
        w = irls_weights(np.array([[2.0]]), comp, 0.5)
        assert w[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_monotone_in_distance(self):
        comp = GaussianComponent([0.0], [[1.0]])
        xs = np.linspace(0.0, 5.0, 40)[:, None]
        w = irls_weights(xs, comp, 0.3)
        assert np.all(np.diff(w) < 0)
        assert np.all((w > 0) & (w <= 1))


class TestIrlsStep:
    def test_beta_zero_gives_mle(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((60, 3)) + [1.0, -2.0, 0.5]
        start = GaussianComponent(np.zeros(3), np.eye(3))
        new = irls_step(data, start, 0.0)
        mean = data.mean(axis=0)
        centered = data - mean
        assert np.allclose(new.mean, mean, atol=1e-12)
        assert np.allclose(new.cov, centered.T @ centered / len(data), atol=1e-12)

    def test_symmetric_data_keeps_center(self):
        data = np.array([[-1.0], [0.0], [1.0]])
        start = GaussianComponent([0.0], [[1.0]])
        new = irls_step(data, start, 0.6)
        assert new.mean[0] == pytest.approx(0.0, abs=1e-15)

    def test_denominator_guard(self):
        # near-singular start concentrates all weight on one point
        data = np.array([[0.0], [100.0], [200.0]])
        start = GaussianComponent([0.0], [[1e-4]])
        with pytest.raises(NonPositiveDenominatorError):
            irls_step(data, start, 1.0)

    @pytest.mark.usefixtures("tight")
    def test_contaminated_location_contrast(self):
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.standard_normal(95), np.full(5, 50.0)])[:, None]
        robust = fit_component(data, 0.3).estimate
        plain = fit_component(data, 0.0).estimate
        assert abs(robust.mean[0]) <= 0.15
        assert plain.mean[0] >= 2.0


class TestFitComponent:
    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            fit_component(np.array([[1.0]]), 0.3)

    def test_beta_zero_reduction_exact(self, irls_stop):
        irls_stop(1e-9)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 2)) @ np.array([[1.0, 0.2], [0.0, 0.7]]) + 3.0
        out = fit_component(data, 0.0)
        assert out.converged
        mean = data.mean(axis=0)
        centered = data - mean
        assert np.allclose(out.estimate.mean, mean, atol=1e-8)
        assert np.allclose(out.estimate.cov, centered.T @ centered / len(data), atol=1e-8)

    @pytest.mark.usefixtures("tight")
    def test_pure_gaussian_estimates(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((500, 2))
        out = fit_component(data, 0.3)
        assert out.converged
        assert np.linalg.norm(out.estimate.mean) <= 0.2
        assert np.linalg.norm(out.estimate.cov - np.eye(2)) <= 0.35

    @pytest.mark.usefixtures("tight")
    def test_grid_oracle_1d(self):
        rng = np.random.default_rng(21)
        data = rng.normal(1.0, 1.5, size=50)[:, None]
        beta = 0.3
        out = fit_component(data, beta)
        mus = np.linspace(0.0, 2.0, 161)
        sig2s = np.exp(np.linspace(np.log(0.5), np.log(5.0), 161))
        best, arg = -np.inf, None
        for mu in mus:
            for s2 in sig2s:
                val = component_beta_objective(data, GaussianComponent([mu], [[s2]]), beta)
                if val > best:
                    best, arg = val, (mu, s2)
        dmu = mus[1] - mus[0]
        assert abs(out.estimate.mean[0] - arg[0]) <= dmu
        ratio = sig2s[1] / sig2s[0]
        assert arg[1] / ratio <= out.estimate.cov[0, 0] <= arg[1] * ratio

    def test_nonconvergence_reported(self, irls_stop):
        irls_stop(1e-14, 1)
        rng = np.random.default_rng(5)
        data = rng.standard_normal((50, 2))
        out = fit_component(data, 0.5)
        assert not out.converged
        assert out.iterations == 1

    @pytest.mark.usefixtures("tight")
    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((200, 2))
        amat = np.array([[1.5, 0.4], [-0.3, 0.8]])
        shift = np.array([2.0, -1.0])
        base = fit_component(data, 0.3).estimate
        moved = fit_component(data @ amat.T + shift, 0.3).estimate
        assert np.allclose(moved.mean, amat @ base.mean + shift, atol=1e-8)
        assert np.allclose(moved.cov, amat @ base.cov @ amat.T, atol=1e-8)

    @pytest.mark.usefixtures("tight")
    def test_warm_start_used(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((80, 2))
        warm = fit_component(data, 0.2).estimate
        again = fit_component(data, 0.2, init=warm)
        assert again.iterations <= 2


class TestEstimatingEquations:
    def test_zero_at_mle_for_beta_zero(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((70, 2)) + [0.5, -0.5]
        mean = data.mean(axis=0)
        centered = data - mean
        comp = GaussianComponent(mean, centered.T @ centered / len(data))
        vec, mat = estimating_equation_residual(data, comp, 0.0)
        assert np.linalg.norm(vec) < 1e-10
        assert np.linalg.norm(mat) < 1e-10

    @pytest.mark.usefixtures("tight")
    def test_perturbation_sign(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal(60)[:, None]
        fitted = fit_component(data, 0.4).estimate
        shifted = GaussianComponent(fitted.mean + 0.5, fitted.cov)
        vec, _ = estimating_equation_residual(data, shifted, 0.4)
        assert vec[0] < 0  # pulls the shifted mean back down

    @pytest.mark.usefixtures("tight")
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5])
    def test_zero_at_irls_fixed_point(self, beta):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((120, 2)) * 1.4 + [1.0, 2.0]
        out = fit_component(data, beta)
        vec, mat = estimating_equation_residual(data, out.estimate, beta)
        n = len(data)
        assert np.linalg.norm(vec) <= 1e-6 * n
        assert np.linalg.norm(mat) <= 1e-6 * n

    def test_exponential_form_proportional(self):
        # the exponential-weight residuals equal the phi^beta residuals up to
        # the constant (2 pi)^(p beta / 2) det^{beta/2}
        rng = np.random.default_rng(14)
        data = rng.standard_normal((50, 2))
        comp = GaussianComponent(np.array([0.2, -0.1]), np.array([[1.1, 0.2], [0.2, 0.9]]))
        beta = 0.35
        n, p = data.shape
        w = irls_weights(data, comp, beta)
        centered = data - comp.mean
        exp_vec = (w[:, None] * centered).mean(axis=0)
        exp_mat = (w.mean() * comp.cov
                   - np.einsum("n,ni,nj->ij", w, centered, centered) / n
                   - beta / (1 + beta) ** (p / 2 + 1) * comp.cov)
        vec, mat = estimating_equation_residual(data, comp, beta)
        const = np.exp(-0.5 * beta * (p * np.log(2 * np.pi) + comp.log_det))
        assert np.allclose(vec, const * exp_vec, atol=1e-10)
        assert np.allclose(mat, const * exp_mat, atol=1e-10)

    def test_weights_monotone_decreasing_in_density_distance(self):
        rng = np.random.default_rng(15)
        comp = GaussianComponent(np.zeros(2), np.eye(2))
        pts = rng.standard_normal((100, 2)) * 2
        w = irls_weights(pts, comp, 0.25)
        logs = log_density(pts, comp)
        order = np.argsort(logs)
        assert np.all(np.diff(w[order]) >= 0)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike ``array_equal``, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def row_major_step(data, comp, beta):
    """One reweighted step in the (n, p) operand order the kernels once used:
    GEMMs with the points as rows and sums along each row."""
    n, p = data.shape
    z = (data - comp.mean) @ np.linalg.inv(comp.chol).T
    w = np.exp(-0.5 * beta * np.einsum("ij,ij->i", z, z))
    denom = w.sum() - n * beta / (1.0 + beta) ** (0.5 * p + 1.0)
    mean = (w @ data) / w.sum()
    centered = data - mean
    return mean, (w[:, None] * centered).T @ centered / denom


def relative_gap(got, want) -> float:
    """Largest entrywise difference over the largest entry of ``want``."""
    gap = float(np.max(np.abs(got - want)))
    return 0.0 if gap == 0.0 else gap / float(np.max(np.abs(want)))


class AllocatingIrls:
    """The reweighted iteration written plainly: fresh temporaries every step,
    a validated ``GaussianComponent`` per iterate and ``np.linalg.norm``
    deltas. ``fit_component`` works in reused buffers and trusts its own
    iterates; it must reproduce this bit for bit. Both compute on the
    transpose of column-major data, a (p, n) array whose rows are the
    coordinates. Records which paths ran, and how far each step's mean and
    unfloored covariance are from :func:`row_major_step`'s."""

    def __init__(self):
        self.floored = 0
        self.guard_tripped = False
        self.row_major_gap = 0.0

    def step(self, data, comp, beta):
        n, p = data.shape
        cols = data.T
        z = np.linalg.inv(comp.chol) @ (cols - comp.mean[:, None])
        w = np.exp(-0.5 * beta * np.einsum("ij,ij->j", z, z))
        denom = w.sum() - n * beta / (1.0 + beta) ** (0.5 * p + 1.0)
        if denom <= MIN_DENOMINATOR * n:
            raise NonPositiveDenominatorError("below guard")
        mean = (cols @ w) / w.sum()
        centered = cols - mean[:, None]
        cov = (centered * w) @ centered.T / denom
        old_mean, old_cov = row_major_step(data, comp, beta)
        self.row_major_gap = max(self.row_major_gap, relative_gap(mean, old_mean),
                                 relative_gap(cov, old_cov))
        floor = max(1e-12 * max(np.trace(cov), 0.0), 1e-12)
        cov = 0.5 * (cov + cov.T)
        try:
            return GaussianComponent(mean, cov)
        except NotPositiveDefiniteError:
            self.floored += 1
            vals, vecs = np.linalg.eigh(cov)
            fixed = (vecs * np.maximum(vals, floor)) @ vecs.T
            return GaussianComponent(mean, 0.5 * (fixed + fixed.T))

    def fit(self, data, beta, init):
        comp, converged, iterations = init, False, 0
        for iterations in range(1, mdpde.IRLS_MAX_ITER + 1):
            try:
                new = self.step(data, comp, beta)
            except NonPositiveDenominatorError:
                self.guard_tripped = True
                if iterations == 1:
                    raise
                iterations -= 1
                break
            if beta == 0.0:
                # every weight is 1: the first step is the fixed point
                comp, converged = new, True
                break
            delta_mean = float(np.linalg.norm(new.mean - comp.mean))
            delta_cov = float(np.linalg.norm(new.cov - comp.cov))
            comp = new
            if delta_mean <= mdpde.IRLS_TOL and delta_cov <= mdpde.IRLS_TOL:
                converged = True
                break
        return comp, iterations, converged


def median_robust_init(data):
    """``robust_init`` written with ``np.median``."""
    n, p = data.shape
    center = np.median(data, axis=0)
    dev = data - center
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = np.median(dev[:, i] * dev[:, j])
    cov *= 1.4826**2
    floor = max(MIN_DENOMINATOR * max(np.trace(cov), 0.0), 1e-12)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    rebuilt = (vecs * np.maximum(vals, floor)) @ vecs.T
    return center, 0.5 * (rebuilt + rebuilt.T)


def contaminated(seed, n, p):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, p)
    data[:, 0] += 0.5 * data[:, -1]
    data[: n // 10] += 8.0
    return data


class TestBitIdentity:
    def assert_matches_oracle(self, data, beta, init=None):
        # column-major, as clustering.fit passes its data
        data = np.asfortranarray(data)
        oracle = AllocatingIrls()
        start = init if init is not None else robust_init(data)
        want, iterations, converged = oracle.fit(data, beta, start)
        got = fit_component(data, beta, init=init)
        assert same_bits(got.estimate.mean, want.mean)
        assert same_bits(got.estimate.cov, want.cov)
        assert (got.iterations, got.converged) == (iterations, converged)
        # the operand order moves only the last bits of every step
        assert oracle.row_major_gap <= 1e-12
        if beta == 0.0:
            # the one-step rule: a second step repeats the first bit for bit
            again = oracle.step(data, want, beta)
            assert same_bits(again.mean, want.mean) and same_bits(again.cov, want.cov)
        return oracle, got

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("p", [1, 6])
    def test_cold_start(self, beta, p):
        _, got = self.assert_matches_oracle(contaminated(31 + p, 400, p), beta)
        assert got.iterations == 1 if beta == 0.0 else got.iterations > 1

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_warm_start(self, beta):
        data = contaminated(37, 250, 3)
        warm = GaussianComponent(np.ones(3), 2.0 * np.eye(3))
        self.assert_matches_oracle(data, beta, init=warm)

    def test_rank_deficient_cluster_takes_floor(self):
        rng = np.random.default_rng(41)
        data = np.column_stack([rng.standard_normal((60, 2)), np.full(60, 3.0)])
        oracle, _ = self.assert_matches_oracle(data, 0.3)
        assert oracle.floored > 0

    def test_guard_on_first_step_raises(self):
        data = np.array([[0.0], [100.0], [200.0]])
        start = GaussianComponent([0.0], [[1e-4]])
        with pytest.raises(NonPositiveDenominatorError):
            AllocatingIrls().fit(data, 1.0, start)
        with pytest.raises(NonPositiveDenominatorError):
            fit_component(data, 1.0, init=start)

    def test_guard_on_later_step_keeps_last_iterate(self):
        # Twelve points at +-2 e_i in 6-D: from this start the iteration
        # moves for a while, then the weights sum below n*beta/(1+beta)**4.
        data = np.vstack([np.eye(6), -np.eye(6)]) * 2.0
        start = GaussianComponent(np.zeros(6), np.eye(6))
        oracle, got = self.assert_matches_oracle(data, 1.0, init=start)
        assert oracle.guard_tripped
        assert got.iterations > 1 and not got.converged

    @pytest.mark.parametrize("n", [50, 51])
    def test_robust_init_matches_np_median(self, n):
        # Small integers and signed zeros: many medians are exactly zero,
        # reached from both 0.0 and -0.0, so a tie that a partition resolves
        # differently from np.median shows in the sign bit.
        rng = np.random.default_rng(n)
        data = rng.integers(-2, 3, (n, 4)).astype(float)
        data[rng.random((n, 4)) < 0.25] = -0.0
        data[:, 3] = rng.standard_normal(n)
        comp = robust_init(data)
        center, cov = median_robust_init(data)
        assert same_bits(comp.mean, center)
        assert same_bits(comp.cov, cov)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 1000, 1001])
    @pytest.mark.parametrize("shape", [(), (4,)], ids=["1-D", "(p, n)"])
    def test_median_matches_np_median(self, n, shape):
        # Even n takes the lower middle value as the largest of the first
        # half after one partition: tie-heavy integers, signed zeros alone
        # and continuous values must all keep np.median's bits.
        rng = np.random.default_rng(n)
        size = (*shape, n)
        ties = rng.integers(-2, 3, size).astype(float)
        ties[rng.random(size) < 0.25] = -0.0
        for a in (ties, rng.choice([0.0, -0.0], size), rng.standard_normal(size)):
            want = np.median(a, axis=-1)
            assert same_bits(mdpde._median(a.copy()), want)
