"""Full clustering loop: assignment, weights, objective, restarts, outliers."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from mixclust import (
    AlgoConfig,
    ConstraintConfig,
    DegenerateClusteringError,
    DimensionMismatchError,
    GaussianComponent,
    MixtureParams,
    NotPositiveDefiniteError,
    assign,
    detect_outliers,
    fit,
    fit_component,
    fit_single,
    initialize,
    irls_step,
    log_density,
    pseudo_beta_likelihood,
    update_weights,
)
from mixclust.clustering import (ASSIGNMENT_RULES, _m_step, _reseed_empty, _run_restart,
                                 component_fit_score, discriminants)
import mixclust.mdpde as mdpde
from mixclust.gaussian import BLOCK, LOG_2PI, as_data_matrix, cholesky_spd
from oracles import check_constraints, component_beta_objective


def two_comp_params(mu1=0.0, mu2=5.0, v1=1.0, v2=1.0, w1=0.5):
    return MixtureParams(
        weights=np.array([w1, 1.0 - w1]),
        components=[GaussianComponent([mu1], [[v1]]),
                    GaussianComponent([mu2], [[v2]])],
    )


def blob_data(rng, centers, n_per, scale=1.0):
    parts = [c + scale * rng.standard_normal((n_per, np.size(c))) for c in centers]
    return np.vstack(parts)


def weighted_log_densities(data, params):
    """(n, k) oracle ``log(weight_j) + log phi_j(x_i)``, straight from log_density."""
    with np.errstate(divide="ignore"):
        return np.column_stack([np.log(w) + log_density(data, comp)
                                for w, comp in zip(params.weights, params.components)])


def own_log_phi(data, params, labels):
    """Each row's log-density under its own cluster, straight from log_density."""
    logs = np.column_stack([log_density(data, comp) for comp in params.components])
    return logs[np.arange(len(data)), labels]


def assigned_discriminants(data, params):
    """Likelihood-rule labels and each row's weighted density at its label."""
    labels, log_phi = assign(data, params)
    return labels, discriminants(params, labels, log_phi[np.arange(len(data)), labels])


def same_result_bits(a, b) -> bool:
    """Two fit results with the same bytes in every array and the same
    winner, iterations and stability."""
    def arrays(res):
        params = res.params
        return [params.weights, *[c.mean for c in params.components],
                *[c.cov for c in params.components], res.assignments,
                res.outlier_flags, res.discriminants,
                np.array([res.objective, res.selection_score])]

    return (all(x.tobytes() == y.tobytes() for x, y in zip(arrays(a), arrays(b), strict=True))
            and (a.iterations, a.restart_index, a.stable)
            == (b.iterations, b.restart_index, b.stable))


class TestAssign:
    def test_nearer_mean_wins(self):
        labels, _ = assign(np.array([[1.0]]), two_comp_params())
        assert labels[0] == 0

    def test_exact_tie_takes_smallest_index(self):
        labels, _ = assign(np.array([[2.5]]), two_comp_params())
        assert labels[0] == 0

    def test_unequal_weights_shift_boundary(self):
        params = two_comp_params(w1=0.9)
        # closed-form crossing of the two weighted densities (equal variances)
        boundary = 2.5 + np.log(0.9 / 0.1) / 5.0
        xs = np.linspace(2.0, 4.0, 2001)[:, None]
        labels, _ = assign(xs, params)
        flip = xs[np.argmax(labels == 1), 0]
        assert flip == pytest.approx(boundary, abs=2e-3)
        gap = np.diff(weighted_log_densities(np.array([[boundary]]), params), axis=1)
        assert abs(gap[0, 0]) < 1e-10

    def test_discriminant_is_weighted_density(self):
        params = two_comp_params()
        pts = np.array([[0.3], [4.5]])
        labels, disc = assigned_discriminants(pts, params)
        logd = weighted_log_densities(pts, params)
        assert np.allclose(disc, np.exp(logd[np.arange(2), labels]))

    def test_no_single_point_relabel_improves(self):
        rng = np.random.default_rng(3)
        params = two_comp_params(v2=2.0, w1=0.4)
        pts = rng.normal(2.0, 3.0, size=(100, 1))
        labels, _ = assign(pts, params)
        logd = weighted_log_densities(pts, params)
        best = logd[np.arange(100), labels]
        assert np.all(best >= logd.max(axis=1) - 1e-12)

    def test_distance_rule(self):
        params = two_comp_params(v1=100.0, w1=0.99)
        labels, _ = assign(np.array([[4.0]]), params, rule="distance")
        assert labels[0] == 1  # nearest mean, weights and spreads ignored


BLOCK_NS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def tied_mixtures(p, rng):
    """Two mixtures over the same three components, where components 0 and
    1 are one normal (every row ties between them under both rules): equal
    weights, and a zero weight on component 0."""
    a = rng.standard_normal((p, p))
    comps = [GaussianComponent(np.zeros(p), np.eye(p))] * 2 + [
        GaussianComponent(np.full(p, 1.5), a @ a.T + p * np.eye(p))]
    return [MixtureParams(np.array([0.25, 0.25, 0.5]), comps),
            MixtureParams(np.array([0.0, 0.5, 0.5]), comps)]


class TestAssignBlocked:
    """``assign`` against one-shot oracles: the (p, n) GEMM for log phi,
    ``argmax`` of the weighted densities, ``argmin`` of the distances."""

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_bit_identical_to_one_shot(self, n, p):
        rng = np.random.default_rng([n, p])
        x = np.asfortranarray(0.75 + 1.5 * rng.standard_normal((n, p)))
        x[0] = 0.0  # on the twin components' mean
        for params in tied_mixtures(p, rng):
            log_phi = np.empty((n, params.k))
            for j, comp in enumerate(params.components):
                z = np.linalg.inv(comp.chol) @ (x.T - comp.mean[:, None])
                log_phi[:, j] = -0.5 * (p * LOG_2PI + comp.log_det + np.einsum("ij,ij->j", z, z))
            with np.errstate(divide="ignore"):
                likelihood = np.argmax(np.log(params.weights) + log_phi, axis=1)
            distance = np.argmin(np.column_stack(
                [((x.T - c.mean[:, None]) ** 2).sum(0) for c in params.components]), axis=1)
            for rule, expected in (("likelihood", likelihood), ("distance", distance)):
                labels, got = assign(x, params, rule)
                assert labels.dtype == expected.dtype and np.array_equal(labels, expected)
                assert np.array_equal(got, log_phi)
            # the twins tie on every row: the oracles pick 0, or 1 past a zero weight
            zero = int(params.weights[0] == 0.0)
            assert likelihood[0] == zero and not np.any(likelihood == 1 - zero)
            assert distance[0] == 0 and not np.any(distance == 1)

    @pytest.mark.parametrize("rule", ASSIGNMENT_RULES)
    def test_no_full_length_scratch(self, rule):
        n, p, k = 100_000, 8, 2
        rng = np.random.default_rng(5)
        x = np.asfortranarray(rng.standard_normal((n, p)))
        params = MixtureParams(np.array([0.5, 0.5]), [
            GaussianComponent(np.zeros(p), np.eye(p)),
            GaussianComponent(np.ones(p), 2.0 * np.eye(p))])
        tracemalloc.start()
        try:
            assign(x, params, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned (n, k) matrix and labels, the two (p, BLOCK) scratch
        # buffers and the per-block comparison's two (BLOCK,) scores and
        # mask; no (p, n) temporary and no other (n,) vector
        assert peak < (k + 1) * 8 * n + 2 * 8 * (p + 2) * BLOCK + BLOCK


def test_log_weights_of_a_zero_weight_is_minus_inf():
    # The suite turns warnings into errors, so a divide warning would fail here.
    params = MixtureParams(np.array([0.0, 0.25, 0.75]), [GaussianComponent([0.0], [[1.0]])] * 3)
    logw = params.log_weights
    assert logw[0] == -np.inf
    assert logw[1:].tolist() == [np.log(0.25), np.log(0.75)]


class TestWeightsUpdate:
    def test_counts(self):
        a = np.concatenate([np.zeros(30, dtype=int), np.ones(70, dtype=int)])
        assert np.allclose(update_weights(a, 2), [0.3, 0.7])

    def test_single_cluster(self):
        assert np.allclose(update_weights(np.zeros(10, dtype=int), 3), [1, 0, 0])

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            a = rng.integers(0, k, size=int(rng.integers(1, 50)))
            w = update_weights(a, k)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_maximizes_weighted_log_simplex(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 50, size=4).astype(float)

        def neg(w):
            return -float(counts @ np.log(w))

        res = minimize(neg, np.full(4, 0.25), method="SLSQP",
                       bounds=[(1e-9, 1)] * 4,
                       constraints={"type": "eq", "fun": lambda w: w.sum() - 1})
        assert np.allclose(res.x, counts / counts.sum(), atol=1e-6)


class TestObjective:
    def test_single_cluster_collapse(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 1))
        comp = GaussianComponent([0.1], [[1.2]])
        params = MixtureParams(weights=np.array([1.0]), components=[comp])
        labels = np.zeros(40, dtype=int)
        got = pseudo_beta_likelihood(own_log_phi(data, params, labels), params, labels, 0.4)
        assert got == pytest.approx(component_beta_objective(data, comp, 0.4), rel=1e-12)

    def test_far_point_contribution_monotone(self):
        params = two_comp_params()
        base = np.zeros(9)[:, None]
        vals = []
        for far in (3.0, 6.0, 12.0):
            data = np.vstack([base, [[far]]])
            labels = np.zeros(10, dtype=int)
            vals.append(pseudo_beta_likelihood(own_log_phi(data, params, labels), params,
                                               labels, 0.5))
        assert vals[0] > vals[1] > vals[2]

    def test_beta_zero_form(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((30, 1))
        params = two_comp_params()
        labels, _ = assign(data, params)
        got = pseudo_beta_likelihood(own_log_phi(data, params, labels), params, labels, 0.0)
        expected = 0.0
        for j in range(2):
            members = data[labels == j]
            if len(members):
                expected += len(members) * np.log(params.weights[j])
                expected += log_density(members, params.components[j]).sum()
        assert got == pytest.approx(expected / 30, rel=1e-12)

    def test_ascent_over_seeded_runs(self, irls_stop):
        irls_stop(1e-8)
        improved = 0
        for seed in range(50):
            rng = np.random.default_rng([100, seed])
            data = blob_data(rng, [np.zeros(2), np.full(2, 6.0)], 30)
            cfg = AlgoConfig(beta=0.2, n_restarts=2, seed=seed)
            init_params, init_labels = initialize(data, 2, np.random.default_rng([seed, 0]))
            before = pseudo_beta_likelihood(own_log_phi(data, init_params, init_labels),
                                            init_params, init_labels, cfg.beta)
            res = fit(data, 2, cfg)
            after = res.objective
            improved += bool(after >= before)
        assert improved == 50


class TestInitialize:
    def test_every_point_its_own_center(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((6, 2)) * 10
        params, labels = initialize(data, 6, np.random.default_rng(1))
        means = np.stack([c.mean for c in params.components])
        assert {tuple(m) for m in means} == {tuple(row) for row in data}
        assert sorted(labels.tolist()) == sorted(range(6))

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((50, 2))
        p1, a1 = initialize(data, 3, np.random.default_rng(7))
        p2, a2 = initialize(data, 3, np.random.default_rng(7))
        assert np.array_equal(a1, a2)
        for c1, c2 in zip(p1.components, p2.components):
            assert np.array_equal(c1.mean, c2.mean)

    def test_sampled_indices_distinct(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((20, 1))
        for seed in range(10_000):
            params, _ = initialize(data, 5, np.random.default_rng(seed))
            means = np.stack([c.mean for c in params.components])
            assert len({float(m) for m in means[:, 0]}) == 5

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            initialize(np.zeros((2, 1)), 3, np.random.default_rng(0))


class TestMStep:
    @staticmethod
    def two_blobs():
        rng = np.random.default_rng(41)
        data = np.asfortranarray(blob_data(rng, [np.zeros(2), np.full(2, 8.0)], 40))
        return data, np.repeat([0, 1], 40)

    @pytest.mark.parametrize("warm", [False, True])
    def test_inactive_projection_keeps_fitted_components(self, monkeypatch, warm):
        # Unit-scale blobs sit well inside c = 20, c1 = 0.1, so the projection
        # leaves every covariance alone: _m_step returns the fitted components
        # themselves and factors none of their covariances a second time.
        data, labels = self.two_blobs()
        cfg = AlgoConfig(beta=0.2)
        prev = _m_step(data, labels, 2, cfg, None, {}).components if warm else None
        fitted, outside = [], []
        fitting = False

        def counting_fit(members, beta, init=None, max_steps=None):
            nonlocal fitting
            fitting = True
            try:
                result = fit_component(members, beta, init=init, max_steps=max_steps)
            finally:
                fitting = False
            fitted.append(result.estimate)
            return result

        def counting_cholesky(cov):
            if not fitting:
                outside.append(cov)
            return cholesky_spd(cov)

        monkeypatch.setattr("mixclust.clustering.fit_component", counting_fit)
        monkeypatch.setattr("mixclust.gaussian.cholesky_spd", counting_cholesky)
        params = _m_step(data, labels, 2, cfg, prev, {})
        assert len(fitted) == 2
        assert all(got is want for got, want in zip(params.components, fitted))
        assert outside == []

    def test_active_projection_rebuilds_components(self):
        data, labels = self.two_blobs()
        cfg = AlgoConfig(beta=0.2, constraint=ConstraintConfig(c=20.0, c1=4.0))
        fitted = _m_step(data, labels, 2, AlgoConfig(beta=0.2), None, {}).components
        params = _m_step(data, labels, 2, cfg, None, {})
        for got, want in zip(params.components, fitted):
            assert np.array_equal(got.mean, want.mean)
            assert np.linalg.eigvalsh(got.cov).min() >= 4.0 * (1 - 1e-9)


class TestFit:
    def test_k1_equals_component_fit(self, irls_stop):
        irls_stop(1e-10)
        rng = np.random.default_rng(9)
        data = rng.standard_normal((60, 2)) + [1.0, 2.0]
        cfg = AlgoConfig(beta=0.3, n_restarts=1, seed=0)
        res = fit(data, 1, cfg)
        ref = fit_component(data, 0.3).estimate
        assert res.params.weights[0] == 1.0
        assert np.allclose(res.params.components[0].mean, ref.mean, atol=1e-9)
        assert np.allclose(res.params.components[0].cov, ref.cov, atol=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_separated_blobs_zero_errors(self, beta):
        rng = np.random.default_rng(10)
        data = np.concatenate([rng.normal(0, 1, 100), rng.normal(100, 1, 100)])[:, None]
        truth = np.repeat([0, 1], 100)
        res = fit(data, 2, AlgoConfig(beta=beta, n_restarts=5, seed=4))
        pred = res.assignments
        direct = np.sum(pred != truth)
        swapped = np.sum((1 - pred) != truth)
        assert min(direct, swapped) == 0

    @pytest.mark.parametrize("rule", ["likelihood", "distance"])
    def test_memory_layout_keeps_bits(self, rule):
        rng = np.random.default_rng(23)
        data = np.vstack([blob_data(rng, [np.zeros(3), np.full(3, 5.0)], 80),
                          rng.uniform(-20.0, 20.0, (6, 3))])
        cfg = AlgoConfig(beta=0.2, n_restarts=3, seed=2, assignment_rule=rule)
        by_rows = fit(np.ascontiguousarray(data), 2, cfg)
        # and so does the worker count: restarts in 2 and in 3 forked workers
        others = [fit(np.asfortranarray(data), 2, cfg),
                  *(fit(data, 2, cfg, workers=workers) for workers in (2, 4))]
        for other in others:
            assert same_result_bits(by_rows, other)

    def test_restarts_reuse_cold_fits(self, monkeypatch):
        # A restart's first M-step fits each cluster from its members alone,
        # so restarts that start from one cluster share its fit: one cold
        # fit_component call per distinct initial cluster. Every restart's
        # initial clusters here have at least p + 1 members.
        rng = np.random.default_rng(31)
        data = np.asfortranarray(blob_data(rng, [np.zeros(2), np.full(2, 9.0)], 60))
        k, cfg = 2, AlgoConfig(beta=0.2, n_restarts=8, seed=4)
        initial = set()
        for r in range(cfg.n_restarts):
            labels = initialize(data, k, np.random.default_rng([cfg.seed, r]))[1]
            assert np.bincount(labels, minlength=k).min() >= 3
            initial.update(np.packbits(labels == j).tobytes() for j in range(k))
        cold = 0

        def counting(members, beta, init=None, max_steps=None):
            nonlocal cold
            cold += init is None
            return fit_component(members, beta, init=init, max_steps=max_steps)

        with monkeypatch.context() as patch:
            patch.setattr("mixclust.clustering.fit_component", counting)
            shared = fit(data, k, cfg)
        assert cold == len(initial) < k * cfg.n_restarts
        # Reuse is exact: the same bits as restarts that each fit afresh,
        # in one process or in forked workers with a cache apiece.
        results = [fit(data, k, cfg, workers=2)]
        monkeypatch.setattr("mixclust.clustering._run_restart",
                            lambda data, k, cfg, cold_fits, r:
                            _run_restart(data, k, cfg, {}, r))
        results += [fit(data, k, cfg, workers=workers) for workers in (1, 2)]
        for other in results:
            assert same_result_bits(shared, other)

    def test_fits_column_major_data_without_copying(self, monkeypatch):
        seen = []
        real = fit_single

        def recording(data, *args, **kwargs):
            seen.append(data)
            return real(data, *args, **kwargs)

        monkeypatch.setattr("mixclust.clustering.fit_single", recording)
        rng = np.random.default_rng(29)
        data = np.asfortranarray(blob_data(rng, [np.zeros(2), np.full(2, 6.0)], 40))
        fit(data, 2, AlgoConfig(n_restarts=2))
        assert len(seen) == 2 and all(np.shares_memory(x, data) for x in seen)
        # row-major input is stored column-major once, before the restarts
        seen.clear()
        fit(np.ascontiguousarray(data), 2, AlgoConfig(n_restarts=2))
        assert seen[0] is seen[1] and seen[0].flags.f_contiguous

    def test_determinism(self):
        rng = np.random.default_rng(11)
        data = blob_data(rng, [np.zeros(2), np.full(2, 8.0), np.full(2, -8.0)], 40)
        cfg = AlgoConfig(beta=0.2, n_restarts=4, seed=123)
        r1 = fit(data, 3, cfg)
        r2 = fit(data, 3, cfg)
        assert np.array_equal(r1.assignments, r2.assignments)
        assert r1.objective == r2.objective
        assert r1.restart_index == r2.restart_index
        for c1, c2 in zip(r1.params.components, r2.params.components):
            assert np.array_equal(c1.cov, c2.cov)

    def test_label_permutation_same_partition(self):
        rng = np.random.default_rng(12)
        data = blob_data(rng, [np.zeros(2), np.full(2, 7.0)], 50)
        params, _ = initialize(data, 2, np.random.default_rng(3))
        cfg = AlgoConfig(beta=0.2, seed=0)
        out_a = fit_single(data, 2, cfg, assign(data, params, cfg.assignment_rule)[0])
        flipped = MixtureParams(weights=params.weights[::-1].copy(),
                                components=list(params.components[::-1]))
        out_b = fit_single(data, 2, cfg, assign(data, flipped, cfg.assignment_rule)[0])
        part_a = {frozenset(np.flatnonzero(out_a["assignments"] == j)) for j in range(2)}
        part_b = {frozenset(np.flatnonzero(out_b["assignments"] == j)) for j in range(2)}
        assert part_a == part_b

    def test_result_invariants(self):
        rng = np.random.default_rng(13)
        data = blob_data(rng, [np.zeros(2), np.full(2, 6.0), np.full(2, -6.0)], 50)
        cfg = AlgoConfig(beta=0.25, n_restarts=5, seed=5)
        res = fit(data, 3, cfg)
        ok, _, _ = check_constraints([c.cov for c in res.params.components],
                                     cfg.constraint)
        assert ok
        log_phi = own_log_phi(data, res.params, res.assignments)
        recomputed = pseudo_beta_likelihood(log_phi, res.params, res.assignments, cfg.beta)
        assert res.objective == pytest.approx(recomputed, rel=1e-12)
        score = component_fit_score(log_phi, res.params, res.assignments, cfg.beta)
        assert res.selection_score == pytest.approx(score, rel=1e-12)
        assert res.params.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, bad):
        data = np.arange(12.0).reshape(6, 2)
        data[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(data, 2, AlgoConfig(n_restarts=1))

    def test_rejects_3d_data(self):
        with pytest.raises(DimensionMismatchError):
            fit(np.zeros((4, 3, 2)), 2, AlgoConfig(n_restarts=1))

    def test_rejects_zero_columns(self):
        with pytest.raises(DimensionMismatchError, match="p >= 1"):
            fit(np.zeros((10, 0)), 2, AlgoConfig(n_restarts=1))

    def test_data_checked_once(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(1)
            return as_data_matrix(data)

        monkeypatch.setattr("mixclust.clustering.as_data_matrix", counting)
        rng = np.random.default_rng(17)
        data = blob_data(rng, [np.zeros(2), np.full(2, 6.0)], 30)
        fit(data, 2, AlgoConfig(beta=0.2, n_restarts=3, seed=0))
        assert len(calls) == 1

    # Fits whose last iteration reseeds an emptied cluster: the row moved
    # there must carry that cluster's discriminant, stable fit or capped.
    @pytest.mark.parametrize("seed,max_outer_iter", [(2397, 100), (171, 2), (3679, 100)])
    def test_discriminants_belong_to_written_cluster(self, monkeypatch, seed, max_outer_iter):
        moved = []

        def recording_reseed(labels, params, log_phi, reseeds):
            before = labels.copy()
            out = _reseed_empty(labels, params, log_phi, reseeds)
            moved.append(not np.array_equal(before, labels))
            return out

        monkeypatch.setattr("mixclust.clustering._reseed_empty", recording_reseed)
        rng = np.random.default_rng(seed)
        data = np.vstack([rng.normal(0, 1, (25, 2)), rng.normal(4, 1, (25, 2))])
        cfg = AlgoConfig(n_restarts=1, seed=seed, max_outer_iter=max_outer_iter)
        res = fit(data, 4, cfg)
        assert moved[-1] and res.stable == (max_outer_iter == 100)
        labels = res.assignments
        expected = np.exp(weighted_log_densities(data, res.params)[np.arange(50), labels])
        np.testing.assert_allclose(res.discriminants, expected, rtol=1e-12, atol=0)
        assert np.array_equal(res.outlier_flags,
                              len(data) * res.discriminants <= cfg.outlier_threshold)

    def test_memory_does_not_grow_with_restarts(self):
        # While a restart runs, only the best finished outcome is kept, so 4
        # restarts peak as 2 do. Keeping restart r - 1's outcome as well
        # adds one outcome (n labels and n own-cluster log-densities, 16
        # bytes a row) from the third restart on; the bound is half that.
        # Unequal blobs make a restart's working set, not the winner's final
        # evaluation, the peak.
        rng = np.random.default_rng(23)
        data = np.asfortranarray(np.vstack([rng.standard_normal((24_000, 3)),
                                            8.0 + rng.standard_normal((16_000, 3))]))
        peaks = []
        for restarts in (2, 4):
            tracemalloc.start()
            try:
                fit(data, 2, AlgoConfig(n_restarts=restarts, seed=0), workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n = len(data)
        assert peaks[1] - peaks[0] < 8 * n

    def test_final_mixture_evaluated_once_per_restart(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return log_density(*args)

        real = fit_single
        iterations = []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            iterations.append(out["iterations"])
            return out

        monkeypatch.setattr("mixclust.clustering.log_density", counting)
        monkeypatch.setattr("mixclust.clustering.fit_single", recording)
        rng = np.random.default_rng(19)
        data = blob_data(rng, [np.zeros(2), np.full(2, 6.0), np.full(2, -6.0)], 30)
        k, restarts = 3, 4
        fit(data, k, AlgoConfig(beta=0.2, n_restarts=restarts, seed=0))
        # one assignment per initialization and per outer iteration, nothing more
        assert len(iterations) == restarts
        assert len(calls) == k * (restarts + sum(iterations))

    @staticmethod
    def _patch_restarts(monkeypatch, change):
        """Run every restart for real, but pass restart r's outcome through
        ``change(r, outcome)``. The patch is made before any fork, so it
        holds in forked workers too. (Initial labels cannot tell restarts
        apart: two restarts may start from one partition.)"""
        real = _run_restart
        monkeypatch.setattr("mixclust.clustering._run_restart",
                            lambda data, k, cfg, cold_fits, r:
                            change(r, real(data, k, cfg, cold_fits, r)))

    @classmethod
    def _nudged_restarts(cls, monkeypatch, nudge):
        """Make restart 0 degenerate and add ``nudge(r, score)`` to the
        selection score of restart r. Returns the outcomes, by restart, of
        the restarts run in this process."""
        outcomes = {}

        def change(r, out):
            out = dict(out)
            if r == 0:
                out = {"degenerate": True, "iterations": out["iterations"]}
            else:
                out["selection_score"] += nudge(r, out["selection_score"])
            outcomes[r] = out
            return out

        cls._patch_restarts(monkeypatch, change)
        return outcomes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restart_ties_keep_earliest(self, monkeypatch, workers):
        # Later restarts reach the same fixed point and score a few ulp
        # higher, as rounding in a label-dependent order makes them do.
        rng = np.random.default_rng(18)
        data = blob_data(rng, [np.zeros(2), np.full(2, 9.0)], 40)
        cfg = AlgoConfig(beta=0.2, n_restarts=5, seed=0)
        outcomes = self._nudged_restarts(monkeypatch, lambda r, s: r * abs(np.spacing(s)))
        fit(data, 2, cfg)  # records every restart's outcome in this process
        partitions = {frozenset(frozenset(np.flatnonzero(outcomes[r]["assignments"] == j))
                                for j in range(2)) for r in range(1, 5)}
        assert len(partitions) == 1
        assert outcomes[4]["selection_score"] > outcomes[1]["selection_score"]
        assert fit(data, 2, cfg, workers=workers).restart_index == 1

    def test_genuinely_better_restart_wins(self, monkeypatch):
        rng = np.random.default_rng(18)
        data = blob_data(rng, [np.zeros(2), np.full(2, 9.0)], 40)
        cfg = AlgoConfig(beta=0.2, n_restarts=5, seed=0)
        self._nudged_restarts(monkeypatch, lambda r, s: 1e-9 * max(1.0, abs(s)) if r == 3 else 0.0)
        assert fit(data, 2, cfg).restart_index == 3

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", [2, None])
    def test_restart_failures_reach_caller(self, monkeypatch, workers, failing):
        # failing=r: restart r raises a typed error, which reaches the caller
        # with its own type; failing=None: every restart degenerates.
        def change(r, out):
            if failing is None:
                return {"degenerate": True, "iterations": out["iterations"]}
            if r == failing:
                raise NotPositiveDefiniteError(f"restart {r}")
            return out

        rng = np.random.default_rng(21)
        data = blob_data(rng, [np.zeros(2), np.full(2, 9.0)], 40)
        cfg = AlgoConfig(beta=0.2, n_restarts=4, seed=0)
        self._patch_restarts(monkeypatch, change)
        raised, match = ((DegenerateClusteringError, "every restart") if failing is None
                         else (NotPositiveDefiniteError, f"restart {failing}"))
        with pytest.raises(raised, match=match):
            fit(data, 2, cfg, workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_worker_count_below_one(self, workers):
        with pytest.raises(ValueError, match="workers"):
            fit(np.arange(12.0).reshape(6, 2), 2, AlgoConfig(n_restarts=2), workers=workers)

    def test_needs_k_points(self):
        with pytest.raises(ValueError):
            fit(np.zeros((2, 1)), 3, AlgoConfig())

    def test_every_m_step_builds_valid_params(self, monkeypatch):
        # MixtureParams checks nothing, so every one _m_step builds in a
        # serial fit is checked here, those from reseeded labels included.
        built, emptied = [], []

        def recording_m_step(*args):
            params = _m_step(*args)
            built.append((params, bool(emptied) and emptied[-1]))
            return params

        def recording_reseed(labels, params, log_phi, reseeds):
            emptied.append(np.bincount(labels, minlength=params.k).min() == 0)
            return _reseed_empty(labels, params, log_phi, reseeds)

        monkeypatch.setattr("mixclust.clustering._m_step", recording_m_step)
        monkeypatch.setattr("mixclust.clustering._reseed_empty", recording_reseed)
        rng = np.random.default_rng(140)
        data = np.vstack([rng.normal(0, 1, (25, 2)), rng.normal(4, 1, (25, 2))])
        fit(data, 4, AlgoConfig(n_restarts=4, seed=140), workers=1)
        assert any(after_reseed for _, after_reseed in built)
        for params, _ in built:
            assert params.weights.shape == (len(params.components),) == (4,)
            assert np.all(params.weights >= 0.0)
            assert abs(params.weights.sum() - 1.0) <= 1e-12
            assert {comp.dim for comp in params.components} == {2}

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_fit_is_a_converged_refit(self, seed):
        # Warm fits are capped while the labels move, but a restart stops only
        # after an M-step the cap did not cut. So with the projection inactive
        # (c = 1e8), one more IRLS step on each cluster's members moves its
        # returned component by at most IRLS_TOL.
        rng = np.random.default_rng(seed)
        data = np.vstack([blob_data(rng, [np.zeros(3), np.full(3, 4.0), np.full(3, -4.0)], 60),
                          rng.uniform(-12.0, 12.0, (20, 3))])
        cfg = AlgoConfig(beta=0.3, n_restarts=3, seed=seed,
                         constraint=ConstraintConfig(c=1e8, c1=1e-8))
        res = fit(data, 3, cfg)
        assert res.stable
        for j, comp in enumerate(res.params.components):
            step = irls_step(data[res.assignments == j], comp, cfg.beta)
            assert np.linalg.norm(step.mean - comp.mean) <= mdpde.IRLS_TOL
            assert np.linalg.norm(step.cov - comp.cov) <= mdpde.IRLS_TOL

    def test_empty_cluster_reseeded_keeps_k(self):
        # two tight blobs, k=3: one cluster must be reseeded or carved out
        rng = np.random.default_rng(14)
        data = blob_data(rng, [np.zeros(2), np.full(2, 9.0)], 30, scale=0.5)
        res = fit(data, 3, AlgoConfig(beta=0.1, n_restarts=6, seed=2))
        assert res.params.k == 3
        assert np.isfinite(res.objective)


class TestDetectOutliers:
    def test_boundary_inclusive(self):
        params = two_comp_params()
        data = np.array([[0.0], [5.0]])
        _, disc = assigned_discriminants(data, params)
        threshold = float(disc[0]) * len(data)
        assert detect_outliers(disc, threshold)[0]

    def test_zero_threshold_flags_nothing(self):
        rng = np.random.default_rng(15)
        params = two_comp_params()
        data = rng.normal(0, 5, size=(50, 1))
        _, disc = assigned_discriminants(data, params)
        assert not detect_outliers(disc, 0.0).any()

    def test_scaled_vs_raw_rule(self):
        params = two_comp_params()
        data = np.vstack([np.zeros((99, 1)), [[30.0]]])
        _, disc = assigned_discriminants(data, params)
        raw_threshold = float(disc[-1]) * 2.0
        # scaling by n=100 lifts the score above T
        assert not detect_outliers(disc, raw_threshold)[-1]
        assert detect_outliers(disc, float(disc[-1]) * len(data))[-1]

    def test_far_blob_flagged_and_typed(self):
        rng = np.random.default_rng(16)
        data = np.vstack([
            blob_data(rng, [np.zeros(2), np.full(2, 7.0)], 80),
            np.full((8, 2), 25.0) + 0.1 * rng.standard_normal((8, 2)),
        ])
        res = fit(data, 2, AlgoConfig(beta=0.3, outlier_threshold=1e-6,
                                      n_restarts=5, seed=1))
        assert res.outlier_flags[-8:].all()
        assert not res.outlier_flags[:160].any()
        # a flagged row keeps its cluster: the far blob types as the nearer
        # blob's cluster, not the other one
        near, other = res.assignments[80], res.assignments[0]
        assert near != other
        assert np.all(res.assignments[res.outlier_flags] == near)
