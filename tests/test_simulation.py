"""Generators, contamination schemes, metrics and the experiment driver."""

import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtri
from scipy.stats import chi2, kstest

from mixclust import (
    AlgoConfig,
    DegenerateClusteringError,
    GaussianComponent,
    MixtureParams,
    SamplingError,
    bias_mse,
    generate,
    regular_misclassification,
    run_experiment,
    undetected_outlier_proportion,
)
from mixclust import simulation
from mixclust.clustering import ClusteringResult, default_threshold
from mixclust.simulation import (
    ScenarioSpec,
    aggregate_rows,
    chisq_cutoff,
    contaminate_uniform_chisq,
)
from oracles import openblas_thread_counts


def make_result(assignments, flags, k=3, p=2):
    n = len(assignments)
    params = MixtureParams(
        weights=np.full(k, 1.0 / k),
        components=[GaussianComponent(np.full(p, float(j)), np.eye(p)) for j in range(k)],
    )
    assignments = np.asarray(assignments, dtype=int)
    flags = np.asarray(flags, dtype=bool)
    return ClusteringResult(
        params=params, assignments=assignments, outlier_flags=flags, objective=0.0,
        iterations=1, restart_index=0, discriminants=np.ones(n), stable=True)


class TestSpecs:
    def test_default_design_pure(self):
        spec = ScenarioSpec(p=4)
        assert spec.weights.sum() == pytest.approx(1.0)
        assert spec.means.shape == (3, 4)
        assert spec.n_outliers == 0

    def test_default_design_contaminated(self):
        spec = ScenarioSpec(p=2, contamination="annulus")
        assert spec.weights.sum() == pytest.approx(0.9)
        assert spec.n_outliers == 100

    def test_default_design_values(self):
        spec = ScenarioSpec(p=2)
        assert (spec.n, spec.k, spec.cov_scale, spec.replications, spec.seed) == \
            (1000, 3, 1.0, 20, 0)
        assert np.array_equal(spec.means, [[0.0, 0.0], [5.0, 5.0], [-5.0, -5.0]])
        assert np.array_equal(spec.weights, [0.33, 0.33, 0.34])
        assert spec.contamination_level == 0.0
        contaminated = ScenarioSpec(p=2, contamination="outlying_cluster")
        assert np.array_equal(contaminated.weights, [0.3, 0.3, 0.3])
        assert contaminated.contamination_level == 0.1

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ScenarioSpec(1000, 2)

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=100, p=2, k=2, means=np.zeros((2, 2)), cov_scale=1.0,
                         weights=np.array([0.5, 0.5]), contamination="annulus",
                         contamination_level=0.1)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, np.nan], np.nan])
    def test_one_finite_weight_per_cluster(self, weights):
        # a wrong count or a NaN, whose sum no tolerance comparison can fail
        with pytest.raises(ValueError, match="weights must be 2 values"):
            ScenarioSpec(n=100, p=2, k=2, means=np.zeros((2, 2)), cov_scale=1.0,
                         weights=weights)

    @pytest.mark.parametrize("field, message", [
        ({"p": 0}, "p and k must be at least 1, got p=0"),
        ({"k": 0}, "p and k must be at least 1, got p=2 and k=0"),
        ({"n": 0}, "n must be at least k=2"), ({"n": 1}, "n must be at least k=2"),
        ({"cov_scale": np.nan}, "cov_scale must be finite"),
        ({"cov_scale": np.inf}, "cov_scale must be finite"),
        ({"cov_scale": 0.0}, "cov_scale must be finite and positive"),
        ({"means": [[np.nan, 0.0], [7.0, 7.0]]}, "means must be finite"),
        ({"means": [[0.0, 0.0], [7.0, -np.inf]]}, "means must be finite"),
        ({"means": [[0.0, 0.0]]}, r"means must hold k \* p = 4 values"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"means": None}, "means and weights must be given unless k = 3"),
        ({"weights": None}, "means and weights must be given unless k = 3"),
        ({"means": "abc"}, "means must be numbers, got 'abc'"),
        ({"weights": {"a": 1}}, "weights must be numbers"),
        ({"weights": [1.3, -0.3]}, "weights must be nonnegative"),
    ])
    def test_field_checked_before_sampling(self, field, message):
        # each message names its field, and p = 0 never reaches the reshape
        good = dict(n=100, p=2, k=2, means=np.zeros((2, 2)), cov_scale=1.0,
                    weights=[0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(**(good | field))

    def test_zero_weight_allowed(self):
        spec = ScenarioSpec(p=2, n=200, weights=[0.5, 0.5, 0.0])
        _, labels = generate(spec, np.random.default_rng(0))
        assert not np.any(labels == 2)

    def test_default_thresholds(self):
        assert default_threshold(2) == 1e-3
        assert default_threshold(10) == 1e-24


SCHEMES = ("uniform_chisq", "annulus", "outlying_cluster")


class TestGenerators:
    def test_label_frequencies(self):
        spec = ScenarioSpec(p=2, n=5000, seed=1)
        _, labels = generate(spec, np.random.default_rng(1))
        for j, w in enumerate(spec.weights):
            freq = np.mean(labels == j)
            bound = 3 * np.sqrt(w * (1 - w) / spec.n)
            assert abs(freq - w) <= bound

    def test_cluster_means_clt(self):
        spec = ScenarioSpec(p=3, n=3000, seed=2)
        data, labels = generate(spec, np.random.default_rng(2))
        for j in range(3):
            pts = data[labels == j]
            bound = 3 * np.sqrt(spec.cov_scale / len(pts))
            assert np.all(np.abs(pts.mean(axis=0) - spec.means[j]) <= bound)

    def test_determinism(self):
        spec = ScenarioSpec(p=2, seed=5)
        d1, _ = generate(spec, np.random.default_rng([5, 0]))
        d2, _ = generate(spec, np.random.default_rng([5, 0]))
        assert np.array_equal(d1, d2)

    def test_chisq_acceptance_property(self):
        spec = ScenarioSpec(p=2, contamination="uniform_chisq", n=2000, seed=3)
        data, labels = generate(spec, np.random.default_rng(3))
        outliers = data[labels == -1]
        assert len(outliers) == spec.n_outliers
        cutoff = chi2.ppf(0.975, df=2)
        d2 = ((outliers[:, None, :] - spec.means[None]) ** 2).sum(axis=2)
        assert np.all(d2.min(axis=1) / spec.cov_scale > cutoff)

    def test_chisq_rare_acceptance_refused(self):
        # At cov_scale 27.05 the box keeps about 4 draws in a million: the
        # sampler stops after its first million draws instead of running on.
        spec = ScenarioSpec(p=2, contamination="uniform_chisq", cov_scale=27.05)
        with pytest.raises(SamplingError, match="below 1e-4"):
            generate(spec, np.random.default_rng(0))

    def test_chisq_covered_box_refused_before_drawing(self):
        # At cov_scale 40 the cutoff ball of the center at 0 holds the whole
        # box: (10 + 0)^2 * 2 = 200 <= 40 * 7.38. Refused with no draw taken.
        spec = ScenarioSpec(p=2, contamination="uniform_chisq", cov_scale=40.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError, match="rate 0 is below 1e-4"):
            contaminate_uniform_chisq(spec, rng)
        assert rng.bit_generator.state == before
        # with no outlier to draw there is nothing to refuse
        spec = ScenarioSpec(p=2, n=4, contamination="uniform_chisq", cov_scale=40.0)
        assert contaminate_uniform_chisq(spec, rng).shape == (0, 2)

    @staticmethod
    def whole_batch_uniform_chisq(spec, rng):
        """The uniform_chisq sampler written with one (4096, k, p) block of
        differences per batch, keeping every accepted row of it."""
        m, cutoff = spec.n_outliers, chisq_cutoff(spec.p)
        accepted, total = [np.empty((0, spec.p))], 0
        while total < m:
            batch = rng.uniform(-10.0, 10.0, size=(4096, spec.p))
            d2 = ((batch[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
            keep = batch[d2.min(axis=1) / spec.cov_scale > cutoff]
            accepted.append(keep)
            total += len(keep)
        return np.vstack(accepted)[:m]

    @pytest.mark.parametrize("p, n", [(2, 50_000), (6, 1000), (9, 1000), (300, 400)])
    def test_chisq_sample_keeps_whole_batch_bits(self, monkeypatch, p, n):
        # Distances per centre and per block of rows sum each row as the
        # whole-batch block did, so the samples keep their bytes (n = 50 000
        # at p = 2 needs two batches).
        spec = ScenarioSpec(p=p, n=n, contamination="uniform_chisq")
        for seed in range(3):
            got = generate(spec, np.random.default_rng(seed))
            with monkeypatch.context() as patch:
                patch.setitem(simulation._CONTAMINATORS, "uniform_chisq",
                              self.whole_batch_uniform_chisq)
                want = generate(spec, np.random.default_rng(seed))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))

    def test_chisq_memory_is_one_batch(self):
        # 4 outliers at p = 300, k = 3: one batch of at most 2**16 values is
        # 0.5 MiB, and the differences to one centre take as much again. A
        # (4096, p) batch would be 9.4 MiB, and a (batch, k, p) block of
        # differences k times the batch.
        spec = ScenarioSpec(p=300, n=40, contamination="uniform_chisq")
        rng = np.random.default_rng(0)  # untraced: a process's first generator imports modules
        tracemalloc.start()
        try:
            out = contaminate_uniform_chisq(spec, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 300)
        assert peak < 2 * 2**20

    def test_chisq_cutoff_matches_scipy(self):
        # Newton on the closed-form tail, up to p = 2000, where e^(-x/2) alone
        # would underflow.
        for p in range(1, 2001):
            want = chdtri(p, 0.025)
            assert abs(chisq_cutoff(p) - want) <= 1e-13 * want, p

    def test_chisq_acceptance_rate_matches_area(self):
        # Monte Carlo acceptance fraction vs a fine-grid area computation
        spec = ScenarioSpec(p=2, contamination="uniform_chisq", seed=4)
        cutoff = chi2.ppf(0.975, df=2)
        rng = np.random.default_rng(4)
        draws = rng.uniform(-10, 10, size=(200_000, 2))
        d2 = ((draws[:, None, :] - spec.means[None]) ** 2).sum(axis=2)
        mc = np.mean(d2.min(axis=1) > cutoff)
        axis = np.linspace(-10, 10, 801)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        gd2 = ((pts[:, None, :] - spec.means[None]) ** 2).sum(axis=2)
        area = np.mean(gd2.min(axis=1) > cutoff)
        assert mc == pytest.approx(area, abs=0.02 * area)

    def test_annulus_radii_and_ks(self):
        spec = ScenarioSpec(p=3, contamination="annulus", n=4000, seed=6)
        data, labels = generate(spec, np.random.default_rng(6))
        pts = data[labels == -1]
        radii = np.linalg.norm(pts, axis=1)
        assert np.all((radii >= 15.0) & (radii <= 20.0))

        def radial_cdf(r):
            return (r**3 - 15.0**3) / (20.0**3 - 15.0**3)

        assert kstest(radii, radial_cdf).pvalue > 0.01

    def test_annulus_direction_uniform(self):
        spec = ScenarioSpec(p=3, contamination="annulus", n=3000, seed=7)
        data, labels = generate(spec, np.random.default_rng(7))
        pts = data[labels == -1]
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        assert np.linalg.norm(dirs.mean(axis=0)) <= 3.0 / np.sqrt(len(pts))

    def test_outlying_cluster_properties(self):
        spec = ScenarioSpec(p=4, contamination="outlying_cluster", n=2000, seed=8)
        data, labels = generate(spec, np.random.default_rng(8))
        pts = data[labels == -1]
        bound = 3.0 / np.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - 20.0) <= bound)

    @pytest.mark.parametrize("kind, n, p", [
        *[pytest.param(kind, 2000, 4, id=kind) for kind in SCHEMES],
        # round(0.1 * 4) = 0 outliers
        *[pytest.param(kind, 4, 2, id=f"{kind}-n4") for kind in SCHEMES],
        # 20**300 overflows a float; the radii must not
        pytest.param("annulus", 400, 300, id="annulus-p300"),
    ])
    def test_sample_layout(self, kind, n, p):
        # the regular rows first, labelled by cluster, then exactly
        # n_outliers rows labelled -1
        spec = ScenarioSpec(p=p, contamination=kind, n=n, seed=8)
        data, labels = generate(spec, np.random.default_rng(8))
        n_regular = spec.n - spec.n_outliers
        assert data.shape == (spec.n, spec.p) and labels.shape == (spec.n,)
        assert np.all((labels[:n_regular] >= 0) & (labels[:n_regular] < spec.k))
        assert np.all(labels[n_regular:] == -1)
        if kind == "annulus":
            radii = np.linalg.norm(data[n_regular:], axis=1)
            assert np.all((radii >= 15.0) & (radii <= 20.0))


class TestMetrics:
    def test_exact_predictions(self):
        truth = np.repeat([0, 1, 2], 10)
        res = make_result(truth, np.zeros(30, bool))
        assert regular_misclassification(res, truth) == 0.0

    def test_relabeled_predictions(self):
        truth = np.repeat([0, 1, 2], 10)
        perm = np.array([2, 0, 1])
        res = make_result(perm[truth], np.zeros(30, bool))
        assert regular_misclassification(res, truth) == 0.0

    def test_one_in_ten_wrong(self):
        truth = np.repeat([0, 1], 5)
        pred = np.repeat([0, 1], 5)
        pred[0] = 1
        res = make_result(pred, np.zeros(10, bool), k=2)
        assert regular_misclassification(res, truth) == pytest.approx(0.1)

    def test_flagged_regular_counts_by_convention(self):
        truth = np.repeat([0, 1], 5)
        flags = np.zeros(10, bool)
        flags[3] = True
        res = make_result(np.repeat([0, 1], 5), flags, k=2)
        assert regular_misclassification(res, truth) == pytest.approx(0.1)

    def test_undetected_proportion(self):
        flags_true = np.array([False] * 6 + [True] * 4)
        truth = np.where(flags_true, -1, 0)
        all_found = make_result(np.zeros(10, int), flags_true)
        assert undetected_outlier_proportion(all_found, truth) == 0.0
        none_found = make_result(np.zeros(10, int), np.zeros(10, bool))
        assert undetected_outlier_proportion(none_found, truth) == 1.0
        pure = np.zeros(10, int)
        assert undetected_outlier_proportion(none_found, pure) is None

    def test_bias_mse_exact(self):
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        bias, mse = bias_mse([true_means.copy() for _ in range(6)], true_means)
        assert bias == 0.0 and mse == 0.0

    def test_bias_mse_constant_offset(self):
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        off = true_means.copy()
        off[:, 0] += 0.5
        bias, mse = bias_mse([off.copy() for _ in range(4)], true_means)
        assert bias == pytest.approx(0.5)
        assert mse == pytest.approx(0.25)

    def test_bias_mse_unbiased_noise(self):
        rng = np.random.default_rng(9)
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        sigma = 0.1
        draws = [true_means + sigma * rng.standard_normal((2, 2)) for _ in range(4000)]
        bias, mse = bias_mse(draws, true_means)
        assert bias <= 3 * sigma / np.sqrt(4000) * 3
        assert mse == pytest.approx(sigma**2 * 2, rel=0.1)

    def test_permutation_matching_in_bias(self):
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        bias, mse = bias_mse([true_means[::-1].copy()], true_means)
        assert bias == 0.0 and mse == 0.0

    def test_bias_mse_refuses_more_than_eight_clusters(self):
        # the guard of the one label search: 9! = 362 880 orders otherwise
        true_means = np.stack([8.0 * np.arange(9), np.zeros(9)], axis=1)
        with pytest.raises(ValueError, match="limited to k <= 8"):
            bias_mse([true_means.copy()], true_means)


@pytest.fixture(scope="module")
def small_report():
    spec = ScenarioSpec(
        n=150, p=2, k=3,
        means=np.array([[0.0, 0.0], [6.0, 6.0], [-6.0, -6.0]]),
        cov_scale=1.0, weights=np.array([0.33, 0.33, 0.34]),
        contamination="none", contamination_level=0.0,
        replications=3, seed=17)
    cfgs = [AlgoConfig(beta=0.1, n_restarts=4, seed=0),
            AlgoConfig(beta=0.0, n_restarts=4, seed=0)]
    return run_experiment(spec, cfgs)


class TestRunExperiment:
    def test_rows_and_labels(self, small_report):
        assert len(small_report.rows) == 6
        assert {r["config"] for r in small_report.rows} == {"beta=0.1", "beta=0"}
        assert all(r["error"] is None for r in small_report.rows)

    def test_aggregates_regenerate_exactly(self, small_report):
        agg = small_report.aggregates
        again = aggregate_rows(small_report.rows, small_report.config_labels,
                               small_report.spec.means)
        assert agg == again
        for label in small_report.config_labels:
            assert 0.0 <= agg[label]["misclassification"] <= 1.0
            assert agg[label]["mse"] >= agg[label]["bias"] ** 2 - 1e-12

    def test_worker_invariance(self):
        spec = ScenarioSpec(
            n=120, p=2, k=2, means=np.array([[0.0, 0.0], [7.0, 7.0]]),
            cov_scale=1.0, weights=np.array([0.5, 0.5]),
            contamination="none", contamination_level=0.0,
            replications=4, seed=23)
        cfgs = [AlgoConfig(beta=0.2, n_restarts=3, seed=0),
                AlgoConfig(beta=0.0, n_restarts=3, seed=0)]
        serial = run_experiment(spec, cfgs, workers=1).rows
        assert len(serial) == 8
        for workers in (2, 4):
            pooled = run_experiment(spec, cfgs, workers=workers).rows
            assert len(pooled) == len(serial)
            for a, b in zip(serial, pooled):
                assert a.keys() == b.keys()
                assert a["error"] is None and b["error"] is None
                for key in a:
                    if isinstance(a[key], np.ndarray):
                        assert a[key].tobytes() == b[key].tobytes(), (workers, key)
                    else:
                        assert a[key] == b[key], (workers, key)

    def test_csv_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "rows.csv"
        small_report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("replication,config,")
        assert len(lines) == 7

    def test_outlying_cluster_p4_fully_detected(self):
        # planted far cluster at (20,...,20): flagged completely at beta=0.3
        spec = ScenarioSpec(p=4, contamination="outlying_cluster",
                            replications=1, seed=31)
        data, labels = generate(spec, np.random.default_rng([31, 0]))
        from mixclust import fit

        res = fit(data, 3, AlgoConfig(beta=0.3, outlier_threshold=1e-5,
                                             n_restarts=8, seed=2))
        assert undetected_outlier_proportion(res, labels) == 0.0
        assert regular_misclassification(res, labels) <= 0.01

    def test_outlying_cluster_p8_beta_contrast(self):
        # beta=0 merges/covers while beta=0.3 recovers the design exactly
        spec = ScenarioSpec(p=8, contamination="outlying_cluster",
                            replications=1, seed=41)
        data, labels = generate(spec, np.random.default_rng([41, 0]))
        from mixclust import fit

        robust = fit(data, 3, AlgoConfig(beta=0.3, outlier_threshold=1e-18,
                                                n_restarts=10, seed=1))
        plain = fit(data, 3, AlgoConfig(beta=0.0, outlier_threshold=1e-18,
                                               n_restarts=10, seed=1))
        assert regular_misclassification(robust, labels) <= 0.01
        assert undetected_outlier_proportion(robust, labels) == 0.0
        assert regular_misclassification(plain, labels) >= 0.15
        assert undetected_outlier_proportion(plain, labels) >= 0.9

    def test_pure_p10_tiny_threshold(self):
        # densities underflow to zero floats at this scale; flags must not
        spec = ScenarioSpec(p=10, contamination="none", replications=1, seed=41)
        data, labels = generate(spec, np.random.default_rng([41, 0]))
        from mixclust import fit

        res = fit(data, 3, AlgoConfig(beta=0.3, outlier_threshold=1e-24,
                                             n_restarts=8, seed=1))
        assert regular_misclassification(res, labels) <= 0.005
        assert res.outlier_flags.sum() <= 2

    def test_failures_recorded_not_fatal(self):
        # k=9 fits, but scoring it raises ValueError (label matching is
        # limited to k <= 8); every replication must become a failure row
        spec = ScenarioSpec(
            n=90, p=2, k=9,
            means=np.stack([8.0 * np.arange(9), np.zeros(9)], axis=1),
            cov_scale=1.0, weights=np.full(9, 1.0 / 9),
            contamination="none", contamination_level=0.0,
            replications=2, seed=1)
        cfgs = [AlgoConfig(beta=0.5, n_restarts=2, seed=0)]
        for workers in (1, 2):
            report = run_experiment(spec, cfgs, workers=workers)
            assert [r["replication"] for r in report.rows] == [0, 1]
            for row in report.rows:
                assert row["error"] == ("ValueError: exhaustive label matching "
                                        "is limited to k <= 8")
            agg = report.aggregates["beta=0.5"]
            assert agg["failures"] == 2 and agg["replications"] == 0

    @pytest.mark.parametrize("exc, recorded", [
        (DegenerateClusteringError("every restart collapsed"), True),
        (np.linalg.LinAlgError("singular"), True),
        (TypeError("bad call"), False),
    ])
    def test_only_typed_failures_recorded(self, monkeypatch, exc, recorded):
        import mixclust.simulation as simulation

        def failing_fit(*args, **kwargs):
            raise exc

        # forked workers inherit the patched module
        monkeypatch.setattr(simulation, "fit", failing_fit)
        spec = ScenarioSpec(
            n=30, p=2, k=2, means=np.array([[0.0, 0.0], [7.0, 7.0]]),
            cov_scale=1.0, weights=np.array([0.5, 0.5]),
            contamination="none", contamination_level=0.0,
            replications=2, seed=3)
        cfgs = [AlgoConfig(beta=0.2, n_restarts=1, seed=0)]
        for workers in (1, 2):
            if recorded:
                rows = run_experiment(spec, cfgs, workers=workers).rows
                assert len(rows) == 2
                for row in rows:
                    assert row["error"] == f"{type(exc).__name__}: {exc}"
            else:
                # a programming error propagates instead of becoming a failure row
                with pytest.raises(TypeError, match="bad call"):
                    run_experiment(spec, cfgs, workers=workers)


def test_fork_map_runs_serially_without_a_pool(monkeypatch):
    import mixclust.workers as workers

    monkeypatch.setattr(workers, "_pool_available", lambda: False)
    assert workers.default_workers() == 1
    items = [3, 1, 2]
    results = list(workers.fork_map(lambda item: (item, os.getpid()), items, 4))
    assert results == [(item, os.getpid()) for item in items]


def test_pool_workers_keep_callers_blas_threads(monkeypatch):
    import mixclust.simulation as simulation

    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    before = openblas_thread_counts()
    if not before:
        pytest.skip("no OpenBLAS is mapped")

    def reporting_fit(*args, **kwargs):
        # runs in the worker; the typed error carries its counts back as a row
        raise DegenerateClusteringError(f"blas threads {openblas_thread_counts()}")

    monkeypatch.setattr(simulation, "fit", reporting_fit)
    spec = ScenarioSpec(
        n=30, p=2, k=2, means=np.array([[0.0, 0.0], [7.0, 7.0]]),
        cov_scale=1.0, weights=np.array([0.5, 0.5]),
        contamination="none", contamination_level=0.0,
        replications=2, seed=3)
    rows = run_experiment(spec, [AlgoConfig(beta=0.2, n_restarts=1, seed=0)],
                          workers=2).rows
    inherited = f"DegenerateClusteringError: blas threads {before}"
    assert [row["error"] for row in rows] == [inherited, inherited]
    assert openblas_thread_counts() == before
