"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Criterion 6 is split into its boundary fixed-point subcheck (6a) and the
influence oracle and boundedness subchecks (6b) so that a failure of one does
not mask the others.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from mixclust import (
    AlgoConfig,
    ConstraintConfig,
    GaussianComponent,
    TrueDistribution,
    enforce_constraints,
    fit,
    fit_component,
    log_density,
    solve_functional,
)
from mixclust.clustering import initialize, update_weights
from mixclust.imageseg import PixelGrid, outlier_palette, reconstruct, segment, sidecar_payload
from mixclust.influence import if_curve
from mixclust.simulation import ScenarioSpec, generate, run_experiment
from oracles import check_constraints, estimating_equation_residual, numeric_if_oracle

IF_MODEL = TrueDistribution(weights=(0.5, 0.5), means=(0.0, 5.0), variances=(1.0, 4.0))
IF_CFG = ConstraintConfig(c=5.0, c1=0.1)


def test_criterion_1_pure_data_anchor(criterion_report):
    """Pure p=2 design: misclassification near 0.0003, almost no flags."""
    start = time.time()
    spec = ScenarioSpec(p=2, contamination="none", replications=20, seed=20240601)
    cfgs = [AlgoConfig(beta=beta, outlier_threshold=1e-3,
                       constraint=ConstraintConfig(c=20.0, c1=0.1),
                       n_restarts=10, seed=0)
            for beta in (0.0, 0.1)]
    agg = run_experiment(spec, cfgs).aggregates
    elapsed = time.time() - start
    details = []
    ok = elapsed < 120.0
    for label in ("beta=0", "beta=0.1"):
        mis = agg[label]["misclassification"]
        detected = agg[label]["detected"]
        ok &= abs(mis - 0.0003) <= 0.005 and detected <= 1.0
        details.append(f"{label}: mis={mis:.5f} detected={detected:.3f}")
    criterion_report(1, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_2_outlying_cluster_robustness(criterion_report):
    """p=6 outlying cluster: robust fit succeeds where beta=0 collapses."""
    start = time.time()
    spec = ScenarioSpec(p=6, contamination="outlying_cluster",
                        replications=20, seed=77)
    cfgs = [AlgoConfig(beta=beta, outlier_threshold=1e-8,
                       constraint=ConstraintConfig(c=20.0, c1=0.1),
                       n_restarts=10, seed=0)
            for beta in (0.3, 0.0)]
    agg = run_experiment(spec, cfgs).aggregates
    elapsed = time.time() - start
    robust, plain = agg["beta=0.3"], agg["beta=0"]
    ok = (robust["misclassification"] <= 0.02
          and robust["undetected"] <= 0.05
          and plain["misclassification"] >= 0.15
          and elapsed < 600.0)
    criterion_report(2, ok,
           f"beta=0.3: mis={robust['misclassification']:.4f} "
           f"undetected={robust['undetected']:.4f}; "
           f"beta=0: mis={plain['misclassification']:.4f}; {elapsed:.0f}s")


def test_criterion_3_estimating_equation_fidelity(criterion_report, irls_stop):
    """Residuals vanish at fixed points; grid oracle agrees in 1-D."""
    rng = np.random.default_rng(321)
    irls_stop(1e-11, 4000)
    worst = 0.0
    for trial in range(50):
        p = 1 if trial % 2 == 0 else 2
        n = int(rng.integers(40, 120))
        scale = float(rng.uniform(0.5, 2.0))
        data = scale * rng.standard_normal((n, p)) + rng.uniform(-3, 3, size=p)
        for beta in (0.1, 0.3, 0.5):
            out = fit_component(data, beta)
            vec, mat = estimating_equation_residual(data, out.estimate, beta)
            norm = max(np.linalg.norm(vec), np.linalg.norm(mat))
            worst = max(worst, norm / (1e-6 * n))
            assert norm <= 1e-6 * n

    # brute-force grid maximization of the component criterion in 1-D
    grid_ok = True
    for seed in (5, 6, 7, 8, 9):
        g = np.random.default_rng(seed)
        data = g.normal(g.uniform(-2, 2), g.uniform(0.8, 1.6), size=50)[:, None]
        beta = 0.3
        est = fit_component(data, beta).estimate
        mus = np.linspace(data.mean() - 1.5, data.mean() + 1.5, 201)
        sig2s = np.exp(np.linspace(np.log(0.2), np.log(6.0), 201))
        logphi = (-0.5 * np.log(2 * np.pi * sig2s[None, None, :])
                  - 0.5 * (data[:, :, None] - mus[None, :, None]) ** 2
                  / sig2s[None, None, :])
        powered = np.exp(beta * logphi).mean(axis=0) / beta
        integral = ((2 * np.pi) ** (-beta / 2) * sig2s ** (-beta / 2)
                    * (1 + beta) ** -0.5)
        objective = powered - integral[None, :] / (1 + beta)
        i, j = np.unravel_index(np.argmax(objective), objective.shape)
        dmu = mus[1] - mus[0]
        ratio = sig2s[1] / sig2s[0]
        grid_ok &= abs(est.mean[0] - mus[i]) <= dmu
        grid_ok &= sig2s[j] / ratio <= est.cov[0, 0] <= sig2s[j] * ratio
    criterion_report(3, grid_ok, f"max residual ratio {worst:.2e} of bound; grid oracle "
                       f"matched on 5 datasets")


def test_criterion_4_beta_zero_reduction(criterion_report, irls_stop):
    """beta=0 equals the plain mean/covariance and classification-EM path."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((80, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]) + 1.5
    irls_stop(1e-10)
    out = fit_component(data, 0.0)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / len(data)
    reduction_ok = (np.abs(out.estimate.mean - mean).max() <= 1e-8
                    and np.abs(out.estimate.cov - cov).max() <= 1e-8)

    # independent classification-EM reference on the same initialization;
    # the eigenvalue constraints are made vacuous so both trajectories solve
    # the same unconstrained problem
    blobs = np.vstack([rng.standard_normal((60, 2)) + c
                       for c in ([0.0, 0.0], [7.0, 0.0], [0.0, 7.0])])
    k = 3
    init_rng = np.random.default_rng([4, 0])
    params0, labels0 = initialize(blobs, k, init_rng)
    cfg = AlgoConfig(beta=0.0, n_restarts=1, seed=4,
                     constraint=ConstraintConfig(c=1e9, c1=1e-12))
    irls_stop(1e-12, 2000)
    result = fit(blobs, k, cfg)

    labels = labels0.copy()
    for _ in range(100):
        weights = update_weights(labels, k)
        comps = []
        for j in range(k):
            members = blobs[labels == j]
            m = members.mean(axis=0)
            d = members - m
            comps.append(GaussianComponent(m, d.T @ d / len(members)))
        logd = np.column_stack([np.log(weights[j]) + log_density(blobs, comps[j])
                                for j in range(k)])
        new_labels = np.argmax(logd, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    ref_objective = 0.0
    for j in range(k):
        members = blobs[labels == j]
        ref_objective += len(members) * np.log(weights[j])
        ref_objective += log_density(members, comps[j]).sum()
    ref_objective /= len(blobs)

    same_partition = ({frozenset(np.flatnonzero(result.assignments == j)) for j in range(k)}
                      == {frozenset(np.flatnonzero(labels == j)) for j in range(k)})
    fitted_means = sorted(np.round(c.mean, 6).tolist()
                          for c in result.params.components)
    ref_means = sorted(np.round(c.mean, 6).tolist() for c in comps)
    cem_ok = (same_partition
              and np.allclose(fitted_means, ref_means, atol=1e-8)
              and abs(result.objective - ref_objective) <= 1e-10)
    criterion_report(4, reduction_ok and cem_ok,
           f"component reduction exact; classification-EM objective "
           f"{ref_objective:.6f} matched")


def test_criterion_5_constraint_projection_suite(criterion_report):
    """Idempotent, feasible, eigenvector-preserving on 1000 random sets."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        covs = []
        for _ in range(k):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            vals = np.exp(rng.uniform(-5, 5, size=p))
            covs.append((q * vals) @ q.T)
        cfg = ConstraintConfig(c=float(rng.uniform(1.5, 40.0)),
                               c1=float(np.exp(rng.uniform(-4, 0))))
        out = enforce_constraints(covs, cfg)
        ok, _, _ = check_constraints(out, cfg)
        assert ok
        again = enforce_constraints(out, cfg)
        for first, second in zip(out, again):
            assert np.allclose(first, second,
                               atol=1e-12 * max(1.0, np.abs(first).max()))
        for before, after in zip(covs, out):
            vecs = np.linalg.eigh(before)[1]
            off = vecs.T @ after @ vecs
            off = off - np.diag(np.diag(off))
            assert np.abs(off).max() <= 1e-10 * max(1.0, np.abs(after).max())
        checked += 1
    criterion_report(5, checked == 1000, f"{checked} random covariance sets pass "
                               "feasibility, idempotence, eigenvector preservation")


@pytest.fixture(scope="module")
def if_solutions():
    return {beta: solve_functional(IF_MODEL, beta, IF_CFG) for beta in (0.1, 0.2)}


def _simpson_region(intervals, nodes=2000):
    """Simpson nodes on a union of intervals, weighted by the IF model's density."""
    xs, qs = [], []
    for lo, hi in intervals:
        x = np.linspace(lo, hi, 2 * nodes + 1)
        coef = np.ones_like(x)
        coef[1:-1:2], coef[2:-1:2] = 4.0, 2.0
        xs.append(x)
        qs.append(coef * (hi - lo) / (6 * nodes))
    x = np.concatenate(xs)
    density = sum(w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2 * np.pi * v)
                  for w, m, v in zip(IF_MODEL.weights, IF_MODEL.means,
                                     IF_MODEL.variances))
    return x, np.concatenate(qs) * density


def _population_refit(x, q, beta, mu, var, tol=1e-13, max_iter=5000):
    """Population analogue of the mdpde IRLS update, iterated to its fixed point.

    Weighted mean, then weighted scatter over ``sum(w) - mass*beta/(1+beta)**1.5``,
    with every sum an integral against the model density on the region.
    """
    mass = q.sum()
    for _ in range(max_iter):
        w = q * np.exp(-0.5 * beta * (x - mu) ** 2 / var)
        new_mu = w @ x / w.sum()
        new_var = w @ (x - new_mu) ** 2 / (w.sum() - mass * beta / (1 + beta) ** 1.5)
        done = abs(new_mu - mu) <= tol and abs(new_var - var) <= tol
        mu, var = new_mu, new_var
        if done:
            return mass, mu, var
    raise AssertionError("population refit did not converge")


def _crossings(pi1, pi2, mu1, mu2, var1, var2):
    """The two points where pi1*phi1 and pi2*phi2 are equal, in increasing order."""
    lead = 0.5 * (1 / var2 - 1 / var1)
    lin = mu1 / var1 - mu2 / var2
    const = (np.log(pi1 / pi2) - 0.5 * np.log(var1 / var2)
             - 0.5 * mu1**2 / var1 + 0.5 * mu2**2 / var2)
    root = np.sqrt(lin * lin - 4 * lead * const)
    return tuple(sorted(((-lin + root) / (2 * lead), (-lin - root) / (2 * lead))))


def _boundary_map(a, b, beta, comps):
    """One step of the population clustering map: refit both regions, re-cross.

    The narrow component is refitted on (a, b) and the wide one on the
    complement, each warm-started at ``comps``; the new boundaries are the
    crossings of the refitted pi_j * phi_j.
    """
    lo, hi = -40.0, 50.0  # model mass beyond is below 1e-30
    (m1, v1), (m2, v2) = comps
    p1, m1, v1 = _population_refit(*_simpson_region([(a, b)]), beta, m1, v1)
    p2, m2, v2 = _population_refit(*_simpson_region([(lo, a), (b, hi)]), beta, m2, v2)
    return _crossings(p1, p2, m1, m2, v1, v2), ((m1, v1), (m2, v2))


def test_criterion_6_boundary_anchor(if_solutions, criterion_report):
    """Solved boundaries equal the population clustering fixed point to 1e-4.

    The oracle is built here, independently of ``mixclust.influence``: no
    adaptive quadrature, no Newton, no shared code. Composite Simpson rules
    integrate against the model density; each component is refitted on its
    region by the population form of the mdpde IRLS update; the boundaries
    become the crossings of the refitted pi_j * phi_j. Iterated plainly from
    the true model's crossings (-5.267, 1.933) until the boundaries move by
    less than 1e-11, the map settles at (-7.3152, 2.2007) for beta = 0.1 and
    (-7.2640, 2.1944) for beta = 0.2, and ``solve_functional`` must agree
    with it to 1e-4 in both boundaries.

    History: the test first asserted the boundaries within 0.05 of a quoted
    pair (-5.5, 1.95). No source for that pair is held in this repository,
    and it is not a fixed point: one step of the map above moves it to
    about (-6.15, 2.05). The test still asserts this, so a solver that
    returned the quoted pair (or the true-model crossings) fails. The root
    was already cross-checked two other ways: the epsilon-contamination
    oracle matches the linear influence system to ~1e-6 (criterion 6b), and
    the beta -> 0 limit reproduces the classification-EM population fixed
    point (-7.36, 2.21).
    """
    details = []
    ok = True
    true_comps = tuple(zip(IF_MODEL.means, IF_MODEL.variances))
    for beta, sol in if_solutions.items():
        ab = _crossings(*IF_MODEL.weights, *IF_MODEL.means, *IF_MODEL.variances)
        comps = true_comps
        for _ in range(500):
            new, comps = _boundary_map(*ab, beta, comps)
            moved = max(abs(new[0] - ab[0]), abs(new[1] - ab[1]))
            ab = new
            if moved < 1e-11:
                break
        else:
            raise AssertionError("boundary map did not settle")
        quoted_step, _ = _boundary_map(-5.5, 1.95, beta, true_comps)
        ok &= abs(sol.a - ab[0]) <= 1e-4 and abs(sol.b - ab[1]) <= 1e-4
        ok &= abs(quoted_step[0] - (-5.5)) > 0.5
        details.append(f"beta={beta}: solver ({sol.a:.4f}, {sol.b:.4f}) "
                       f"oracle ({ab[0]:.4f}, {ab[1]:.4f}); "
                       f"(-5.5, 1.95) maps to ({quoted_step[0]:.2f}, {quoted_step[1]:.2f})")
    criterion_report("6a", ok, "boundary fixed point: " + "; ".join(details))


def test_criterion_6_influence_oracle_and_boundedness(if_solutions, criterion_report):
    """Linear-system influence agrees with the contamination oracle; curves
    bounded with ranges shrinking in beta."""
    start = time.time()
    agree = True
    worst = 0.0
    for beta, sol in if_solutions.items():
        for y in (-10.0, 0.0, 3.0, 10.0):
            lin = if_curve(sol, IF_MODEL, [y])[0, 1:]
            num = numeric_if_oracle(IF_MODEL, beta, IF_CFG, y, base=sol)
            rel = np.abs(lin - num) / np.maximum(np.abs(num), 1e-12)
            absd = np.abs(lin - num)
            agree &= bool(np.all((rel <= 0.02) | (absd <= 1e-3)))
            worst = max(worst, float(np.minimum(rel, absd / 1e-3).max()))
    grid = np.linspace(-30.0, 30.0, 241)
    curves = {beta: if_curve(sol, IF_MODEL, grid)
              for beta, sol in if_solutions.items()}
    bounded = all(np.all(np.isfinite(c)) for c in curves.values())
    shrink = True
    for col in range(1, 9):
        r1 = curves[0.1][:, col].max() - curves[0.1][:, col].min()
        r2 = curves[0.2][:, col].max() - curves[0.2][:, col].min()
        shrink &= bool(r2 <= r1 * (1 + 1e-9))
    elapsed = time.time() - start
    ok = agree and bounded and shrink and elapsed < 300.0
    criterion_report("6b", ok,
           f"oracle agreement (worst normalized dev {worst:.2e}); curves bounded "
           f"on [-30,30]; ranges shrink 0.1->0.2; {elapsed:.0f}s")


def test_criterion_7_contamination_generators(criterion_report):
    """Defining properties of the three contamination mechanisms."""
    # chi-squared scheme: every accepted point is far from every center
    spec = ScenarioSpec(p=2, contamination="uniform_chisq", n=2000, seed=13)
    data, labels = generate(spec, np.random.default_rng(13))
    pts = data[labels == -1]
    d2 = ((pts[:, None, :] - spec.means[None]) ** 2).sum(axis=2)
    chisq_ok = bool(np.all(d2.min(axis=1) / spec.cov_scale > chi2.ppf(0.975, 2)))

    # annulus: radii in range, radial law correct at the 1% level
    spec = ScenarioSpec(p=3, contamination="annulus", n=4000, seed=14)
    data, labels = generate(spec, np.random.default_rng(14))
    radii = np.linalg.norm(data[labels == -1], axis=1)
    in_range = bool(np.all((radii >= 15.0) & (radii <= 20.0)))
    pval = kstest(radii, lambda r: (r**3 - 15.0**3) / (20.0**3 - 15.0**3)).pvalue
    annulus_ok = in_range and pval > 0.01

    # outlying cluster: CLT bound on the sample mean
    spec = ScenarioSpec(p=4, contamination="outlying_cluster", n=2000, seed=15)
    data, labels = generate(spec, np.random.default_rng(15))
    pts = data[labels == -1]
    clt_ok = bool(np.all(np.abs(pts.mean(axis=0) - 20.0) <= 3.0 / np.sqrt(len(pts))))

    criterion_report(7, chisq_ok and annulus_ok and clt_ok,
           f"chisq 100% beyond cutoff; annulus KS p={pval:.3f}; "
           f"outlying-cluster mean within CLT bound")


def test_criterion_8_image_pipeline(criterion_report):
    """Synthetic two-tone image with white noise: classify, flag, type."""
    start = time.time()
    side = 200
    rng = np.random.default_rng(0)
    pixels = np.zeros((side * side, 3))
    cols = np.tile(np.arange(side), side)
    pixels[cols < side // 2] = [0.0, 0.0, 1.0]
    pixels[cols >= side // 2] = [0.0, 1.0, 0.0]
    noise_idx = rng.choice(side * side, size=int(0.05 * side * side), replace=False)
    pixels[noise_idx] = [1.0, 1.0, 1.0]
    noise_mask = np.zeros(side * side, dtype=bool)
    noise_mask[noise_idx] = True
    grid = PixelGrid(side, side, pixels)

    cfg = AlgoConfig(beta=0.2, outlier_threshold=0.02,
                     constraint=ConstraintConfig(c=20.0, c1=0.01),
                     n_restarts=5, seed=3)
    seg = segment(grid, 2, cfg)
    regular = ~noise_mask
    blue = pixels[regular][:, 2] > 0.5
    labels = seg.assignments[regular]
    direct = np.mean((labels == 0) != blue)
    accuracy = 1.0 - min(direct, 1.0 - direct)
    flagged_noise = seg.outlier_flags[noise_mask].mean()
    # what `mixclust image` writes: the sidecar counts each flagged pixel
    # under its cluster, and the picture paints it that cluster's outlier colour
    flagged = seg.outlier_flags
    types = seg.assignments[flagged]
    sidecar = sidecar_payload(seg, cfg)
    counts_match = (sidecar["outliers_per_type"] == np.bincount(types, minlength=2).tolist()
                    and sum(sidecar["outliers_per_type"]) == sidecar["total_outliers"])
    painted = bool(np.array_equal(reconstruct(grid, seg).pixels[flagged],
                                  outlier_palette(2)[types]))
    elapsed = time.time() - start
    ok = (accuracy >= 0.95 and flagged_noise >= 0.90 and counts_match and painted
          and elapsed < 60.0)
    criterion_report(8, ok, f"regular accuracy {accuracy:.4f}; noise flagged "
                  f"{flagged_noise:.4f}; outliers_per_type {sidecar['outliers_per_type']} "
                  f"counts the flagged labels: {counts_match}; painted by label: "
                  f"{painted}; {elapsed:.0f}s")
