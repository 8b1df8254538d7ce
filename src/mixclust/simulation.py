"""Synthetic mixture benchmarks: generators, contamination schemes, metrics.

Scenarios follow a common design: k spherical normal clusters with means on
the diagonal, optionally contaminated by one of three mechanisms (uniform
points kept only when far from every center in Mahalanobis terms, a uniform
shell, or an extra outlying cluster). Metrics are computed over the true
regular observations after the best label permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .clustering import AlgoConfig, ClusteringResult, fit
from .errors import MixclustError, SamplingError
from .gaussian import as_data_matrix
from .workers import fork_map

CONTAMINATION_KINDS = ("none", "uniform_chisq", "annulus", "outlying_cluster")

# Outlier thresholds used by the reference experiments, by dimension.
THRESHOLD_BY_DIM = {2: 1e-3, 4: 1e-5, 6: 1e-8, 8: 1e-18, 10: 1e-24}

UNIFORM_BOX_HALF_WIDTH = 10.0
ANNULUS_RADII = (15.0, 20.0)
OUTLYING_CENTER_VALUE = 20.0


def default_threshold(p: int) -> float:
    return THRESHOLD_BY_DIM.get(p, 1e-8)


@dataclass
class ScenarioSpec:
    """One experimental design: geometry, contamination and replication plan."""

    n: int
    p: int
    k: int
    means: np.ndarray
    cov_scale: float
    weights: np.ndarray
    contamination: str = "none"
    contamination_level: float = 0.0
    replications: int = 20
    seed: int = 0

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float).reshape(self.k, self.p)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.contamination not in CONTAMINATION_KINDS:
            raise ValueError(f"contamination must be one of {CONTAMINATION_KINDS}")
        if self.contamination == "none":
            if self.contamination_level != 0.0:
                raise ValueError("pure scenarios must have zero contamination level")
        elif not 0.0 < self.contamination_level < 1.0:
            raise ValueError("contamination level must lie in (0, 1)")
        expected = 1.0 - self.contamination_level
        if self.weights.shape != (self.k,) or not abs(self.weights.sum() - expected) <= 1e-9:
            raise ValueError(f"weights must be {self.k} values summing to {expected} "
                             "(1 minus the contamination level)")
        if self.cov_scale <= 0:
            raise ValueError("cov_scale must be positive")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    @property
    def n_outliers(self) -> int:
        return int(round(self.contamination_level * self.n))


def paper_design(p: int = 2, cov_scale: float = 1.0, contamination: str = "none",
                 n: int = 1000, replications: int = 20, seed: int = 0) -> ScenarioSpec:
    """The reference three-cluster design: means at 0, +5 and -5 on every axis."""
    means = np.stack([np.zeros(p), np.full(p, 5.0), np.full(p, -5.0)])
    if contamination == "none":
        weights = np.array([0.33, 0.33, 0.34])
        level = 0.0
    else:
        weights = np.array([0.3, 0.3, 0.3])
        level = 0.1
    return ScenarioSpec(n=n, p=p, k=3, means=means, cov_scale=cov_scale,
                        weights=weights, contamination=contamination,
                        contamination_level=level, replications=replications,
                        seed=seed)


@dataclass
class LabeledSample:
    """Data with generation labels; outliers carry label -1 and a flag."""

    data: np.ndarray
    true_labels: np.ndarray
    true_outlier_flags: np.ndarray

    def __post_init__(self):
        self.data = as_data_matrix(self.data)
        self.true_labels = np.asarray(self.true_labels, dtype=int)
        self.true_outlier_flags = np.asarray(self.true_outlier_flags, dtype=bool)
        n = len(self.data)
        if len(self.true_labels) != n or len(self.true_outlier_flags) != n:
            raise ValueError("labels and flags must match the data length")
        if np.any(self.true_labels[self.true_outlier_flags] != -1):
            raise ValueError("outliers must not carry a cluster label")


def gen_pure(spec: ScenarioSpec, rng: np.random.Generator) -> LabeledSample:
    """Draw the regular observations: a multinomial split across clusters.

    Under contamination only ``n - round(level * n)`` regulars are drawn;
    the matching contaminate_* call appends the rest.
    """
    n_regular = spec.n - spec.n_outliers
    probs = spec.weights / spec.weights.sum()
    counts = rng.multinomial(n_regular, probs)
    sd = np.sqrt(spec.cov_scale)
    blocks, labels = [], []
    for j, cnt in enumerate(counts):
        blocks.append(spec.means[j] + sd * rng.standard_normal((cnt, spec.p)))
        labels.append(np.full(cnt, j))
    data = np.vstack(blocks)
    labels = np.concatenate(labels)
    return LabeledSample(data, labels, np.zeros(len(data), dtype=bool))


def _append_outliers(sample: LabeledSample, points: np.ndarray) -> LabeledSample:
    m = len(points)
    return LabeledSample(
        data=np.vstack([sample.data, points]),
        true_labels=np.concatenate([sample.true_labels, np.full(m, -1)]),
        true_outlier_flags=np.concatenate(
            [sample.true_outlier_flags, np.ones(m, dtype=bool)]),
    )


def contaminate_uniform_chisq(sample: LabeledSample, spec: ScenarioSpec,
                              rng: np.random.Generator) -> LabeledSample:
    """Uniform box noise kept only far from every cluster center.

    Points are drawn uniformly on the box and accepted when the smallest
    Mahalanobis distance (under the scenario's true spherical covariance) to
    any center exceeds the 97.5th chi-square percentile for dimension p.
    """
    # Imported here, its only use, so that no other path loads scipy.
    from scipy.special import chdtri

    m = spec.n_outliers
    cutoff = chdtri(spec.p, 1.0 - 0.975)  # inverse of the upper tail
    accepted: list[np.ndarray] = []
    total = 0
    attempts = 0
    max_attempts = max(int(m / 1e-4), 100_000)
    while total < m:
        batch = rng.uniform(-UNIFORM_BOX_HALF_WIDTH, UNIFORM_BOX_HALF_WIDTH,
                            size=(4096, spec.p))
        attempts += len(batch)
        d2 = ((batch[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
        keep = batch[d2.min(axis=1) / spec.cov_scale > cutoff]
        accepted.append(keep)
        total += len(keep)
        if attempts > max_attempts and total == 0:
            raise SamplingError(
                "uniform contamination acceptance rate below 1e-4 "
                "(clusters cover the sampling box)")
    points = np.vstack(accepted)[:m]
    return _append_outliers(sample, points)


def contaminate_annulus(sample: LabeledSample, spec: ScenarioSpec,
                        rng: np.random.Generator) -> LabeledSample:
    """Uniform noise on the shell between the fixed inner and outer radii."""
    m = spec.n_outliers
    r_in, r_out = ANNULUS_RADII
    direction = rng.standard_normal((m, spec.p))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    u = rng.uniform(size=m)
    radius = (r_in**spec.p + u * (r_out**spec.p - r_in**spec.p)) ** (1.0 / spec.p)
    return _append_outliers(sample, direction * radius[:, None])


def contaminate_outlying_cluster(sample: LabeledSample, spec: ScenarioSpec,
                                 rng: np.random.Generator) -> LabeledSample:
    """A whole extra cluster at (20, ..., 20) with identity dispersion."""
    m = spec.n_outliers
    center = np.full(spec.p, OUTLYING_CENTER_VALUE)
    return _append_outliers(sample, center + rng.standard_normal((m, spec.p)))


_CONTAMINATORS = {
    "uniform_chisq": contaminate_uniform_chisq,
    "annulus": contaminate_annulus,
    "outlying_cluster": contaminate_outlying_cluster,
}


def generate(spec: ScenarioSpec, rng: np.random.Generator) -> LabeledSample:
    sample = gen_pure(spec, rng)
    if spec.contamination != "none":
        sample = _CONTAMINATORS[spec.contamination](sample, spec, rng)
    return sample


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _best_permutation_errors(pred: np.ndarray, true: np.ndarray, k: int) -> int:
    if k > 8:
        raise ValueError("exhaustive label matching is limited to k <= 8")
    best = len(pred)
    for perm in itertools.permutations(range(k)):
        mapped = np.asarray(perm)[pred]
        best = min(best, int(np.sum(mapped != true)))
        if best == 0:
            break
    return best


def regular_misclassification(result: ClusteringResult, truth: LabeledSample,
                              *, count_flagged_as_error: bool = True) -> float:
    """Misclassification rate over the true regular observations.

    Labels are matched by the best permutation (exhaustive, k factorial).
    By default a regular observation flagged as an outlier counts as an
    error; pass ``count_flagged_as_error=False`` to score only the surviving
    label assignments.
    """
    regular = ~truth.true_outlier_flags
    if not np.any(regular):
        raise ValueError("no regular observations")
    k = result.params.k
    pred = result.assignments[regular]
    true = truth.true_labels[regular]
    flagged = result.outlier_flags[regular]
    if count_flagged_as_error:
        keep = ~flagged
        errors = int(flagged.sum())
        errors += _best_permutation_errors(pred[keep], true[keep], k)
    else:
        errors = _best_permutation_errors(pred, true, k)
    return errors / regular.sum()


def undetected_outlier_proportion(result: ClusteringResult,
                                  truth: LabeledSample) -> float | None:
    """Fraction of true outliers the method failed to flag; None when the
    sample has no true outliers (pure data reports detected counts instead)."""
    out = truth.true_outlier_flags
    if not np.any(out):
        return None
    return float(np.mean(~result.outlier_flags[out]))


def match_means(estimated: np.ndarray, true_means: np.ndarray) -> np.ndarray:
    """Reorder estimated cluster means to best match the true ones."""
    k = len(true_means)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        cost = float(np.sum((estimated[list(perm)] - true_means) ** 2))
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return estimated[list(best_perm)]


def bias_mse(mean_estimates: list[np.ndarray], true_means) -> tuple[float, float]:
    """Aggregate bias and mean squared error of the cluster-mean estimates.

    Each replication's means are permutation-matched to the truth first.
    Bias is the Euclidean norm of the average error vector and MSE the
    average squared Euclidean error, both averaged over clusters.
    """
    true_means = np.asarray(true_means, dtype=float)
    matched = np.stack([match_means(np.asarray(m, dtype=float), true_means)
                        for m in mean_estimates])
    err = matched - true_means[None, :, :]
    bias_per_cluster = np.linalg.norm(err.mean(axis=0), axis=1)
    mse_per_cluster = (err**2).sum(axis=2).mean(axis=0)
    return float(bias_per_cluster.mean()), float(mse_per_cluster.mean())


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


@dataclass
class SimulationReport:
    """Per-replication metric rows plus their aggregation."""

    spec: ScenarioSpec
    config_labels: list[str]
    rows: list[dict] = field(default_factory=list)

    @property
    def aggregates(self) -> dict[str, dict]:
        return aggregate_rows(self.rows, self.config_labels)

    def to_csv(self, path) -> None:
        cols = ["replication", "config", "misclassification", "undetected",
                "detected", "objective", "error"]
        lines = [",".join(cols)]
        for row in sorted(self.rows, key=lambda r: (r["replication"], r["config"])):
            lines.append(",".join("" if row.get(c) is None else str(row.get(c))
                                  for c in cols))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def aggregate_rows(rows: list[dict], config_labels: list[str]) -> dict[str, dict]:
    """Mean metrics per configuration, skipping failed replications."""
    out: dict[str, dict] = {}
    for label in config_labels:
        good = [r for r in rows if r["config"] == label and r.get("error") is None]
        agg: dict[str, float | int | None] = {"replications": len(good)}
        for key in ("misclassification", "undetected", "detected"):
            vals = [r[key] for r in good if r.get(key) is not None]
            agg[key] = float(np.mean(vals)) if vals else None
        means = [r["fitted_means"] for r in good if r.get("fitted_means") is not None]
        if means:
            spec_means = good[0]["true_means"]
            agg["bias"], agg["mse"] = bias_mse(means, spec_means)
        else:
            agg["bias"] = agg["mse"] = None
        agg["failures"] = sum(1 for r in rows
                              if r["config"] == label and r.get("error") is not None)
        out[label] = agg
    return out


def _run_replication(spec: ScenarioSpec, rep: int, algo_cfgs: list[AlgoConfig],
                     labels: list[str]) -> list[dict]:
    rng = np.random.default_rng([spec.seed, rep])
    sample = generate(spec, rng)
    rows = []
    for cfg, label in zip(algo_cfgs, labels):
        row: dict = {"replication": rep, "config": label, "error": None}
        try:
            result = fit(sample.data, spec.k, replace(cfg, seed=cfg.seed + 1000 * rep))
            row["misclassification"] = regular_misclassification(result, sample)
            row["undetected"] = undetected_outlier_proportion(result, sample)
            row["detected"] = int(result.outlier_flags.sum())
            row["objective"] = result.objective
            row["fitted_means"] = np.stack([c.mean for c in result.params.components])
            row["true_means"] = spec.means
        except (MixclustError, np.linalg.LinAlgError, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def run_experiment(spec: ScenarioSpec, algo_cfgs: list[AlgoConfig], *,
                   workers: int = 1) -> SimulationReport:
    """Run the replication pipeline: generate, contaminate, fit, score.

    Every replication derives its own generator from (seed, replication), so
    results do not depend on the execution order or the worker count. With
    ``workers > 1`` (Linux only) replications run in a pool of
    ``min(workers, replications)`` forked processes, each with one BLAS
    thread (:func:`~mixclust.workers.fork_map`); otherwise they run in this
    process, whose BLAS settings are never changed. Each replication fits
    its restarts serially: the pool is already one level up. Typed failures
    become rows inside the worker; any other exception propagates to the
    caller. Each configuration is labelled ``beta=<beta>``, so their betas
    must differ.
    """
    config_labels = [f"beta={cfg.beta:g}" for cfg in algo_cfgs]
    if len(set(config_labels)) != len(config_labels):
        raise ValueError(f"configurations need distinct betas, got {config_labels}")
    report = SimulationReport(spec=spec, config_labels=config_labels)
    one_rep = partial(_run_replication, spec, algo_cfgs=algo_cfgs, labels=config_labels)
    for chunk in fork_map(one_rep, range(spec.replications), workers):
        report.rows.extend(chunk)
    return report
