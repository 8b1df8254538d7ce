"""Synthetic mixture benchmarks: generators, contamination schemes, metrics.

Scenarios follow a common design: k spherical normal clusters with means on
the diagonal, optionally contaminated by one of three mechanisms (uniform
points kept only when far from every center in Mahalanobis terms, a uniform
shell, or an extra outlying cluster). :func:`generate` draws one sample as
``(data, labels)``: the regular rows first, labelled 0..k-1, then the
outliers, labelled -1. Metrics take those labels and are computed over the
true regular observations after the best label permutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .clustering import AlgoConfig, ClusteringResult, fit
from .errors import MixclustError, SamplingError
from .workers import fork_map

CONTAMINATION_KINDS = ("none", "uniform_chisq", "annulus", "outlying_cluster")

UNIFORM_BOX_HALF_WIDTH = 10.0
# uniform_chisq keeps a draw only beyond this upper-tail share of chi-square_p.
CHISQ_TAIL = 0.025
ANNULUS_RADII = (15.0, 20.0)
OUTLYING_CENTER_VALUE = 20.0


def _numbers(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be numbers, got {value!r}") from None


@dataclass(kw_only=True)
class ScenarioSpec:
    """One experimental design: geometry, contamination and replication plan.

    Only ``p`` is required. ``means``, ``weights`` and
    ``contamination_level`` left out take the paper's three-cluster design:
    means at 0, +5 and -5 on every axis, and weights 0.33, 0.33 and 0.34 at
    level 0, or 0.3 each at level 0.1 under contamination.
    """

    n: int = 1000
    p: int
    k: int = 3
    means: np.ndarray | None = None
    cov_scale: float = 1.0
    weights: np.ndarray | None = None
    contamination: str = "none"
    contamination_level: float | None = None
    replications: int = 20
    seed: int = 0

    def __post_init__(self):
        if min(self.p, self.k) < 1:
            raise ValueError(f"p and k must be at least 1, got p={self.p} and k={self.k}")
        if self.n < self.k:
            raise ValueError(f"n must be at least k={self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.contamination not in CONTAMINATION_KINDS:
            raise ValueError(f"contamination must be one of {CONTAMINATION_KINDS}")
        contaminated = self.contamination != "none"
        if (self.means is None or self.weights is None) and self.k != 3:
            raise ValueError("means and weights must be given unless k = 3")
        if self.means is None:
            self.means = np.outer([0.0, 5.0, -5.0], np.ones(self.p))
        if self.weights is None:
            self.weights = [0.3, 0.3, 0.3] if contaminated else [0.33, 0.33, 0.34]
        if self.contamination_level is None:
            self.contamination_level = 0.1 if contaminated else 0.0
        self.means = _numbers(self.means, "means")
        if self.means.size != self.k * self.p:
            raise ValueError(f"means must hold k * p = {self.k * self.p} values")
        self.means = self.means.reshape(self.k, self.p)
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        self.weights = _numbers(self.weights, "weights")
        if not contaminated:
            if self.contamination_level != 0.0:
                raise ValueError("contamination_level must be 0 when contamination is 'none'")
        elif not 0.0 < self.contamination_level < 1.0:
            raise ValueError(f"contamination_level must lie in (0, 1) for {self.contamination}")
        expected = 1.0 - self.contamination_level
        if self.weights.shape != (self.k,) or not abs(self.weights.sum() - expected) <= 1e-9:
            raise ValueError(f"weights must be {self.k} values summing to 1 - contamination_level"
                             f" = {expected} (contamination: {self.contamination})")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        if not 0.0 < self.cov_scale < np.inf:  # NaN fails too
            raise ValueError("cov_scale must be finite and positive")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    @property
    def n_outliers(self) -> int:
        return int(round(self.contamination_level * self.n))


def chisq_cutoff(p: int) -> float:
    """The x with P(chi-square_p > x) = ``CHISQ_TAIL``, for an integer p >= 1.

    The upper tail has a closed form (Abramowitz & Stegun 26.4.4-5):
    Q(x) = [p odd] erfc(sqrt(x/2)) + the sum, over s = p/2 - 1, p/2 - 2, ...
    down to 0 or 1/2, of e^(-x/2) (x/2)^s / s!. Its first term is twice the
    density and is taken in logs, so e^(-x/2) cannot underflow at large p;
    each later term is the one before times s / (x/2). Newton starts at the
    mean p, past the mode, where Q is convex, so it climbs to the root without
    overshooting; it stops when a step no longer moves x. Within 3e-14
    relative of ``scipy.special.chdtri`` for every p up to 2000.
    """
    top = p / 2.0 - 1.0
    x = float(p)
    while True:
        half = x / 2.0
        lead = math.exp(top * math.log(half) - half - math.lgamma(top + 1.0))
        tail, term, s = 0.0, lead, top
        while s >= 0.0:
            tail += term
            term *= s / half
            s -= 1.0
        if p % 2:
            tail += math.erfc(math.sqrt(half))
        new = x + 2.0 * (tail - CHISQ_TAIL) / lead
        if not new > x:
            return x
        x = new


@np.errstate(over="ignore")  # a distance past the float range is past the cutoff too
def contaminate_uniform_chisq(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform box noise kept only far from every cluster center.

    Points are drawn uniformly on the box and accepted when the smallest
    Mahalanobis distance (under the scenario's true spherical covariance) to
    any center exceeds the 97.5th chi-square percentile for dimension p
    (:func:`chisq_cutoff`). When the cutoff ball of one center holds the
    whole box, no draw can be kept, and the sampler says so before drawing.
    """
    m = spec.n_outliers
    cutoff = chisq_cutoff(spec.p)
    farthest_corner = ((UNIFORM_BOX_HALF_WIDTH + np.abs(spec.means)) ** 2).sum(axis=1)
    if m and farthest_corner.min() / spec.cov_scale <= cutoff:
        raise SamplingError("uniform contamination acceptance rate 0 is below 1e-4 (box covered)")
    accepted = [np.empty((0, spec.p))]
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
        if attempts > max_attempts and total / attempts < 1e-4:
            raise SamplingError(
                f"uniform contamination acceptance rate {total / attempts:.2g} is "
                "below 1e-4 (clusters cover the sampling box)")
    return np.vstack(accepted)[:m]


def contaminate_annulus(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform noise on the shell between the fixed inner and outer radii.

    The radius is drawn relative to ``r_out``, so ``(r_in / r_out) ** p``
    underflows to 0 at large p where ``r_out ** p`` would overflow.
    """
    m = spec.n_outliers
    r_in, r_out = ANNULUS_RADII
    direction = rng.standard_normal((m, spec.p))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    u = rng.uniform(size=m)
    rho = (r_in / r_out) ** spec.p
    radius = r_out * (rho + u * (1 - rho)) ** (1.0 / spec.p)
    return direction * radius[:, None]


def contaminate_outlying_cluster(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """A whole extra cluster at (20, ..., 20) with identity dispersion."""
    center = np.full(spec.p, OUTLYING_CENTER_VALUE)
    return center + rng.standard_normal((spec.n_outliers, spec.p))


_CONTAMINATORS = {
    "uniform_chisq": contaminate_uniform_chisq,
    "annulus": contaminate_annulus,
    "outlying_cluster": contaminate_outlying_cluster,
}


def generate(spec: ScenarioSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One sample as ``(data, labels)``.

    The regular rows come first, split across the clusters by one
    multinomial draw and labelled 0..k-1; the contamination scheme's
    ``spec.n_outliers`` points follow, each labelled -1.
    """
    counts = rng.multinomial(spec.n - spec.n_outliers, spec.weights / spec.weights.sum())
    sd = np.sqrt(spec.cov_scale)
    blocks = [spec.means[j] + sd * rng.standard_normal((cnt, spec.p))
              for j, cnt in enumerate(counts)]
    if spec.contamination != "none":
        blocks.append(_CONTAMINATORS[spec.contamination](spec, rng))
    return np.vstack(blocks), np.repeat([*range(spec.k), -1], [*counts, spec.n_outliers])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _best_permutation(k: int, cost) -> tuple[int, ...]:
    """The first permutation of ``range(k)`` with the least ``cost``
    (exhaustive, k factorial)."""
    if k > 8:
        raise ValueError("exhaustive label matching is limited to k <= 8")
    return min(itertools.permutations(range(k)), key=cost)


def regular_misclassification(result: ClusteringResult, labels: np.ndarray) -> float:
    """Misclassification rate over the true regular observations (``labels >= 0``).

    Labels are matched by the best permutation (k <= 8). A regular
    observation flagged as an outlier counts as an error.
    """
    regular = labels >= 0
    if not np.any(regular):
        raise ValueError("no regular observations")
    flagged = result.outlier_flags[regular]
    pred = result.assignments[regular][~flagged]
    true = labels[regular][~flagged]

    def errors(perm) -> int:
        return int(np.sum(np.asarray(perm)[pred] != true))

    best = _best_permutation(result.params.k, errors)
    return (int(flagged.sum()) + errors(best)) / regular.sum()


def undetected_outlier_proportion(result: ClusteringResult,
                                  labels: np.ndarray) -> float | None:
    """Fraction of true outliers (``labels == -1``) the method failed to flag;
    None when the sample has none (pure data reports detected counts instead)."""
    out = labels < 0
    if not np.any(out):
        return None
    return float(np.mean(~result.outlier_flags[out]))


def bias_mse(mean_estimates: list[np.ndarray], true_means) -> tuple[float, float]:
    """Aggregate bias and mean squared error of the cluster-mean estimates.

    Each replication's means are first reordered by the permutation that
    brings them closest to the truth (k <= 8). Bias is the Euclidean norm of
    the average error vector and MSE the average squared Euclidean error,
    both averaged over clusters.
    """
    true_means = np.asarray(true_means, dtype=float)
    matched = []
    for estimated in mean_estimates:
        estimated = np.asarray(estimated, dtype=float)
        perm = _best_permutation(len(true_means), lambda perm: float(
            np.sum((estimated[list(perm)] - true_means) ** 2)))
        matched.append(estimated[list(perm)])
    err = np.stack(matched) - true_means[None, :, :]
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
        return aggregate_rows(self.rows, self.config_labels, self.spec.means)

    def to_csv(self, path) -> None:
        cols = ["replication", "config", "misclassification", "undetected",
                "detected", "objective", "error"]
        lines = [",".join(cols)]
        for row in sorted(self.rows, key=lambda r: (r["replication"], r["config"])):
            lines.append(",".join("" if row.get(c) is None else str(row.get(c))
                                  for c in cols))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def aggregate_rows(rows: list[dict], config_labels: list[str],
                   true_means: np.ndarray) -> dict[str, dict]:
    """Mean metrics per configuration, skipping failed replications; bias and
    MSE of the fitted means are taken against ``true_means``."""
    out: dict[str, dict] = {}
    for label in config_labels:
        good = [r for r in rows if r["config"] == label and r.get("error") is None]
        agg: dict[str, float | int | None] = {"replications": len(good)}
        for key in ("misclassification", "undetected", "detected"):
            vals = [r[key] for r in good if r.get(key) is not None]
            agg[key] = float(np.mean(vals)) if vals else None
        means = [r["fitted_means"] for r in good if r.get("fitted_means") is not None]
        if means:
            agg["bias"], agg["mse"] = bias_mse(means, true_means)
        else:
            agg["bias"] = agg["mse"] = None
        agg["failures"] = sum(1 for r in rows
                              if r["config"] == label and r.get("error") is not None)
        out[label] = agg
    return out


def _run_replication(spec: ScenarioSpec, rep: int, algo_cfgs: list[AlgoConfig],
                     labels: list[str]) -> list[dict]:
    rng = np.random.default_rng([spec.seed, rep])
    data, truth = generate(spec, rng)
    rows = []
    for cfg, label in zip(algo_cfgs, labels):
        row: dict = {"replication": rep, "config": label, "error": None}
        try:
            result = fit(data, spec.k, replace(cfg, seed=cfg.seed + 1000 * rep))
            row["misclassification"] = regular_misclassification(result, truth)
            row["undetected"] = undetected_outlier_proportion(result, truth)
            row["detected"] = int(result.outlier_flags.sum())
            row["objective"] = result.objective
            row["fitted_means"] = np.stack([c.mean for c in result.params.components])
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
    ``min(workers, replications)`` forked processes
    (:func:`~mixclust.workers.fork_map`); otherwise they run in this
    process. Either way they keep this process's BLAS settings. Each
    replication fits its restarts serially: the pool is already one level
    up. Typed failures become rows inside the worker; any other exception
    propagates to the caller. Each configuration is labelled ``beta=<beta>``, so their betas
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
