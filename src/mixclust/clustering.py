"""The full robust mixture-clustering algorithm.

Outer loop per restart: update weights from cluster counts, refit each
component robustly on its current members, project the covariances onto
the eigenvalue-constraint set, reassign by the weighted-density
discriminant, and stop when the assignment stabilizes. The restart with
the best selection score wins (see :class:`AlgoConfig`); outliers are
flagged once, on the winner.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintConfig, enforce_constraints
from .errors import DegenerateClusteringError, NonPositiveDenominatorError
from .gaussian import (
    GaussianComponent,
    as_data_matrix,
    dpd_integral,
    log_density,
)
from .mdpde import IrlsConfig, fit_component

log = logging.getLogger(__name__)

ASSIGNMENT_RULES = ("likelihood", "distance")

# A later restart replaces the best one only when its selection score is
# higher by more than this, relative to max(1, |best score|). Restarts that
# reach one fixed point (possibly with permuted labels) score within a few
# ulp of each other, because the sums are rounded in a label-dependent
# order; a strict comparison would pick among them by rounding noise.
RESTART_TIE_RTOL = 1e-12


@dataclass
class MixtureParams:
    """Mixture weights plus the per-cluster normal components."""

    weights: np.ndarray
    components: list[GaussianComponent]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) != len(self.components):
            raise ValueError("one weight per component required")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        dims = {comp.dim for comp in self.components}
        if len(dims) > 1:
            raise ValueError("components must share one dimension")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass
class AlgoConfig:
    """Tuning parameters for :func:`fit`.

    ``outlier_threshold`` is compared against the sample-size-scaled
    discriminant ``n * D``: a point is flagged when the fitted mixture puts
    less than the threshold's worth of expected observations at it.

    Restarts are compared by the aggregate per-component fit score
    (:func:`component_fit_score`: the assigned-component density-power
    terms, without the log-weight term), not by the full objective. The
    log-weight term always rewards emptying clusters into one another, and
    once the bounded density reward ``(2*pi)**(-p*beta/2) / beta`` drops
    below the attainable log-weight gain (larger p times beta), the full
    objective prefers merged, degenerate configurations over correct ones.

    The update step refits only clusters of at least ``p + 1`` members, the
    identifiability minimum for a covariance; smaller clusters keep their
    previous component. Letting near-empty clusters refit lets them
    collapse onto the constraint floor and carve profitable micro-niches in
    higher dimensions.
    """

    beta: float = 0.1
    constraint: ConstraintConfig = field(default_factory=ConstraintConfig)
    outlier_threshold: float = 1e-3
    max_outer_iter: int = 100
    n_restarts: int = 10
    seed: int = 0
    irls: IrlsConfig = field(default_factory=IrlsConfig)
    assignment_rule: str = "likelihood"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.outlier_threshold < 0:
            raise ValueError("outlier threshold must be nonnegative")
        if self.max_outer_iter < 1:
            raise ValueError("need at least one outer iteration")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")
        if self.assignment_rule not in ASSIGNMENT_RULES:
            raise ValueError(f"assignment_rule must be one of {ASSIGNMENT_RULES}")


@dataclass
class ClusteringResult:
    params: MixtureParams
    assignments: np.ndarray
    outlier_flags: np.ndarray
    outlier_types: np.ndarray
    objective: float
    iterations: int
    restart_index: int
    discriminants: np.ndarray
    stable: bool
    selection_score: float = 0.0


def log_discriminants(data, params: MixtureParams) -> np.ndarray:
    """(n, k) matrix of ``log(weight_j) + log phi_j(x_i)``.

    ``data`` is a finite float (n, p) array, as :func:`fit` passes it.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(params.weights)
    return np.column_stack([logw[j] + log_density(data, params.components[j])
                            for j in range(params.k)])


def assign(data, params: MixtureParams, rule: str = "likelihood") -> tuple[np.ndarray, np.ndarray]:
    """Hard assignment plus the assigned cluster's discriminant value.

    The default rule picks the cluster with the largest weighted density
    (ties go to the smallest index). The "distance" rule picks the nearest
    mean in Euclidean distance and still reports the weighted-density
    discriminant of the chosen cluster, which is what outlier flagging uses.
    ``data`` is a finite float (n, p) array, as :func:`fit` passes it.
    """
    logd = log_discriminants(data, params)
    if rule == "likelihood":
        labels = np.argmax(logd, axis=1)
    elif rule == "distance":
        means = np.stack([c.mean for c in params.components])
        d2 = ((data[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
    else:
        raise ValueError(f"unknown assignment rule {rule!r}")
    disc = np.exp(logd[np.arange(len(data)), labels])
    return labels, disc


def update_weights(assignments, n: int, k: int) -> np.ndarray:
    """Optimal mixture weights given a hard assignment: cluster counts over n."""
    counts = np.bincount(np.asarray(assignments, dtype=int), minlength=k)
    if counts.sum() != n:
        raise ValueError("assignments length does not match n")
    return counts / n


def pseudo_beta_likelihood(data, params: MixtureParams, assignments, beta: float) -> float:
    """Objective value of a hard-assigned mixture at exponent ``beta``.

    Averages, over observations, ``log(weight) + phi^beta / beta - I_beta/(1+beta)``
    for the assigned component (``I_beta`` the power integral): the
    :func:`component_fit_score` plus ``sum_j n_j log(weight_j) / n`` over the
    non-empty clusters. At beta = 0 the middle terms become the plain
    log-density, recovering the classification log-likelihood. Empty
    clusters contribute nothing. ``data`` is a finite float (n, p) array, as
    :func:`fit` passes it.
    """
    counts = np.bincount(np.asarray(assignments, dtype=int), minlength=params.k)
    used = counts > 0
    with np.errstate(divide="ignore"):
        log_weights = float(counts[used] @ np.log(params.weights[used]))
    return component_fit_score(data, params, assignments, beta) + log_weights / len(data)


def component_fit_score(data, params: MixtureParams, assignments, beta: float) -> float:
    """Aggregate per-component fit score: the objective without log-weights.

    This is the sum the parameter-update step maximizes blockwise, averaged
    over observations. Unlike the full objective it carries no reward for
    concentrating counts, so comparing restarts by it does not favor merged
    configurations; see :class:`AlgoConfig`. ``data`` is a finite float
    (n, p) array, as :func:`fit` passes it.
    """
    assignments = np.asarray(assignments, dtype=int)
    total = 0.0
    for j in range(params.k):
        members = data[assignments == j]
        if len(members) == 0:
            continue
        comp = params.components[j]
        logs = log_density(members, comp)
        if beta == 0.0:
            total += logs.sum()
        else:
            integral = dpd_integral(None, beta, log_det=comp.log_det, p=comp.dim)
            total += np.exp(beta * logs).sum() / beta
            total -= len(members) * integral / (1.0 + beta)
    return float(total / len(data))


def initialize(data, k: int, rng: np.random.Generator) -> tuple[MixtureParams, np.ndarray]:
    """Random initialization: k distinct observations as means, identity
    covariances, equal weights; assignment by the likelihood rule.
    ``data`` is a finite float (n, p) array, as :func:`fit` passes it."""
    n, p = data.shape
    if n < k:
        raise ValueError(f"need at least k={k} observations, got {n}")
    idx = rng.choice(n, size=k, replace=False)
    eye = np.eye(p)
    params = MixtureParams(
        weights=np.full(k, 1.0 / k),
        components=[GaussianComponent(data[i].copy(), eye.copy()) for i in idx],
    )
    labels, _ = assign(data, params)
    return params, labels


def detect_outliers(data, params: MixtureParams, assignments,
                    threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Flag observations whose sample-size-scaled assigned-cluster
    discriminant ``n * D`` is at or below the threshold (inclusive), so the
    threshold reads as an expected-observation count at the point; a zero
    threshold never flags. Flagged points keep their pre-flag cluster index
    as the outlier type; unflagged entries carry -1. ``data`` is a finite
    float (n, p) array, as :func:`fit` passes it.
    """
    assignments = np.asarray(assignments, dtype=int)
    logd = log_discriminants(data, params)
    disc = np.exp(logd[np.arange(len(data)), assignments])
    flags = disc * len(data) <= threshold
    types = np.where(flags, assignments, -1)
    return flags, types


def _m_step(data, assignments, k: int, cfg: AlgoConfig,
            prev: list[GaussianComponent] | None) -> MixtureParams:
    n, p = data.shape
    weights = update_weights(assignments, n, k)
    comps: list[GaussianComponent] = []
    for j in range(k):
        members = data[assignments == j]
        warm = prev[j] if prev is not None else None
        if len(members) >= p + 1:
            try:
                comps.append(fit_component(members, cfg.beta, cfg.irls, init=warm).estimate)
                continue
            except NonPositiveDenominatorError:
                pass
        comps.append(warm if warm is not None else GaussianComponent(
            members.mean(axis=0) if len(members) else np.zeros(p), np.eye(p)))
    covs = enforce_constraints([c.cov for c in comps], cfg.constraint)
    comps = [GaussianComponent(c.mean, cov) for c, cov in zip(comps, covs)]
    return MixtureParams(weights=weights, components=comps)


def _reseed_empty(labels: np.ndarray, disc: np.ndarray, k: int,
                  reseeds: np.ndarray) -> bool:
    """Move the lowest-discriminant points into emptied clusters, in place.

    Returns True when a cluster empties for the second time (degenerate).
    """
    counts = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(counts == 0)
    if len(empty) == 0:
        return False
    order = np.argsort(disc, kind="stable")
    cursor = 0
    for j in empty:
        if reseeds[j] >= 1:
            return True
        reseeds[j] += 1
        while cursor < len(order):
            i = order[cursor]
            cursor += 1
            if counts[labels[i]] > 1:
                counts[labels[i]] -= 1
                labels[i] = j
                counts[j] += 1
                break
        else:
            return True
    return False


def fit_single(data, k: int, cfg: AlgoConfig,
               init_params: MixtureParams,
               init_assignments: np.ndarray | None = None) -> dict:
    """Run one restart of the outer loop from an explicit initialization.

    Returns a dict with the degenerate flag and iterations and, unless the
    restart degenerated, params, assignments, discriminants (both from the
    last :func:`assign` under those params), the stability flag and the
    selection score (:func:`component_fit_score`). When ``max_outer_iter``
    is hit, ``stable`` is False and the params come from the M-step before
    that last reassignment, so the weights need not equal the final cluster
    shares, and rows a reseed moved on that iteration are off the rule's
    choice. ``data`` is a finite float (n, p) array, as :func:`fit` passes it.
    """
    params = init_params
    if init_assignments is None:
        assignments, _ = assign(data, params, cfg.assignment_rule)
    else:
        assignments = np.asarray(init_assignments, dtype=int).copy()
    reseeds = np.zeros(k, dtype=int)
    prev_comps: list[GaussianComponent] | None = None
    stable = False
    for iterations in range(1, cfg.max_outer_iter + 1):
        params = _m_step(data, assignments, k, cfg, prev_comps)
        prev_comps = params.components
        new_labels, disc = assign(data, params, cfg.assignment_rule)
        degenerate = _reseed_empty(new_labels, disc, k, reseeds)
        if degenerate:
            break
        if np.array_equal(new_labels, assignments):
            stable = True
            break
        assignments = new_labels
    if degenerate:
        return {"degenerate": True, "iterations": iterations}
    return {
        "degenerate": False,
        "params": params,
        "assignments": assignments,
        "discriminants": disc,
        "iterations": iterations,
        "stable": stable,
        "selection_score": component_fit_score(data, params, assignments, cfg.beta),
    }


def fit(data, k: int, cfg: AlgoConfig | None = None) -> ClusteringResult:
    """Fit a k-component robust mixture with multi-restart selection.

    Each restart draws its own initialization from a generator seeded by
    ``(cfg.seed, restart_index)``, so results are reproducible. Restarts
    whose clusters empty twice are discarded; if every restart degenerates a
    :class:`DegenerateClusteringError` is raised. The winner is the restart
    with the highest selection score; a later restart wins only when it
    scores higher by more than ``RESTART_TIE_RTOL`` (1e-12) times
    ``max(1, |best score|)``, so of restarts that reach one fixed point the
    first is kept. The winner's objective is evaluated and its outliers
    flagged and typed. ``data`` is checked here, once, by
    :func:`~mixclust.gaussian.as_data_matrix`; every function it calls
    trusts the resulting finite float (n, p) array.
    """
    cfg = cfg or AlgoConfig()
    data = as_data_matrix(data)
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.shape[0] < k:
        raise ValueError(f"need at least k={k} observations, got {data.shape[0]}")
    best: dict | None = None
    best_restart = -1
    for r in range(cfg.n_restarts):
        rng = np.random.default_rng([cfg.seed, r])
        init_params, init_labels = initialize(data, k, rng)
        outcome = fit_single(data, k, cfg, init_params, init_labels)
        if outcome["degenerate"]:
            log.debug("restart %d degenerate after %d iterations", r, outcome["iterations"])
            continue
        score = outcome["selection_score"]
        if best is None or score - best["selection_score"] > \
                RESTART_TIE_RTOL * max(1.0, abs(best["selection_score"])):
            best = outcome
            best_restart = r
    if best is None:
        raise DegenerateClusteringError("every restart emptied a cluster twice")
    flags, types = detect_outliers(
        data, best["params"], best["assignments"], cfg.outlier_threshold)
    return ClusteringResult(
        params=best["params"],
        assignments=best["assignments"],
        outlier_flags=flags,
        outlier_types=types,
        objective=pseudo_beta_likelihood(data, best["params"], best["assignments"], cfg.beta),
        iterations=best["iterations"],
        restart_index=best_restart,
        discriminants=best["discriminants"],
        stable=best["stable"],
        selection_score=best["selection_score"],
    )
