"""The full robust mixture-clustering algorithm.

Outer loop per restart: update weights from cluster counts, refit each
component robustly on its current members, project the covariances onto
the eigenvalue-constraint set, reassign by the weighted-density
discriminant, and stop when the assignment stabilizes. Each refit
warm-starts from the cluster's previous unprojected fit, and while the
labels still move it takes at most ``mdpde.WARM_STEP_CAP`` IRLS steps: a
generalized EM step only has to move toward the block optimum (ECM, Meng &
Rubin 1993). A restart stops only on labels that an M-step of uncut fits
left unchanged, so its estimate is a converged fit on a stable partition.
The restart with the best selection score wins (see :class:`AlgoConfig`);
outliers are flagged once, on the winner.
"""

from __future__ import annotations

import logging
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constraints import ConstraintConfig, enforce_constraints
from .errors import DegenerateClusteringError, NonPositiveDenominatorError
from .gaussian import (
    BLOCK,
    GaussianComponent,
    as_data_matrix,
    column_blocks,
    dpd_integral,
    log_density,
)
from .mdpde import WARM_STEP_CAP, fit_component
from .workers import fork_map

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
    """Mixture weights plus the per-cluster normal components, unchecked:
    :func:`_m_step` (cluster counts over n) and :func:`initialize` (equal
    weights) build them, and a caller passes a float (k,) weight array
    summing to 1 and k components of one dimension."""

    weights: np.ndarray
    components: list[GaussianComponent]

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def log_weights(self) -> np.ndarray:
        """``log(weights)``, with -inf for a zero weight."""
        with np.errstate(divide="ignore"):
            return np.log(self.weights)


# Outlier thresholds used by the reference experiments, by dimension; the
# default of ``AlgoConfig.outlier_threshold`` where a caller picks by p.
THRESHOLD_BY_DIM = {2: 1e-3, 4: 1e-5, 6: 1e-8, 8: 1e-18, 10: 1e-24}


def default_threshold(p: int) -> float:
    return THRESHOLD_BY_DIM.get(p, 1e-8)


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
    assignment_rule: str = "likelihood"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.outlier_threshold < np.inf:  # NaN fails too
            raise ValueError("outlier threshold must be finite and nonnegative")
        if self.max_outer_iter < 1:
            raise ValueError("need at least one outer iteration")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.assignment_rule not in ASSIGNMENT_RULES:
            raise ValueError(f"assignment_rule must be one of {ASSIGNMENT_RULES}")


@dataclass
class ClusteringResult:
    params: MixtureParams
    assignments: np.ndarray
    outlier_flags: np.ndarray
    objective: float
    iterations: int
    restart_index: int
    discriminants: np.ndarray
    stable: bool
    selection_score: float = 0.0


def assign(data, params: MixtureParams, rule: str = "likelihood") -> tuple[np.ndarray, np.ndarray]:
    """Hard assignment plus the (n, k) matrix of ``log phi_j(x_i)`` behind it.

    The default rule picks the cluster with the largest weighted density
    ``log(weight_j) + log phi_j`` (a zero weight gives -inf). The "distance"
    rule picks the nearest mean in Euclidean distance. A running strict
    comparison sends ties to the smallest index, as ``argmax`` does. The
    matrix (column-major) carries no weights: :func:`discriminants` adds
    them for the rows' own clusters. ``data`` is a finite float (n, p)
    array, as :func:`fit` passes it. Both rules compute in (p, min(n, BLOCK))
    scratch buffers, and the comparison runs per block of rows, so nothing
    but the matrix and the labels is n long.
    """
    if rule not in ASSIGNMENT_RULES:
        raise ValueError(f"unknown assignment rule {rule!r}")
    n, p = data.shape
    m = min(n, BLOCK)
    diff, z = np.empty((p, m)), np.empty((p, m))
    log_phi = np.empty((n, params.k), order="F")
    for j, comp in enumerate(params.components):
        log_density(data, comp, (diff, z, log_phi[:, j]))
    likelihood = rule == "likelihood"
    if likelihood:
        logw = params.log_weights
    better = np.greater if likelihood else np.less
    labels = np.zeros(n, dtype=np.intp)
    top, other = np.empty(m), np.empty(m)
    for cols, d, sq in column_blocks(n, diff, z):
        width = cols.stop - cols.start
        best, s, block_labels = top[:width], other[:width], labels[cols]
        for j, comp in enumerate(params.components):
            score = s if j else best
            if likelihood:
                np.add(log_phi[cols, j], logw[j], out=score)
            else:
                np.subtract(data.T[:, cols], comp.mean[:, None], out=d)
                np.sum(np.square(d, out=sq), axis=0, out=score)
            if j:
                wins = better(s, best)
                np.copyto(block_labels, j, where=wins)
                np.copyto(best, s, where=wins)
    return labels, log_phi


def discriminants(params: MixtureParams, labels, log_phi) -> np.ndarray:
    """Weighted density ``weight_l * phi_l(x_i)`` of each row's cluster l,
    from those rows' own-cluster log-densities ``log_phi`` (length n)."""
    out = params.log_weights[labels]
    out += log_phi
    return np.exp(out, out=out)


def update_weights(assignments, k: int) -> np.ndarray:
    """Optimal mixture weights given a hard assignment: cluster counts over
    the number of assigned points."""
    return np.bincount(np.asarray(assignments, dtype=int), minlength=k) / len(assignments)


def pseudo_beta_likelihood(log_phi, params: MixtureParams, assignments, beta: float) -> float:
    """Objective value of a hard-assigned mixture at exponent ``beta``.

    Averages, over observations, ``log(weight) + phi^beta / beta - I_beta/(1+beta)``
    for the assigned component (``I_beta`` the power integral): the
    :func:`component_fit_score` plus ``sum_j n_j log(weight_j) / n`` over the
    non-empty clusters. At beta = 0 the middle terms become the plain
    log-density, recovering the classification log-likelihood. Empty
    clusters contribute nothing. ``log_phi`` holds each row's log-density
    under its assigned component.
    """
    counts = np.bincount(assignments, minlength=params.k)
    used = counts > 0
    weight_term = float(counts[used] @ params.log_weights[used])
    return component_fit_score(log_phi, params, assignments, beta) + weight_term / len(log_phi)


def component_fit_score(log_phi, params: MixtureParams, assignments, beta: float) -> float:
    """Aggregate per-component fit score: the objective without log-weights.

    This is the sum the parameter-update step maximizes blockwise, averaged
    over observations. Unlike the full objective it carries no reward for
    concentrating counts, so comparing restarts by it does not favor merged
    configurations; see :class:`AlgoConfig`. ``log_phi`` holds each row's
    log-density under its assigned component.
    """
    total = 0.0
    for j, comp in enumerate(params.components):
        logs = log_phi[assignments == j]
        if len(logs) == 0:
            continue
        if beta == 0.0:
            total += logs.sum()
        else:
            total += np.exp(beta * logs).sum() / beta
            total -= len(logs) * dpd_integral(comp.log_det, comp.dim, beta) / (1.0 + beta)
    return float(total / len(log_phi))


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
        components=[GaussianComponent.trusted(data[i].copy(), eye.copy()) for i in idx],
    )
    return params, assign(data, params)[0]


def detect_outliers(disc, threshold: float) -> np.ndarray:
    """Flag observations whose sample-size-scaled assigned-cluster
    discriminant ``n * D`` (``disc`` from :func:`discriminants`) is at or
    below the threshold (inclusive), so the threshold reads as an
    expected-observation count at the point; a zero threshold never flags.
    A flagged point keeps its cluster, and that cluster is its outlier type.
    """
    return disc * len(disc) <= threshold


@dataclass
class _Step(MixtureParams):
    """One M-step's mixture, with each cluster's unprojected fit (the next
    M-step's warm start) and whether a capped fit stopped short of the
    IRLS stop."""

    fitted: list[GaussianComponent] = field(default_factory=list)
    cut: bool = False


def _m_step(data, assignments, k: int, cfg: AlgoConfig, prev: list[GaussianComponent] | None,
            cold_fits: dict, cap: int | None = None) -> _Step:
    """Refit each cluster on its members, then project the covariances.

    ``prev`` is None on a restart's first M-step, whose fits are cold and
    shared through ``cold_fits``, keyed by the packed membership mask.
    Otherwise it holds the warm starts, and a warm fit takes at most
    ``cap`` IRLS steps (no limit but the IRLS stop when None). A cluster of
    fewer than p + 1 members, or whose first step trips the denominator
    guard, keeps its start (cold: its mean and the identity).
    """
    p = data.shape[1]
    weights = update_weights(assignments, k)
    comps: list[GaussianComponent] = []
    converged = True
    for j in range(k):
        in_j = assignments == j
        # a cold fit reads the member rows alone: one per membership mask
        key = np.packbits(in_j).tobytes() if prev is None else None
        if key in cold_fits:
            comps.append(cold_fits[key])
            continue
        # the same rows in the same order, still column-major
        members = np.compress(in_j, data.T, axis=1).T
        comp = prev[j] if prev is not None else None
        if len(members) >= p + 1:
            try:
                fit = fit_component(members, cfg.beta, init=comp, max_steps=cap)
                comp, converged = fit.estimate, converged and fit.converged
            except NonPositiveDenominatorError:
                pass
        if comp is None:
            comp = GaussianComponent.trusted(
                members.mean(axis=0) if len(members) else np.zeros(p), np.eye(p))
        if key is not None:
            cold_fits[key] = comp
        comps.append(comp)
    # A covariance the projection left alone comes back as the same object,
    # and its component is kept. A projected one is the package's own: finite
    # and exactly symmetric, so only its Cholesky factor is computed.
    covs = enforce_constraints([c.cov for c in comps], cfg.constraint)
    return _Step(weights=weights,
                 components=[c if cov is c.cov else GaussianComponent.trusted(c.mean, cov)
                             for c, cov in zip(comps, covs)],
                 fitted=comps, cut=cap is not None and not converged)


def _own_column(matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``matrix[i, labels[i]]`` for every row i, as a new length-n array,
    built column by column with no length-n index array."""
    out = matrix[:, 0].copy()
    for j in range(1, matrix.shape[1]):
        np.copyto(out, matrix[:, j], where=labels == j)
    return out


def _reseed_empty(labels: np.ndarray, params: MixtureParams, log_phi: np.ndarray,
                  reseeds: np.ndarray) -> bool:
    """Move the lowest-discriminant points into emptied clusters, in place.

    ``log_phi`` is the (n, k) matrix :func:`assign` returned with ``labels``.
    Returns True when a cluster empties for the second time (degenerate).
    """
    counts = np.bincount(labels, minlength=params.k)
    empty = np.flatnonzero(counts == 0)
    if len(empty) == 0:
        return False
    disc = discriminants(params, labels, _own_column(log_phi, labels))
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


def fit_single(data, k: int, cfg: AlgoConfig, init_assignments: np.ndarray, *,
               cold_fits: dict | None = None) -> dict:
    """Run one restart of the outer loop from an initial assignment.

    The first M-step's fits are cold and uncapped. After an assignment that
    moved labels, each warm fit of the next M-step takes at most
    ``WARM_STEP_CAP`` IRLS steps, from the cluster's last unprojected fit.
    The restart stops when an assignment leaves the labels unchanged after
    an M-step whose fits the cap did not cut; when the cap did cut one, the
    next M-step runs uncapped first. ``stable`` says that stop was reached.

    Returns a dict with the degenerate flag and iterations and, unless the
    restart degenerated, params, assignments, ``log_phi`` (each row's
    log-density under the component it is assigned to, from the last
    :func:`assign` under those params), the stability flag and the
    selection score (:func:`component_fit_score`). ``log_phi`` is read after
    the empty-cluster reseed, so it belongs to the returned cluster even for
    a row the reseed moved; such a row is off the rule's choice, in a stable
    fit too. When ``max_outer_iter`` is hit, ``stable`` is False and the
    params come from the M-step before that last reassignment, so the
    weights need not equal the final cluster shares. ``data`` is a finite
    float (n, p) array, as :func:`fit` passes it. ``init_assignments`` is
    only read, and the returned assignments are a new array. ``cold_fits``
    maps a packed membership mask to the component the first M-step fitted
    (or fell back to) for those rows, exact for any restart on the same
    ``data`` and ``cfg``; it is read and filled, and is empty when omitted.
    """
    assignments = np.asarray(init_assignments, dtype=int)
    # Only ``assignments`` may hold the initial labels: it drops them at the
    # first reassignment.
    del init_assignments
    reseeds = np.zeros(k, dtype=int)
    fitted: list[GaussianComponent] | None = None
    cap = None
    cold_fits = {} if cold_fits is None else cold_fits
    for iterations in range(1, cfg.max_outer_iter + 1):
        step = _m_step(data, assignments, k, cfg, fitted, cold_fits, cap)
        fitted = step.fitted
        labels, log_phi = assign(data, step, cfg.assignment_rule)
        if _reseed_empty(labels, step, log_phi, reseeds):
            return {"degenerate": True, "iterations": iterations}
        moved = not np.array_equal(labels, assignments)
        assignments = labels
        stable = not (moved or step.cut)
        if stable or iterations == cfg.max_outer_iter:
            break
        # Capped while the labels move; once they hold, one uncapped M-step.
        cap = WARM_STEP_CAP if moved else None
        del log_phi  # free the (n, k) matrix before the next assignment builds another
    # The own-cluster column, read after the reseed moved rows.
    log_phi = _own_column(log_phi, assignments)
    params = MixtureParams(weights=step.weights, components=step.components)
    return {
        "degenerate": False,
        "params": params,
        "assignments": assignments,
        "log_phi": log_phi,
        "iterations": iterations,
        "stable": stable,
        "selection_score": component_fit_score(log_phi, params, assignments, cfg.beta),
    }


def _run_restart(data, k: int, cfg: AlgoConfig, cold_fits: dict, r: int) -> dict:
    """Restart r: its initial assignment, drawn from a generator seeded by
    ``(cfg.seed, r)``, then :func:`fit_single` from there. The labels go
    straight into the call, so this frame does not keep them alive."""
    return fit_single(data, k, cfg, initialize(data, k, np.random.default_rng([cfg.seed, r]))[1],
                      cold_fits=cold_fits)


def _keep_better(best: tuple[int, dict] | None, r: int, outcome: dict) -> tuple[int, dict] | None:
    """``(r, outcome)`` when restart r beats ``best`` (``(restart, outcome)``
    or None) by the rule :func:`fit` states, else ``best``."""
    if outcome["degenerate"]:
        log.debug("restart %d degenerate after %d iterations", r, outcome["iterations"])
        return best
    if best is None:
        return r, outcome
    top = best[1]["selection_score"]
    if outcome["selection_score"] - top > RESTART_TIE_RTOL * max(1.0, abs(top)):
        return r, outcome
    return best


def fit(data, k: int, cfg: AlgoConfig | None = None, *, workers: int = 1) -> ClusteringResult:
    """Fit a k-component robust mixture with multi-restart selection.

    Each restart draws its own initialization from a generator seeded by
    ``(cfg.seed, restart_index)``, so results are reproducible. Restarts
    whose clusters empty twice are discarded; if every restart degenerates a
    :class:`DegenerateClusteringError` is raised. The winner is the restart
    with the highest selection score; a later restart wins only when it
    scores higher by more than ``RESTART_TIE_RTOL`` (1e-12) times
    ``max(1, |best score|)``, so of restarts that reach one fixed point the
    first is kept. The winner's discriminants, objective and outlier flags
    all come from its last assignment's log-densities, so the written
    discriminant is the one the flag used. ``data`` is checked
    here, once, by :func:`~mixclust.gaussian.as_data_matrix`; every function
    it calls trusts the resulting finite float (n, p) array. That array is
    column-major (Fortran order; data already stored so is not copied),
    so the kernels compute on ``data.T``, a C-contiguous (p, n) view whose
    rows are the coordinates.

    With ``workers > 1`` (Linux only) the restarts run in a pool of
    ``min(workers, n_restarts)`` forked processes, each with this
    process's BLAS settings (:func:`~mixclust.workers.fork_map`).
    ``mixclust fit``, which runs one BLAS thread, passes one worker per
    CPU the process may run on, so ``taskset`` limits them. Outcomes are
    compared in restart order as they arrive, by the same rule, and only
    the best is kept, so the result is byte-identical for every worker
    count. The restarts share this call's ``cold_fits`` (:func:`fit_single`),
    one copy per forked worker, which changes what is reused, never the
    result. Beyond that cache (an n/8-byte key and a component per
    distinct initial cluster) memory does not grow with the restart count:
    while a restart runs serially, this process holds the data, the best
    finished outcome and that restart's working set. (In the pool, an
    outcome that arrives ahead of its turn waits there until it is
    compared.) A restart's exception reaches the caller with its own type.
    The items of :func:`~mixclust.simulation.run_experiment` call this serially,
    because their pool is one level up, and so does
    :func:`~mixclust.imageseg.segment`: its few restarts are each about one
    outer iteration over every pixel, where forking and sending back the
    (n,) results cost what a second core saves; its per-pixel distances
    run in blocks (:func:`~mixclust.gaussian.mahalanobis_sq`) that never
    wake the BLAS threads.
    """
    cfg = cfg or AlgoConfig()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    data = np.asfortranarray(as_data_matrix(data))
    if k < 1:
        raise ValueError("k must be at least 1")
    if data.shape[0] < k:
        raise ValueError(f"need at least k={k} observations, got {data.shape[0]}")
    # Outcomes are reduced one by one: the tie rule is not associative, so
    # no subset of restarts may be reduced on its own first. Each outcome is
    # bound only inside ``_keep_better``, so while restart r runs the one
    # finished outcome alive is the best, not restart r - 1's as well.
    best = None
    with closing(fork_map(partial(_run_restart, data, k, cfg, {}), range(cfg.n_restarts),
                          workers)) as outcomes:
        for r in range(cfg.n_restarts):
            best = _keep_better(best, r, next(outcomes))
    if best is None:
        raise DegenerateClusteringError("every restart emptied a cluster twice")
    best_restart, best = best
    params, labels, log_phi = best["params"], best["assignments"], best["log_phi"]
    disc = discriminants(params, labels, log_phi)
    return ClusteringResult(
        params=params,
        assignments=labels,
        outlier_flags=detect_outliers(disc, cfg.outlier_threshold),
        objective=pseudo_beta_likelihood(log_phi, params, labels, cfg.beta),
        iterations=best["iterations"],
        restart_index=best_restart,
        discriminants=disc,
        stable=best["stable"],
        selection_score=best["selection_score"],
    )
