"""Single-component robust fitting by iteratively reweighted least squares.

The fixed point of the iteration solves the density-power estimating
equations: observations are weighted by ``exp(-beta/2 * mahalanobis_sq)``,
so distant points contribute almost nothing for beta > 0, and the
covariance denominator carries the model-integral correction
``n * beta / (1 + beta)**(p/2 + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDenominatorError, NotPositiveDefiniteError
from .gaussian import GaussianComponent, from_spectrum, mahalanobis_sq

# Unitless guard: the covariance denominator must exceed MIN_DENOMINATOR * n,
# and it also scales the eigenvalue floor of the robust starting point.
MIN_DENOMINATOR = 1e-8

# The reweighted iteration stops once the mean and covariance steps are both
# at most IRLS_TOL, or after IRLS_MAX_ITER steps (read at call time).
IRLS_TOL = 1e-6
IRLS_MAX_ITER = 500


@dataclass
class ComponentFit:
    """Result of :func:`fit_component`."""

    estimate: GaussianComponent
    iterations: int
    converged: bool


def _floored_component(mean: np.ndarray, cov: np.ndarray) -> GaussianComponent:
    """Build a component from the symmetrised ``cov``, flooring its eigenvalues
    at ``max(1e-12 * trace, 1e-12)`` when it is not positive definite.
    Degenerate clusters (identical points) produce a zero scatter matrix;
    the minimal floor keeps the next weight evaluation defined."""
    cov = 0.5 * (cov + cov.T)
    try:
        return GaussianComponent.trusted(mean, cov)
    except NotPositiveDefiniteError:
        vals, vecs = np.linalg.eigh(cov)
        floor = max(1e-12 * max(np.trace(cov), 0.0), 1e-12)
        return GaussianComponent.trusted(mean, from_spectrum(np.maximum(vals, floor), vecs))


def _median(a: np.ndarray):
    """``np.median(a, axis=-1)`` with the same bits, partitioning ``a`` in place.

    One partition, at ``n // 2``: for an even n the lower middle value is
    the largest of the values before it, the same order statistic. The
    middle values are summed from 0.0, as np.median's ``mean`` sums
    them. That also turns a zero median into +0.0 whichever of 0.0 and
    -0.0 the partition put in the middle.
    """
    n = a.shape[-1]
    h = n // 2
    a.partition(h)
    if n % 2:
        return 0.0 + a[..., h]
    return (0.0 + a[..., :h].max(axis=-1) + a[..., h]) / 2


def robust_init(data) -> GaussianComponent:
    """Median-based starting point for the reweighted iteration.

    The mean starts at the componentwise medians. The covariance starts at
    1.4826**2 times the entrywise medians of the centered cross products, a
    multivariate analogue of the median absolute deviation. Eigenvalues are
    floored at ``MIN_DENOMINATOR * trace`` (with a tiny absolute fallback
    when a coordinate is entirely constant) so the result is always usable.
    ``data`` is a finite float (n, p) array, as :func:`fit_component` passes it.

    Each median is one in-place partition of a contiguous n-long run (a
    row of a (p, n) copy of ``data.T``, or one product of two centred
    coordinates), equal to ``np.median`` bit for bit.
    """
    n, p = data.shape
    if n < 2:
        raise ValueError("robust initialization needs at least two observations")
    center = _median(data.T.copy())
    dev = data.T - center[:, None]
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = _median(dev[i] * dev[j])
    cov *= 1.4826**2
    floor = max(MIN_DENOMINATOR * max(np.trace(cov), 0.0), 1e-12)
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    return GaussianComponent.trusted(center, from_spectrum(np.maximum(vals, floor), vecs))


def _work_buffers(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (p, n), (p, n) and (n,) float buffers one :func:`irls_step` works in."""
    return np.empty((p, n)), np.empty((p, n)), np.empty(n)


def irls_weights(data, comp: GaussianComponent, beta: float, work=None) -> np.ndarray:
    """Observation weights ``exp(-beta/2 * mahalanobis_sq)``, each in (0, 1],
    for a finite float (n, p) ``data`` and ``beta`` in [0, 1] (as ``AlgoConfig`` bounds it).
    They are computed in ``work``, buffers shaped as :func:`_work_buffers`
    makes them (allocated when omitted), and returned in its (n,) buffer."""
    w = mahalanobis_sq(data, comp, work if work is not None else _work_buffers(*data.shape))
    np.multiply(w, -0.5 * beta, out=w)
    return np.exp(w, out=w)


def irls_step(data, comp: GaussianComponent, beta: float, work=None) -> GaussianComponent:
    """One update of the reweighted iteration.

    The mean becomes the weighted average; the covariance is the weighted
    scatter about the new mean divided by ``sum(w) - n*beta/(1+beta)**(p/2+1)``.
    Raises :class:`NonPositiveDenominatorError` when that denominator falls
    below ``MIN_DENOMINATOR * n``, which signals a cluster too small for the
    requested downweighting; callers keep the previous estimate in that case.
    ``data`` is a finite float (n, p) array, as :func:`fit_component` passes it.
    The step computes on ``data.T`` in ``work`` (buffers shaped as
    :func:`_work_buffers` makes them, allocated per call when omitted): the
    distances run in blocks (:func:`~mixclust.gaussian.mahalanobis_sq`), but
    the weighted mean ``data.T @ w`` and the (p, n) x (n, p) scatter stay
    whole-length, as blocking their sums would change the bits. It trusts
    its own result: the new component is built by :meth:`GaussianComponent.trusted`.
    """
    n, p = data.shape
    work = work if work is not None else _work_buffers(n, p)
    w = irls_weights(data, comp, beta, work)
    total = w.sum()
    denom = total - n * beta / (1.0 + beta) ** (0.5 * p + 1.0)
    if denom <= MIN_DENOMINATOR * n:
        raise NonPositiveDenominatorError(
            f"covariance denominator {denom:.3e} below guard {MIN_DENOMINATOR * n:.3e}"
        )
    mean = (data.T @ w) / total
    diff, scaled, _ = work
    np.subtract(data.T, mean[:, None], out=diff)
    np.multiply(diff, w, out=scaled)
    return _floored_component(mean, scaled @ diff.T / denom)


def _norm(d: np.ndarray) -> float:
    """Euclidean (Frobenius) norm, computed as ``np.linalg.norm`` does."""
    d = d.ravel()
    return math.sqrt(d.dot(d))


def fit_component(data, beta: float, init: GaussianComponent | None = None) -> ComponentFit:
    """Fit one normal component by the reweighted iteration.

    Starts from :func:`robust_init` (or ``init`` when warm-starting) and
    iterates until both the Euclidean mean delta and Frobenius covariance
    delta drop to ``IRLS_TOL``, or ``IRLS_MAX_ITER`` steps are taken.
    Non-convergence is reported through ``converged=False``, not an error.
    At ``beta == 0`` the weights do not depend on the start, so the first
    step is the (unweighted) fixed point and the fit stops there, converged.

    A denominator-guard failure on the very first step propagates (the
    start is already too downweighted to move); tripping later stops the
    iteration and keeps the last valid iterate, again with
    ``converged=False``. ``data`` is a finite float (n, p) array; stored
    column-major, as :func:`~mixclust.clustering.fit` passes it, its
    transpose is a C-contiguous (p, n) view and every kernel pass runs over
    contiguous n-long rows (any layout gives a correct fit). Every step
    works in one set of (p, n), (p, n) and (n,) buffers, allocated here.
    """
    n, p = data.shape
    if n < 2:
        raise ValueError("covariance fitting needs at least two observations")
    comp = init if init is not None else robust_init(data)
    work = _work_buffers(n, p)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        try:
            new = irls_step(data, comp, beta, work)
        except NonPositiveDenominatorError:
            if iterations == 1:
                raise
            iterations -= 1
            break
        if beta == 0.0:
            # Every weight is exactly 1, so the next step would repeat this
            # one bit for bit: the first step is the fixed point.
            comp, converged = new, True
            break
        delta_mean = _norm(new.mean - comp.mean)
        delta_cov = _norm(new.cov - comp.cov)
        comp = new
        if delta_mean <= IRLS_TOL and delta_cov <= IRLS_TOL:
            converged = True
            break
    return ComponentFit(estimate=comp, iterations=iterations, converged=converged)
