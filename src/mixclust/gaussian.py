"""Multivariate normal kernels and the density-power integral.

All density work happens in log space so that values stay meaningful for
high dimensions and the very small outlier thresholds (down to 1e-24)
used by the clustering layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NotPositiveDefiniteError

LOG_2PI = float(np.log(2.0 * np.pi))


def as_data_matrix(data) -> np.ndarray:
    """Coerce ``data`` to an (n, p) float matrix; 1-D input becomes (n, 1)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, p) matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data contains non-finite values")
    return arr


def validate_cov(cov) -> np.ndarray:
    """Return ``cov`` as a float array after shape, finiteness and symmetry checks.

    Symmetry is required to within 1e-12 relative to the largest entry.
    Positive definiteness is checked later via the Cholesky factorization
    in :class:`GaussianComponent`; this function does not regularize (the
    constraints module owns all regularization).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise NotPositiveDefiniteError("non-finite covariance")
    scale = max(float(np.abs(cov).max()), 1.0)
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise NotPositiveDefiniteError("covariance is not symmetric")
    return cov


def cholesky_spd(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; typed error when not SPD."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc


@dataclass
class GaussianComponent:
    """One normal component: mean vector and SPD covariance.

    The lower Cholesky factor is computed at construction, which also
    checks positive definiteness; the log-determinant on first read.
    Instances are treated as immutable.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if self.mean.ndim != 1:
            raise DimensionMismatchError("mean must be a vector")
        self.cov = validate_cov(self.cov)
        if self.mean.shape[0] != self.cov.shape[0]:
            raise DimensionMismatchError(
                f"mean has dimension {self.mean.shape[0]} but covariance is "
                f"{self.cov.shape[0]}x{self.cov.shape[1]}"
            )
        self._chol = cholesky_spd(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def chol(self) -> np.ndarray:
        return self._chol

    @cached_property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))


def mahalanobis_sq(x, comp: GaussianComponent):
    """Squared Mahalanobis distance (x - mean)' cov^{-1} (x - mean).

    Parameters
    ----------
    x : array_like
        A single p-vector or an (n, p) matrix of points.
    comp : GaussianComponent

    Returns
    -------
    float or ndarray
        Scalar for a single point, length-n vector for a matrix.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != comp.dim:
        raise DimensionMismatchError(
            f"point dimension {pts.shape[1]} does not match component dimension {comp.dim}"
        )
    # One GEMM with the inverse Cholesky factor: faster than a triangular
    # solve at every (n, p) this package meets, and numpy-only.
    z = (pts - comp.mean) @ np.linalg.inv(comp.chol).T
    q = np.einsum("ij,ij->i", z, z)
    return float(q[0]) if single else q


def log_density(x, comp: GaussianComponent):
    """Log of the p-variate normal density at ``x``."""
    q = mahalanobis_sq(x, comp)
    return -0.5 * (comp.dim * LOG_2PI + comp.log_det + q)


def dpd_integral(log_det: float, p: int, beta: float) -> float:
    """Integral of the (1 + beta) power of a p-variate normal density whose
    covariance has log-determinant ``log_det``.

    Closed form ``(2*pi)**(-p*beta/2) * det(cov)**(-beta/2) * (1+beta)**(-p/2)``,
    which follows from rewriting the power of a normal density as a scaled
    normal density with covariance cov / (1 + beta). Equals 1 at beta = 0
    and is strictly decreasing in det(cov) for beta > 0.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return float(np.exp(-0.5 * beta * (p * LOG_2PI + log_det) - 0.5 * p * np.log1p(beta)))


def component_beta_objective(data, comp: GaussianComponent, beta: float) -> float:
    """Sample fit criterion for one component at downweighting exponent beta.

    For beta > 0 returns ``mean(phi^beta) / beta - I_beta / (1 + beta)``
    where ``I_beta`` is :func:`dpd_integral`. The beta = 0 path returns the
    mean log-likelihood, the limiting criterion up to constants.
    """
    data = as_data_matrix(data)
    if data.shape[0] == 0:
        raise ValueError("empty data")
    logs = log_density(data, comp)
    if beta == 0.0:
        return float(np.mean(logs))
    powered = np.exp(beta * logs)
    integral = dpd_integral(comp.log_det, comp.dim, beta)
    return float(np.mean(powered) / beta - integral / (1.0 + beta))
