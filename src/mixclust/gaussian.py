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

# Widest column block of the distance kernels. A (p, p) x (p, 8192) GEMM ran
# on one OpenBLAS thread for every p up to 20; a (3, 131 072) one used two.
BLOCK = 8192


def as_data_matrix(data) -> np.ndarray:
    """Coerce ``data`` to an (n, p) float matrix with p >= 1; 1-D input becomes (n, 1)."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DimensionMismatchError(f"expected an (n, p) matrix, p >= 1, got shape {arr.shape}")
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


def from_spectrum(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The exactly symmetric matrix ``vecs @ diag(vals) @ vecs.T``, or a stack of
    them from stacked ``(..., p)`` eigenvalues and ``(..., p, p)`` eigenvectors
    as ``np.linalg.eigh`` returns them; each matrix of a stack has the bits it
    has on its own."""
    rebuilt = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (rebuilt + np.swapaxes(rebuilt, -1, -2))


def cholesky_spd(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``cov``; typed error when not SPD.

    LAPACK factors a matrix holding NaN or inf without an error, so a
    non-finite factor is rejected here too.
    """
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance is not positive definite") from exc
    if not np.isfinite(chol).all():
        raise NotPositiveDefiniteError("non-finite covariance")
    return chol


@dataclass
class GaussianComponent:
    """One normal component: mean vector and SPD covariance.

    The constructor is the API edge: it coerces the mean and checks the
    covariance (:func:`validate_cov`). :meth:`trusted` skips those checks
    for components the package builds itself. Either way the lower
    Cholesky factor is computed at construction, which also checks
    positive definiteness; the log-determinant on first read. Instances
    are treated as immutable.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

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
        self.chol = cholesky_spd(self.cov)

    @classmethod
    def trusted(cls, mean: np.ndarray, cov: np.ndarray) -> GaussianComponent:
        """A component from arrays the package produced itself.

        ``mean`` is a float p-vector and ``cov`` a finite, exactly symmetric
        float (p, p) matrix: an IRLS iterate, a robust start, an initial or
        fallback identity, or a constrained covariance. Both are kept as
        given, with no coercion, shape or symmetry check. The Cholesky
        factor still raises :class:`NotPositiveDefiniteError`.
        """
        comp = cls.__new__(cls)
        comp.mean = mean
        comp.cov = cov
        comp.chol = cholesky_spd(cov)
        return comp

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def column_blocks(n: int, diff: np.ndarray, z: np.ndarray):
    """Each of ``ceil(n / BLOCK)`` near-equal column spans, as a slice and
    contiguous (p, width) views of the front of ``diff`` and ``z``. No span
    is one column wide, which numpy would multiply by GEMV, rounding otherwise."""
    p, parts = diff.shape[0], -(-n // BLOCK)
    for i in range(parts):
        cols = slice(n * i // parts, n * (i + 1) // parts)
        size = p * (cols.stop - cols.start)
        yield (cols, diff.reshape(-1)[:size].reshape(p, -1),
               z.reshape(-1)[:size].reshape(p, -1))


def mahalanobis_sq(x, comp: GaussianComponent, work=None):
    """Squared Mahalanobis distance (x - mean)' cov^{-1} (x - mean).

    The kernel computes on ``x.T``: ``inv(L) @ (x.T - mean[:, None])``, then
    a column sum of squares. For the column-major (n, p) data that
    :func:`~mixclust.clustering.fit` passes, ``x.T`` is a C-contiguous
    (p, n) view, so every pass runs over contiguous rows. Past ``BLOCK``
    points the three calls run per block (:func:`column_blocks`), whose
    GEMM never wakes OpenBLAS's threads; every sum is within one column, so
    the bits do not depend on the blocking.

    Parameters
    ----------
    x : array_like
        A single p-vector or an (n, p) matrix of points.
    comp : GaussianComponent
    work : tuple of ndarray, optional
        ``(diff, z, out)``: C-contiguous float (p, m) scratch, m = n up to
        ``BLOCK`` points and m >= ``BLOCK`` past it, and the (n,) output, for
        an (n, p) float matrix ``x``. The kernel then trusts ``x`` (no
        coercion or shape check) and returns ``out``.

    Returns
    -------
    float or ndarray
        Scalar for a single point, length-n vector for a matrix.
    """
    single = work is None and np.ndim(x) == 1
    if work is None:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != comp.dim:
            raise DimensionMismatchError(
                f"point dimension {x.shape[1]} does not match component dimension {comp.dim}")
        m = min(len(x), BLOCK)
        work = np.empty((comp.dim, m)), np.empty((comp.dim, m)), np.empty(len(x))
    diff, z, out = work
    # One GEMM with the inverse Cholesky factor: faster than a triangular
    # solve at every (n, p) this package meets, and numpy-only.
    inv_chol = np.linalg.inv(comp.chol)
    # One column_blocks block gives the same bits, but 2-3 us more a call at
    # n = 330, p = 6, where the paper's simulate cell makes 26 400 calls.
    if len(out) <= BLOCK:
        np.subtract(x.T, comp.mean[:, None], out=diff)
        np.matmul(inv_chol, diff, out=z)
        np.einsum("ij,ij->j", z, z, out=out)
    else:
        for cols, d, zb in column_blocks(len(out), diff, z):
            np.subtract(x.T[:, cols], comp.mean[:, None], out=d)
            np.matmul(inv_chol, d, out=zb)
            np.einsum("ij,ij->j", zb, zb, out=out[cols])
    return float(out[0]) if single else out


def log_density(x, comp: GaussianComponent, work=None):
    """Log of the p-variate normal density at ``x``; checks ``x`` as
    :func:`mahalanobis_sq` does and trusts ``comp``. With its ``work`` the
    density is written into, and returned as, the (n,) output."""
    q = mahalanobis_sq(x, comp, work)
    if work is None:
        return -0.5 * (comp.dim * LOG_2PI + comp.log_det + q)
    np.add(q, comp.dim * LOG_2PI + comp.log_det, out=q)
    return np.multiply(q, -0.5, out=q)


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
