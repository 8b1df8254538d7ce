"""Eigenvalue-ratio and non-singularity constraints across component covariances.

Feasibility means the ratio of the largest to smallest eigenvalue, pooled
over all components, stays below ``c`` and the smallest eigenvalue stays
above the floor ``c1``. Enforcement clips every pooled eigenvalue into a
window ``[t, c*t]`` whose threshold ``t`` is chosen by scanning a candidate
set and minimizing the squared log-distortion of the spectrum; eigenvectors
are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import validate_cov


@dataclass
class ConstraintConfig:
    c: float = 20.0
    c1: float = 0.1

    def __post_init__(self):
        # Written so that NaN fails each test.
        if not 1.0 <= self.c < np.inf:
            raise ValueError("eigenvalue ratio bound c must be finite and >= 1")
        if not 0.0 < self.c1 < np.inf:
            raise ValueError("eigenvalue floor c1 must be finite and positive")


_REL_TOL = 1e-9  # eigensolver noise allowance, matters only at c = 1


def check_constraints(covs, cfg: ConstraintConfig) -> tuple[bool, float, float]:
    """Return (feasible, M, m): global max/min eigenvalues over all components.

    This is the API edge: each covariance is checked by
    :func:`~mixclust.gaussian.validate_cov` before its spectrum is read, and
    all must share one dimension. :func:`enforce_constraints` checks nothing.
    """
    covs = [validate_cov(cov) for cov in covs]
    if not covs or len({cov.shape for cov in covs}) > 1:
        raise ValueError("need at least one covariance, all of one dimension")
    pooled = np.concatenate([np.linalg.eigh(cov)[0] for cov in covs])
    big, small = float(pooled.max()), float(pooled.min())
    feasible = (small >= cfg.c1 * (1.0 - _REL_TOL)
                and big <= cfg.c * small * (1.0 + _REL_TOL))
    return feasible, big, small


def enforce_constraints(covs, cfg: ConstraintConfig) -> list[np.ndarray]:
    """Project the covariances onto the feasible set by eigenvalue clipping.

    Already-feasible input is returned unchanged. Otherwise each matrix is
    rebuilt from its own eigenvectors with eigenvalues clipped into
    ``[t, c*t]``. The threshold ``t >= c1`` is scanned over the candidates
    ``{c1} | {lambda} | {lambda / c}`` and the one minimizing the sum of
    squared log-deviations between original and clipped eigenvalues wins.
    The output always satisfies :func:`check_constraints`. The inputs are
    trusted to be finite, exactly symmetric matrices of one dimension, as
    ``_m_step`` passes them; the output is finite and exactly symmetric too.
    """
    spectra = [np.linalg.eigh(cov) for cov in covs]
    pooled = np.concatenate([vals for vals, _ in spectra])
    small, big = float(pooled.min()), float(pooled.max())
    if small >= cfg.c1 and big <= cfg.c * small:
        return [np.array(cov, dtype=float) for cov in covs]

    cands = np.concatenate(([cfg.c1], pooled, pooled / cfg.c))
    cands = np.unique(cands[cands >= cfg.c1])
    safe = np.log(np.maximum(pooled, 1e-300))
    clipped = np.clip(pooled[None, :], cands[:, None], cfg.c * cands[:, None])
    loss = np.sum((np.log(clipped) - safe[None, :]) ** 2, axis=1)
    t = float(cands[np.argmin(loss)])

    out = []
    for vals, vecs in spectra:
        new_vals = np.clip(vals, t, cfg.c * t)
        rebuilt = (vecs * new_vals) @ vecs.T
        out.append(0.5 * (rebuilt + rebuilt.T))
    return out
