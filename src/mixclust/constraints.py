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

from .gaussian import from_spectrum


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


def enforce_constraints(covs, cfg: ConstraintConfig) -> list[np.ndarray]:
    """Project the covariances onto the feasible set by eigenvalue clipping.

    All k spectra come from one stacked ``eigh``. Already-feasible input is
    returned as the given matrices themselves, not copies. Otherwise each
    matrix is rebuilt from its own eigenvectors with eigenvalues clipped
    into ``[t, c*t]`` (:func:`~mixclust.gaussian.from_spectrum`). The
    threshold ``t >= c1`` is scanned over the candidates
    ``{c1} | {lambda} | {lambda / c}`` and the one minimizing the sum of
    squared log-deviations between original and clipped eigenvalues wins.
    The inputs are trusted to be finite, exactly symmetric matrices of one
    dimension, as ``_m_step`` passes them; the output is finite and exactly
    symmetric too.
    """
    vals, vecs = np.linalg.eigh(np.stack(covs))
    small, big = float(vals.min()), float(vals.max())
    if small >= cfg.c1 and big <= cfg.c * small:
        return list(covs)

    pooled = vals.ravel()
    cands = np.concatenate(([cfg.c1], pooled, pooled / cfg.c))
    cands = np.unique(cands[cands >= cfg.c1])
    safe = np.log(np.maximum(pooled, 1e-300))
    clipped = np.clip(pooled[None, :], cands[:, None], cfg.c * cands[:, None])
    loss = np.sum((np.log(clipped) - safe[None, :]) ** 2, axis=1)
    t = float(cands[np.argmin(loss)])
    return list(from_spectrum(np.clip(vals, t, cfg.c * t), vecs))
