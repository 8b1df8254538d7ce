"""In-test oracles: direct formulas that the library's kernels are checked
against and the feasibility check of the eigenvalue constraints, kept here
because no library code calls them, and a probe of the BLAS thread counts
the library leaves in place."""

from dataclasses import dataclass

import numpy as np

from mixclust.constraints import ConstraintConfig
from mixclust.gaussian import (LOG_2PI, GaussianComponent, as_data_matrix, dpd_integral,
                               log_density, validate_cov)
from mixclust.influence import (
    FunctionalSolution,
    TrueDistribution,
    _Measure,
    _solve_system,
    _theta,
    _weighted,
    solve_functional,
)


def component_beta_objective(data, comp: GaussianComponent, beta: float) -> float:
    """Sample fit criterion for one component at downweighting exponent beta.

    For beta > 0 returns ``mean(phi^beta) / beta - I_beta / (1 + beta)``
    where ``I_beta`` is :func:`~mixclust.gaussian.dpd_integral`. The beta = 0
    path returns the mean log-likelihood, the limiting criterion up to
    constants.
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


def estimating_equation_residual(data, comp: GaussianComponent,
                                 beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two density-power estimating equations.

    Returns the left-hand sides of

    ``mean_i phi^beta(X_i) (X_i - mean) = 0`` and
    ``mean_i phi^beta(X_i) (cov - S_i) = c0 * cov``,

    with ``S_i`` the centered outer products and
    ``c0 = beta (2*pi)**(-p*beta/2) det(cov)**(-beta/2) (1+beta)**(-(p+2)/2)``.
    Both residuals vanish at any fixed point of
    :func:`~mixclust.mdpde.irls_step`. ``data`` is a finite float (n, p) array.
    """
    n, p = data.shape
    phi_beta = np.exp(beta * log_density(data, comp))
    centered = data - comp.mean
    vec = (phi_beta[:, None] * centered).mean(axis=0)
    scatter = np.einsum("n,ni,nj->ij", phi_beta, centered, centered) / n
    c0 = beta * np.exp(-0.5 * beta * (p * LOG_2PI + comp.log_det)
                       - 0.5 * (p + 2) * np.log1p(beta))
    mat = phi_beta.mean() * comp.cov - scatter - c0 * comp.cov
    return vec, mat


_REL_TOL = 1e-9  # eigensolver noise allowance, matters only at c = 1


def check_constraints(covs, cfg: ConstraintConfig) -> tuple[bool, float, float]:
    """Return (feasible, M, m): global max/min eigenvalues over all components.

    The feasibility oracle for :func:`~mixclust.constraints.enforce_constraints`,
    which checks nothing: each covariance is checked by
    :func:`~mixclust.gaussian.validate_cov` before its spectrum is read, and
    all must share one dimension.
    """
    covs = [validate_cov(cov) for cov in covs]
    if not covs or len({cov.shape for cov in covs}) > 1:
        raise ValueError("need at least one covariance, all of one dimension")
    pooled = np.concatenate([np.linalg.eigh(cov)[0] for cov in covs])
    big, small = float(pooled.max()), float(pooled.min())
    feasible = (small >= cfg.c1 * (1.0 - _REL_TOL)
                and big <= cfg.c * small * (1.0 + _REL_TOL))
    return feasible, big, small


@dataclass(frozen=True)
class ContaminatedMeasure(_Measure):
    """(1 - eps) * dist + eps * point mass at y, with the atom handled exactly
    inside every integral, never as a density bump."""

    atom_y: float = 0.0
    atom_eps: float = 0.0

    def mass_between(self, a: float, b: float) -> float:
        base = super().mass_between(a, b)
        return (1.0 - self.atom_eps) * base + self.atom_eps * float(a < self.atom_y < b)

    def density(self, x: float) -> float:
        """Density of the continuous part at x; the atom adds none."""
        return (1.0 - self.atom_eps) * super().density(x)

    def moments(self, mu: float, var: float, beta: float, lo: float, hi: float) -> np.ndarray:
        total = super().moments(mu, var, beta, lo, hi)
        total *= 1.0 - self.atom_eps
        if self.atom_eps and lo < self.atom_y < hi:  # identity rows: f^beta(y) z^j
            total += self.atom_eps * _weighted(np.eye(5), mu, var, beta, self.atom_y)
        return total


def numeric_if_oracle(dist: TrueDistribution, beta: float,
                      cfg: ConstraintConfig | None = None, y: float = 0.0,
                      eps_list: tuple[float, ...] = (1e-4, 5e-5), *,
                      base: FunctionalSolution | None = None) -> np.ndarray:
    """Influence vector by explicit epsilon-contamination and extrapolation.

    For each epsilon the functional's Newton solve runs under the
    contaminated measure, warm-started at the clean solution; the
    difference quotients are then Richardson-extrapolated. Independent of
    the linear system, so the two routes validate each other.
    """
    cfg = cfg or ConstraintConfig(c=5.0, c1=0.1)
    if len(eps_list) < 1:
        raise ValueError("need at least one epsilon")
    sol0 = base if base is not None else solve_functional(dist, beta, cfg)
    theta0 = sol0.as_vector()
    u0 = np.array([sol0.mu1, sol0.mu2, np.log(sol0.var1), np.log(sol0.var2), sol0.a, sol0.b])
    quotients = []
    for eps in eps_list:
        measure = ContaminatedMeasure(dist, atom_y=float(y), atom_eps=float(eps))
        u, _ = _solve_system(measure, beta, u0)
        quotients.append((_theta(u, measure) - theta0) / eps)
    est = quotients[0]
    for prev_eps, eps, quot in zip(eps_list, eps_list[1:], quotients[1:]):
        # One Richardson step per pair removes the first-order error term.
        est = (prev_eps * quot - eps * est) / (prev_eps - eps)
    return est


def openblas_thread_counts() -> list[int]:
    """``get_num_threads`` of every OpenBLAS mapped into this process, read
    through ``/proc/self/maps``. Self-contained, so a fresh interpreter can
    run its source (``inspect.getsource``) without importing this module."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts
