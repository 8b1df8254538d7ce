"""In-test oracles: direct formulas that the library's kernels are checked
against, kept here because no library code calls them."""

import numpy as np

from mixclust.gaussian import LOG_2PI, GaussianComponent, as_data_matrix, dpd_integral, log_density


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
