"""Influence diagnostics for the two-component univariate functional.

The population version of the clustering objective, for one dimension and
two clusters whose discriminants cross at two points a < b (the narrow
component owning the interval), defines the parameter functional
implicitly through eight stationarity equations: the interval mass, the
weight identity, the two boundary crossings, and the four downweighted
moment equations of the two components. :func:`solve_functional` solves
that system by damped Newton with adaptive quadrature, taking its Jacobian
from the analytic derivative ``A`` of the eight equations.

Differentiating the system under point-mass contamination at ``y`` yields
an 8x8 linear system ``A @ IF = B(y)`` with the same matrix ``A``, taken at
the solution; :func:`influence_at` solves it, and
:func:`numeric_if_oracle` cross-checks it by re-solving the functional
under explicit epsilon-contamination and extrapolating the difference
quotients. Influence vectors are ordered
``(pi1, pi2, a, b, mu1, mu2, var1, var2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .constraints import ConstraintConfig
from .errors import ConstraintBoundaryError, GeometryError, SolveError
from .gaussian import LOG_2PI

IF_COLUMNS = ("pi1", "pi2", "a", "b", "mu1", "mu2", "s1", "s2")

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-10, limit=200)


@dataclass(frozen=True)
class TrueDistribution:
    """Two-component univariate normal mixture used as the data law."""

    weights: tuple[float, float]
    means: tuple[float, float]
    variances: tuple[float, float]

    def __post_init__(self):
        if abs(self.weights[0] + self.weights[1] - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if min(self.variances) <= 0:
            raise ValueError("variances must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.0
        for w, m, v in zip(self.weights, self.means, self.variances):
            out = out + w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.0
        for w, m, v in zip(self.weights, self.means, self.variances):
            out = out + w * ndtr((x - m) / np.sqrt(v))
        return out

    def support(self, spread: float = 12.0) -> tuple[float, float]:
        sds = np.sqrt(self.variances)
        lo = min(m - spread * s for m, s in zip(self.means, sds))
        hi = max(m + spread * s for m, s in zip(self.means, sds))
        return float(lo), float(hi)


@dataclass(frozen=True)
class FunctionalSolution:
    """Solved functional: weights, interval (a, b) and component moments."""

    pi1: float
    pi2: float
    a: float
    b: float
    mu1: float
    mu2: float
    var1: float
    var2: float
    beta: float
    residual_norm: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.pi1, self.pi2, self.a, self.b,
                         self.mu1, self.mu2, self.var1, self.var2])


@dataclass(frozen=True)
class _Measure:
    """(1 - eps) * dist + eps * point mass at y; eps = 0 gives plain dist."""

    dist: TrueDistribution
    atom_y: float = 0.0
    atom_eps: float = 0.0

    def mass_between(self, a: float, b: float) -> float:
        base = float(self.dist.cdf(b) - self.dist.cdf(a))
        if self.atom_eps == 0.0:
            return base
        return (1.0 - self.atom_eps) * base + self.atom_eps * float(a < self.atom_y < b)

    def density(self, x: float) -> float:
        """Density of the continuous part at x; the atom adds none."""
        return (1.0 - self.atom_eps) * float(self.dist.pdf(x))

    def integrate(self, fn, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        val, _ = quad(lambda x: fn(x) * self.dist.pdf(x), lo, hi, **_QUAD_OPTS)
        if self.atom_eps == 0.0:
            return float(val)
        atom = fn(self.atom_y) if lo < self.atom_y < hi else 0.0
        return float((1.0 - self.atom_eps) * val + self.atom_eps * atom)

    def outside(self, fn, a: float, b: float) -> float:
        """Integral off (a, b), over the law's support widened to contain it."""
        lo, hi = self.dist.support()
        return self.integrate(fn, min(lo, a - 1.0), a) + self.integrate(fn, b, max(hi, b + 1.0))


def _f_pow_beta(x, mu: float, var: float, beta: float):
    return np.exp(beta * (-0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mu) ** 2 / var))


def _loc(x, mu: float, var: float, beta: float):
    """Location integrand f^beta (x - mu)."""
    return _f_pow_beta(x, mu, var, beta) * (x - mu)


def _spread(x, mu: float, var: float, beta: float):
    """Spread integrand f^beta ((x - mu)^2 / var - 1)."""
    return _f_pow_beta(x, mu, var, beta) * ((x - mu) ** 2 / var - 1.0)


def _kappa(var: float, beta: float) -> float:
    # Derivative constant of the power-integral term of the objective.
    return beta * (2.0 * np.pi) ** (-0.5 * beta) * var ** (-0.5 * beta) * (1.0 + beta) ** -1.5


def _log_disc_gap(x: float, pi1: float, pi2: float, mu1: float, mu2: float,
                  var1: float, var2: float) -> float:
    d1 = np.log(pi1) - 0.5 * (LOG_2PI + np.log(var1)) - 0.5 * (x - mu1) ** 2 / var1
    d2 = np.log(pi2) - 0.5 * (LOG_2PI + np.log(var2)) - 0.5 * (x - mu2) ** 2 / var2
    return float(d1 - d2)


def _crossing_points(pi1: float, pi2: float, mu1: float, mu2: float,
                     var1: float, var2: float) -> tuple[float, float]:
    """Roots of the discriminant gap; requires the bounded-interval geometry.

    The gap is a quadratic in x; the component-1 region is a bounded
    interval exactly when the leading coefficient is negative (the first
    component strictly narrower) and two real roots exist.
    """
    qa = 0.5 * (1.0 / var2 - 1.0 / var1)
    qb = mu1 / var1 - mu2 / var2
    qc = (np.log(pi1 / pi2) - 0.5 * np.log(var1 / var2)
          - 0.5 * mu1**2 / var1 + 0.5 * mu2**2 / var2)
    if qa >= 0.0:
        raise GeometryError(
            "discriminant-gap quadratic is not concave: the first component "
            "region is unbounded (half-line or complement geometry)")
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        raise GeometryError("discriminant gap has no real crossings")
    r1 = (-qb + np.sqrt(disc)) / (2.0 * qa)
    r2 = (-qb - np.sqrt(disc)) / (2.0 * qa)
    return (min(r1, r2), max(r1, r2))


def _moment_integrals(measure: _Measure, beta: float, a: float, b: float,
                      mu1: float, mu2: float, v1: float, v2: float) -> tuple:
    """Location and spread integrals: component 1 on (a, b), component 2 off it."""
    return (measure.integrate(partial(_loc, mu=mu1, var=v1, beta=beta), a, b),
            measure.outside(partial(_loc, mu=mu2, var=v2, beta=beta), a, b),
            measure.integrate(partial(_spread, mu=mu1, var=v1, beta=beta), a, b),
            measure.outside(partial(_spread, mu=mu2, var=v2, beta=beta), a, b))


def _system_residual(u: np.ndarray, measure: _Measure, beta: float) -> np.ndarray:
    """Residuals of the six free equations at u = (mu1, mu2, log v1, log v2, a, b).

    The two weight equations are eliminated: pi1 is the measure's mass on
    (a, b) and pi2 its complement.
    """
    mu1, mu2, lv1, lv2, a, b = u
    if not (a < b) or max(abs(lv1), abs(lv2)) > 50:
        return np.full(6, 1e6)
    v1, v2 = np.exp(lv1), np.exp(lv2)
    pi1 = measure.mass_between(a, b)
    pi2 = 1.0 - pi1
    if not (1e-12 < pi1 < 1.0 - 1e-12):
        return np.full(6, 1e6)
    loc1, loc2, spr1, spr2 = _moment_integrals(measure, beta, a, b, mu1, mu2, v1, v2)
    r3 = _log_disc_gap(a, pi1, pi2, mu1, mu2, v1, v2)
    r4 = _log_disc_gap(b, pi1, pi2, mu1, mu2, v1, v2)
    r7 = spr1 + _kappa(v1, beta) * pi1
    r8 = spr2 + _kappa(v2, beta) * pi2
    return np.array([r3, r4, loc1, loc2, r7, r8])


def _stationarity_jacobian(theta: np.ndarray, measure: _Measure,
                           beta: float) -> np.ndarray:
    """8x8 derivative of the stationarity system at any parameter point.

    Unknown order: theta = (pi1, pi2, a, b, mu1, mu2, var1, var2). Rows:
    interval mass, weight identity, the two boundary crossings (twice the
    discriminant gap), the two location equations and the two spread
    equations. Integral coefficients differentiate the stationarity
    integrands in their parameters; boundary terms pick up the measure's
    density with opposite signs on the interval and its complement.
    """
    pi1, pi2, a, b, mu1, mu2, v1, v2 = (float(t) for t in theta)
    pa, pb = measure.density(a), measure.density(b)

    f1b = partial(_f_pow_beta, mu=mu1, var=v1, beta=beta)
    f2b = partial(_f_pow_beta, mu=mu2, var=v2, beta=beta)
    inner = partial(measure.integrate, lo=a, hi=b)
    outer = partial(measure.outside, a=a, b=b)

    # d/d(mu), d/d(var) of the location integrand f^beta (x - mu).
    loc_dmu1 = inner(lambda x: f1b(x) * (beta * (x - mu1) ** 2 / v1 - 1.0))
    loc_dmu2 = outer(lambda x: f2b(x) * (beta * (x - mu2) ** 2 / v2 - 1.0))
    loc_dv1 = inner(lambda x: 0.5 * beta * f1b(x)
                    * ((x - mu1) ** 3 / v1**2 - (x - mu1) / v1))
    loc_dv2 = outer(lambda x: 0.5 * beta * f2b(x)
                    * ((x - mu2) ** 3 / v2**2 - (x - mu2) / v2))

    # d/d(mu), d/d(var) of the spread integrand f^beta ((x-mu)^2/v - 1),
    # plus the derivative of the kappa * pi correction in var.
    spr_dmu1 = inner(lambda x: f1b(x) * (x - mu1) / v1
                     * (beta * ((x - mu1) ** 2 / v1 - 1.0) - 2.0))
    spr_dmu2 = outer(lambda x: f2b(x) * (x - mu2) / v2
                     * (beta * ((x - mu2) ** 2 / v2 - 1.0) - 2.0))
    spr_dv1 = inner(lambda x: f1b(x) * (0.5 * beta / v1 * ((x - mu1) ** 2 / v1 - 1.0) ** 2
                                        - (x - mu1) ** 2 / v1**2))
    spr_dv2 = outer(lambda x: f2b(x) * (0.5 * beta / v2 * ((x - mu2) ** 2 / v2 - 1.0) ** 2
                                        - (x - mu2) ** 2 / v2**2))
    kap1, kap2 = _kappa(v1, beta), _kappa(v2, beta)
    dkap1 = -0.5 * beta * kap1 / v1
    dkap2 = -0.5 * beta * kap2 / v2

    gap_a = (a - mu1) / v1 - (a - mu2) / v2
    gap_b = (b - mu1) / v1 - (b - mu2) / v2

    A = np.zeros((8, 8))
    A[0] = [1.0, 0.0, pa, -pb, 0.0, 0.0, 0.0, 0.0]
    A[1] = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    A[2] = [2.0 / pi1, -2.0 / pi2, -2.0 * gap_a, 0.0,
            2.0 * (a - mu1) / v1, -2.0 * (a - mu2) / v2,
            (a - mu1) ** 2 / v1**2 - 1.0 / v1,
            1.0 / v2 - (a - mu2) ** 2 / v2**2]
    A[3] = [2.0 / pi1, -2.0 / pi2, 0.0, -2.0 * gap_b,
            2.0 * (b - mu1) / v1, -2.0 * (b - mu2) / v2,
            (b - mu1) ** 2 / v1**2 - 1.0 / v1,
            1.0 / v2 - (b - mu2) ** 2 / v2**2]
    A[4] = [0.0, 0.0, -_loc(a, mu1, v1, beta) * pa, _loc(b, mu1, v1, beta) * pb,
            loc_dmu1, 0.0, loc_dv1, 0.0]
    A[5] = [0.0, 0.0, _loc(a, mu2, v2, beta) * pa, -_loc(b, mu2, v2, beta) * pb,
            0.0, loc_dmu2, 0.0, loc_dv2]
    A[6] = [kap1, 0.0, -_spread(a, mu1, v1, beta) * pa, _spread(b, mu1, v1, beta) * pb,
            spr_dmu1, 0.0, spr_dv1 + dkap1 * pi1, 0.0]
    A[7] = [0.0, kap2, _spread(a, mu2, v2, beta) * pa, -_spread(b, mu2, v2, beta) * pb,
            0.0, spr_dmu2, 0.0, spr_dv2 + dkap2 * pi2]
    return A


def _reduced_jacobian(u: np.ndarray, measure: _Measure, beta: float) -> np.ndarray:
    """Derivative of :func:`_system_residual` in u, by the chain rule on rows 2-7.

    The crossing rows are halved (the full system holds twice the gap), the
    variance columns scale by v = exp(log v), and a and b also move
    pi1 = mass(a, b) and pi2 = 1 - pi1.
    """
    mu1, mu2, lv1, lv2, a, b = u
    v1, v2 = np.exp(lv1), np.exp(lv2)
    pi1 = measure.mass_between(a, b)
    rows = _stationarity_jacobian(np.array([pi1, 1.0 - pi1, a, b, mu1, mu2, v1, v2]),
                                  measure, beta)[2:]
    rows[:2] *= 0.5
    dpi1 = np.array([-measure.density(a), measure.density(b)])
    return np.hstack([rows[:, 4:6], rows[:, 6:8] * [v1, v2],
                      rows[:, 2:4] + np.outer(rows[:, 0] - rows[:, 1], dpi1)])


def _solve_system(measure: _Measure, beta: float, u0: np.ndarray,
                  tol: float, max_iter: int) -> tuple[np.ndarray, float]:
    """Damped Newton with the analytic Jacobian on the reduced system."""
    u = np.array(u0, dtype=float)
    res = _system_residual(u, measure, beta)
    norm = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if float(np.max(np.abs(res))) <= tol:
            return u, float(np.max(np.abs(res)))
        jac = _reduced_jacobian(u, measure, beta)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolveError("singular Jacobian in functional solve") from exc
        t = 1.0
        while t > 1e-8:
            cand = u + t * step
            cand_res = _system_residual(cand, measure, beta)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                u, res, norm = cand, cand_res, cand_norm
                break
            t *= 0.5
        else:
            break
    if float(np.max(np.abs(res))) > tol:
        raise SolveError(f"functional solve stalled at residual {np.max(np.abs(res)):.3e}")
    return u, float(np.max(np.abs(res)))


def solve_functional(dist: TrueDistribution, beta: float,
                     cfg: ConstraintConfig | None = None, *,
                     init: FunctionalSolution | None = None,
                     _measure: _Measure | None = None,
                     tol: float = 1e-9, max_iter: int = 80) -> FunctionalSolution:
    """Solve the eight stationarity equations for the bounded-interval case.

    Newton starts from the data law's own parameters (or ``init`` when
    warm-starting) with the interval endpoints taken from the exact
    discriminant crossings. The solution is validated for interval
    geometry, residuals at or below 1e-8, and strict interiority of the
    eigenvalue constraints (ratio strictly below ``cfg.c`` and smallest
    variance strictly above ``cfg.c1``).
    """
    if beta <= 0:
        raise ValueError("beta must be positive (the beta = 0 influence is unbounded)")
    cfg = cfg or ConstraintConfig(c=5.0, c1=0.1)
    measure = _measure if _measure is not None else _Measure(dist)
    if init is not None:
        u0 = np.array([init.mu1, init.mu2, np.log(init.var1), np.log(init.var2),
                       init.a, init.b])
    else:
        w1, w2 = dist.weights
        m1, m2 = dist.means
        v1, v2 = dist.variances
        a0, b0 = _crossing_points(w1, w2, m1, m2, v1, v2)
        u0 = np.array([m1, m2, np.log(v1), np.log(v2), a0, b0])
    u, res_norm = _solve_system(measure, beta, u0, tol, max_iter)
    mu1, mu2, lv1, lv2, a, b = u
    v1, v2 = float(np.exp(lv1)), float(np.exp(lv2))
    pi1 = measure.mass_between(a, b)
    pi2 = 1.0 - pi1
    # The solved endpoints must coincide with the exact crossings (interval
    # geometry); a mismatch means the iteration drifted out of this case.
    ca, cb = _crossing_points(pi1, pi2, mu1, mu2, v1, v2)
    span = max(b - a, 1.0)
    if abs(ca - a) > 1e-5 * span or abs(cb - b) > 1e-5 * span:
        raise GeometryError("solved endpoints do not match the discriminant crossings")
    big, small = max(v1, v2), min(v1, v2)
    if not (big / small < cfg.c and small > cfg.c1):
        raise ConstraintBoundaryError(
            f"solution touches the constraint set: ratio {big / small:.4g} vs c={cfg.c}, "
            f"min variance {small:.4g} vs c1={cfg.c1}")
    return FunctionalSolution(pi1=float(pi1), pi2=float(pi2), a=float(a), b=float(b),
                              mu1=float(mu1), mu2=float(mu2), var1=v1, var2=v2,
                              beta=float(beta), residual_norm=res_norm)


# ---------------------------------------------------------------------------
# Linearized influence system
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _matrix_and_constants(sol: FunctionalSolution, dist: TrueDistribution,
                          beta: float) -> tuple:
    """The y-independent matrix of the influence system plus cached pieces.

    The matrix is :func:`_stationarity_jacobian` at the solution under the
    uncontaminated law, the same derivative Newton uses in the solve.
    """
    measure = _Measure(dist)
    A = _stationarity_jacobian(sol.as_vector(), measure, beta)
    c1, c2, c3, c4 = _moment_integrals(measure, beta, sol.a, sol.b,
                                       sol.mu1, sol.mu2, sol.var1, sol.var2)
    consts = {"C1": c1, "C2": c2, "C3": c3, "C4": c4,
              "mass": measure.mass_between(sol.a, sol.b)}
    return A, consts


def assemble_if_system(sol: FunctionalSolution, dist: TrueDistribution,
                       beta: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the influence linear system at ``y``.

    The matrix is independent of ``y`` and cached per (solution, beta); the
    right-hand side depends on ``y`` only through the interval indicator and
    the bounded downweighted score and spread terms, which is what makes
    every influence component bounded for beta > 0.
    """
    A, consts = _matrix_and_constants(sol, dist, beta)
    a, b = sol.a, sol.b
    inside = bool(a < y < b)
    B = np.zeros(8)
    B[0] = -consts["mass"] + (1.0 if inside else 0.0)
    B[4] = consts["C1"] - _loc(y, sol.mu1, sol.var1, beta) * (1.0 if inside else 0.0)
    B[5] = consts["C2"] - _loc(y, sol.mu2, sol.var2, beta) * (0.0 if inside else 1.0)
    B[6] = consts["C3"] - _spread(y, sol.mu1, sol.var1, beta) * (1.0 if inside else 0.0)
    B[7] = consts["C4"] - _spread(y, sol.mu2, sol.var2, beta) * (0.0 if inside else 1.0)
    return np.array(A, copy=True), B


def influence_at(sol: FunctionalSolution, dist: TrueDistribution,
                 beta: float, y: float, *, max_condition: float = 1e12) -> np.ndarray:
    """Influence vector at contamination point ``y`` via the linear system."""
    A, B = assemble_if_system(sol, dist, beta, y)
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > max_condition:
        raise SolveError(f"influence matrix ill-conditioned (estimate {cond:.3e})")
    return np.linalg.solve(A, B)


def numeric_if_oracle(dist: TrueDistribution, beta: float,
                      cfg: ConstraintConfig | None = None, y: float = 0.0,
                      eps_list: tuple[float, ...] = (1e-4, 5e-5), *,
                      base: FunctionalSolution | None = None) -> np.ndarray:
    """Influence vector by explicit epsilon-contamination and extrapolation.

    For each epsilon the functional is re-solved under the contaminated
    measure (point mass handled analytically inside every integral, never
    as a density bump), warm-started at the clean solution; the difference
    quotients are then Richardson-extrapolated. Independent of the linear
    system, so the two routes validate each other.
    """
    cfg = cfg or ConstraintConfig(c=5.0, c1=0.1)
    if len(eps_list) < 1:
        raise ValueError("need at least one epsilon")
    sol0 = base if base is not None else solve_functional(dist, beta, cfg)
    theta0 = sol0.as_vector()
    quotients = []
    for eps in eps_list:
        measure = _Measure(dist, atom_y=float(y), atom_eps=float(eps))
        sol_eps = solve_functional(dist, beta, cfg, init=sol0, _measure=measure)
        quotients.append((sol_eps.as_vector() - theta0) / eps)
    est = quotients[0]
    for prev_eps, eps, quot in zip(eps_list, eps_list[1:], quotients[1:]):
        # One Richardson step per pair removes the first-order error term.
        est = (prev_eps * quot - eps * est) / (prev_eps - eps)
    return est


def if_curve(sol: FunctionalSolution, dist: TrueDistribution, beta: float,
             y_grid) -> np.ndarray:
    """Influence vectors over a grid: rows ``(y, pi1, pi2, a, b, mu1, mu2, s1, s2)``."""
    y_grid = np.asarray(y_grid, dtype=float)
    rows = np.empty((len(y_grid), 9))
    for i, y in enumerate(y_grid):
        rows[i, 0] = y
        rows[i, 1:] = influence_at(sol, dist, beta, float(y))
    return rows


def write_if_curve(path, table: np.ndarray) -> None:
    header = "y," + ",".join(f"IF_{name}" for name in IF_COLUMNS)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.12g")
