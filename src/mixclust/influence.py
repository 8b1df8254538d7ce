"""Influence diagnostics for the two-component univariate functional.

The population version of the clustering objective, for one dimension and
two clusters whose discriminants cross at two points a < b (the narrow
component owning the interval), defines the parameter functional
implicitly through eight stationarity equations: the interval mass, the
weight identity, the two boundary crossings, and the four downweighted
moment equations of the two components. :func:`solve_functional` solves
that system by damped Newton, taking its Jacobian from the analytic
derivative ``A`` of the eight equations. Every integral in both is
f_j^beta * P(x - mu_j) against the data law over (a, b) or its complement,
P a polynomial of degree at most 4 given by a coefficient row (c0..c4),
so it is that row times the closed-form truncated moments M_0..M_4 of
f_j^beta against the law: no quadrature, and numpy and ``math`` only.

Differentiating the system under point-mass contamination at ``y`` yields
an 8x8 linear system ``A @ IF = B(y)`` with the same matrix ``A``, taken at
the solution; :func:`if_curve` solves it for a whole grid of ``y`` at once
(a one-point grid gives one point's vector). :func:`assemble_if_system`
builds ``A`` afresh on every call, from one Jacobian and one set of
integrals, which is cheap next to the solve. Influence vectors are
ordered ``(pi1, pi2, a, b, mu1, mu2, var1, var2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .constraints import ConstraintConfig
from .errors import ConstraintBoundaryError, GeometryError, SolveError
from .gaussian import LOG_2PI

IF_COLUMNS = ("pi1", "pi2", "a", "b", "mu1", "mu2", "s1", "s2")
# if_curve refuses an influence matrix whose condition number exceeds this.
MAX_CONDITION = 1e12
# Newton in solve_functional stops once every residual is at most SOLVE_TOL,
# and fails if that takes more than SOLVE_MAX_ITER steps.
SOLVE_TOL = 1e-9
SOLVE_MAX_ITER = 80
# Where the reduced system is defined; Newton starts, and stays, inside it.
SOLVE_DOMAIN = "a < b, |log variance| <= 50 and pi1 more than 1e-12 from 0 and 1"


def __getattr__(name):
    # ``quad`` is served only for bench/tracer.py's span, until the benchmark
    # drops it; that span needs scipy installed, which mixclust does not.
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    return quad


@dataclass(frozen=True)
class TrueDistribution:
    """Two-component univariate normal mixture used as the data law."""

    weights: tuple[float, float]
    means: tuple[float, float]
    variances: tuple[float, float]

    def __post_init__(self):
        if not (all(0.0 < w < 1.0 for w in self.weights)
                and abs(self.weights[0] + self.weights[1] - 1.0) <= 1e-12):
            raise ValueError("weights must lie strictly between 0 and 1 and sum to 1")
        if not all(math.isfinite(m) for m in self.means):
            raise ValueError("means must be finite")
        if not all(0.0 < v < math.inf for v in self.variances):
            raise ValueError("variances must be finite and positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return sum(w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
                   for w, m, v in zip(self.weights, self.means, self.variances))

    def cdf(self, x: float) -> float:
        """Distribution function at the scalar ``x``."""
        return sum(0.5 * w * math.erfc((m - x) / math.sqrt(2.0 * v))
                   for w, m, v in zip(self.weights, self.means, self.variances))


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
    """The data law ``dist`` as the measure the stationarity integrals run against."""

    dist: TrueDistribution

    def mass_between(self, a: float, b: float) -> float:
        return self.dist.cdf(b) - self.dist.cdf(a)

    def density(self, x: float) -> float:
        return float(self.dist.pdf(x))

    def moments(self, mu: float, var: float, beta: float, lo: float, hi: float) -> np.ndarray:
        """M_j = integral over (lo, hi) of z^j f^beta(x) dP(x), z = x - mu, j = 0..4.

        Each law component times f^beta is a scaled normal N(mu + d, tau^2): with
        g = exp(-(z - d)^2 / 2 tau^2), M_k = d M_{k-1} + tau^2 ((k - 1) M_{k-2} -
        [z^{k-1} g]_lo^hi) (Johnson, Kotz & Balakrishnan 1994, ch. 13).
        """
        total = np.zeros(5)
        for w, m, v in zip(self.dist.weights, self.dist.means, self.dist.variances):
            den = var + beta * v
            tau2, d = v * var / den, (m - mu) * var / den
            scale = w * math.exp(-0.5 * (math.log(2.0 * math.pi * v) + beta * (
                LOG_2PI + math.log(var)) + beta * (m - mu) ** 2 / den))
            # The normal mass of (lo, hi), from the tail that keeps its precision.
            sl, su = ((x - mu - d) / math.sqrt(2.0 * tau2) for x in (lo, hi))
            mass = math.erfc(sl) - math.erfc(su) if sl > 0.0 else math.erfc(-su) - math.erfc(-sl)
            # (z, g) at each endpoint; both vanish at an infinite one.
            (zl, gl), (zh, gh) = ((0.0, 0.0) if math.isinf(x) else (x - mu, math.exp(
                -(x - mu - d) ** 2 / (2.0 * tau2))) for x in (lo, hi))
            mom = [math.sqrt(0.5 * math.pi * tau2) * mass, 0.0, 0.0, 0.0, 0.0]
            for k in range(1, 5):  # at k = 1 the M_{k-2} term is 0 * M_4 = 0
                mom[k] = d * mom[k - 1] + tau2 * ((k - 1) * mom[k - 2]
                                                  - zh ** (k - 1) * gh + zl ** (k - 1) * gl)
            total += scale * np.array(mom)
        return total

    def integrals(self, beta: float, a: float, b: float, mu1: float, mu2: float,
                  v1: float, v2: float, rows: slice = slice(0, 2)) -> tuple:
        """Integrals of f_j^beta * P for the chosen coefficient rows (by default
        location and spread): component 1 on (a, b), component 2 on
        (-inf, a) and (b, inf)."""
        inner = self.moments(mu1, v1, beta, a, b)
        outer = self.moments(mu2, v2, beta, -math.inf, a) + self.moments(mu2, v2, beta, b, math.inf)
        return tuple(np.array(_poly_rows(v, beta)[rows]) @ mom
                     for v, mom in ((v1, inner), (v2, outer)))


def _f_pow_beta(x, mu: float, var: float, beta: float):
    return np.exp(beta * (-0.5 * (LOG_2PI + np.log(var)) - 0.5 * (x - mu) ** 2 / var))


def _poly_rows(v: float, beta: float) -> tuple:
    """Coefficient rows (c0..c4) in z = x - mu of the polynomials beside f^beta:
    location z, spread z^2/v - 1, then the location and the spread integrand's
    derivatives in mu and var, f^beta differentiated too."""
    return ((0.0, 1.0, 0.0, 0.0, 0.0),
            (-1.0, 0.0, 1.0 / v, 0.0, 0.0),
            (-1.0, 0.0, beta / v, 0.0, 0.0),
            (0.0, -0.5 * beta / v, 0.0, 0.5 * beta / v**2, 0.0),
            (0.0, -(beta + 2.0) / v, 0.0, beta / v**2, 0.0),
            (0.5 * beta / v, 0.0, -(beta + 1.0) / v**2, 0.0, 0.5 * beta / v**3))


def _weighted(rows, mu: float, var: float, beta: float, x):
    """f^beta(x) * P(x - mu) for a row, or stacked rows (one per leading index);
    0, its limit, wherever f^beta underflows to 0, even if P(x - mu) overflowed."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        f = _f_pow_beta(x, mu, var, beta)
        return np.where(f == 0.0, 0.0, f * polyval(x - mu, np.asarray(rows).T))


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


def _system_residual(u: np.ndarray, measure: _Measure, beta: float) -> np.ndarray | None:
    """Residuals of the six free equations at u = (mu1, mu2, log v1, log v2, a, b),
    or None off the system's domain (:data:`SOLVE_DOMAIN`).

    The two weight equations are eliminated: pi1 is the measure's mass on
    (a, b) and pi2 its complement.
    """
    mu1, mu2, lv1, lv2, a, b = u
    if not (a < b) or max(abs(lv1), abs(lv2)) > 50:
        return None
    v1, v2 = np.exp(lv1), np.exp(lv2)
    pi1 = measure.mass_between(a, b)
    pi2 = 1.0 - pi1
    if not (1e-12 < pi1 < 1.0 - 1e-12):
        return None
    (loc1, spr1), (loc2, spr2) = measure.integrals(beta, a, b, mu1, mu2, v1, v2)
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
    # d/d(mu), d/d(var) of the location and spread integrands, plus the
    # derivative of the kappa * pi correction in var.
    (loc_dmu1, loc_dv1, spr_dmu1, spr_dv1), (loc_dmu2, loc_dv2, spr_dmu2, spr_dv2) = (
        measure.integrals(beta, a, b, mu1, mu2, v1, v2, rows=slice(2, 6)))
    kap1, kap2 = _kappa(v1, beta), _kappa(v2, beta)
    dkap1, dkap2 = -0.5 * beta * kap1 / v1, -0.5 * beta * kap2 / v2

    # Boundary terms: location and spread integrands (rows) at a and b
    # (columns), times the density, with opposite signs on the two regions.
    ends, dens = np.array([a, b]), np.array([-pa, pb])
    edge1 = _weighted(_poly_rows(v1, beta)[:2], mu1, v1, beta, ends) * dens
    edge2 = -_weighted(_poly_rows(v2, beta)[:2], mu2, v2, beta, ends) * dens

    A = np.zeros((8, 8))
    A[0] = [1.0, 0.0, pa, -pb, 0.0, 0.0, 0.0, 0.0]
    A[1] = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for row, x in ((2, a), (3, b)):  # the crossing at x, which is column `row`
        A[row] = [2.0 / pi1, -2.0 / pi2, 0.0, 0.0,
                  2.0 * (x - mu1) / v1, -2.0 * (x - mu2) / v2,
                  (x - mu1) ** 2 / v1**2 - 1.0 / v1, 1.0 / v2 - (x - mu2) ** 2 / v2**2]
        A[row, row] = -2.0 * ((x - mu1) / v1 - (x - mu2) / v2)
    A[4] = [0.0, 0.0, *edge1[0], loc_dmu1, 0.0, loc_dv1, 0.0]
    A[5] = [0.0, 0.0, *edge2[0], 0.0, loc_dmu2, 0.0, loc_dv2]
    A[6] = [kap1, 0.0, *edge1[1], spr_dmu1, 0.0, spr_dv1 + dkap1 * pi1, 0.0]
    A[7] = [0.0, kap2, *edge2[1], 0.0, spr_dmu2, 0.0, spr_dv2 + dkap2 * pi2]
    return A


def _reduced_jacobian(u: np.ndarray, measure: _Measure, beta: float) -> np.ndarray:
    """Derivative of :func:`_system_residual` in u, by the chain rule on rows 2-7.

    The crossing rows are halved (the full system holds twice the gap), the
    variance columns scale by v = exp(log v), and a and b also move
    pi1 = mass(a, b), by minus the interval-mass row, and pi2 = 1 - pi1.
    """
    mu1, mu2, lv1, lv2, a, b = u
    v1, v2 = np.exp(lv1), np.exp(lv2)
    pi1 = measure.mass_between(a, b)
    full = _stationarity_jacobian(np.array([pi1, 1.0 - pi1, a, b, mu1, mu2, v1, v2]),
                                  measure, beta)
    rows = full[2:]
    rows[:2] *= 0.5
    return np.hstack([rows[:, 4:6], rows[:, 6:8] * [v1, v2],
                      rows[:, 2:4] + np.outer(rows[:, 0] - rows[:, 1], -full[0, 2:4])])


def _solve_system(measure: _Measure, beta: float, u0: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped Newton with the analytic Jacobian on the reduced system, from
    ``u0``; returns the solution ``u`` and its largest residual."""
    u = np.array(u0, dtype=float)
    res = _system_residual(u, measure, beta)
    if res is None:
        raise SolveError(f"functional solve starts outside its domain ({SOLVE_DOMAIN})")
    norm = float(np.linalg.norm(res))
    for _ in range(SOLVE_MAX_ITER):
        worst = float(np.max(np.abs(res)))
        if worst <= SOLVE_TOL:
            return u, worst
        jac = _reduced_jacobian(u, measure, beta)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolveError("singular Jacobian in functional solve") from exc
        t = 1.0
        while t > 1e-8:
            cand = u + t * step
            cand_res = _system_residual(cand, measure, beta)
            # a candidate off the domain is no better
            if cand_res is not None and (cand_norm := float(np.linalg.norm(cand_res))) < norm:
                u, res, norm = cand, cand_res, cand_norm
                break
            t *= 0.5
        else:
            break
    worst = float(np.max(np.abs(res)))
    if worst > SOLVE_TOL:
        raise SolveError(f"functional solve stalled at residual {worst:.3e}")
    return u, worst


def solve_functional(dist: TrueDistribution, beta: float,
                     cfg: ConstraintConfig) -> FunctionalSolution:
    """Solve the eight stationarity equations for the bounded-interval case.

    Newton starts from the data law's own parameters with the interval
    endpoints taken from the exact discriminant crossings. The solution is
    validated for interval geometry, residuals at or below ``SOLVE_TOL``,
    and strict interiority of the eigenvalue constraints (ratio strictly
    below ``cfg.c`` and smallest variance strictly above ``cfg.c1``). A law
    so far out of scale that a float overflows, or whose own parameters put
    that start outside :data:`SOLVE_DOMAIN`, raises :class:`SolveError`.
    """
    if beta <= 0:
        raise ValueError("beta must be positive (the beta = 0 influence is unbounded)")
    measure = _Measure(dist)
    (m1, m2), (v1, v2) = dist.means, dist.variances
    try:
        a0, b0 = _crossing_points(*dist.weights, m1, m2, v1, v2)
        u, res_norm = _solve_system(measure, beta,
                                    np.array([m1, m2, np.log(v1), np.log(v2), a0, b0]))
    except (OverflowError, ZeroDivisionError) as exc:
        raise SolveError(f"functional solve failed in floating point: {exc}") from exc
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


def assemble_if_system(sol: FunctionalSolution, dist: TrueDistribution,
                       y) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the influence linear system at ``y``, for
    the exponent the solution was solved at (``sol.beta``).

    The matrix is :func:`_stationarity_jacobian` at the solution under the
    uncontaminated law, the same derivative Newton uses in the solve, and
    does not depend on ``y``. The right-hand side depends on ``y`` only
    through the interval indicator and the bounded downweighted score and
    spread terms, which is what makes every influence component bounded
    for beta > 0. For an array of m points the right-hand sides are the
    columns of B.
    """
    measure, beta = _Measure(dist), sol.beta
    A = _stationarity_jacobian(sol.as_vector(), measure, beta)
    (loc1, spr1), (loc2, spr2) = measure.integrals(beta, sol.a, sol.b, sol.mu1, sol.mu2,
                                                   sol.var1, sol.var2)
    y = np.asarray(y, dtype=float)
    inside = (sol.a < y) & (y < sol.b)
    own1 = _weighted(_poly_rows(sol.var1, beta)[:2], sol.mu1, sol.var1, beta, y) * inside
    own2 = _weighted(_poly_rows(sol.var2, beta)[:2], sol.mu2, sol.var2, beta, y) * ~inside
    B = np.zeros((8,) + y.shape)
    B[0] = inside - measure.mass_between(sol.a, sol.b)
    B[4], B[6] = loc1 - own1[0], spr1 - own1[1]
    B[5], B[7] = loc2 - own2[0], spr2 - own2[1]
    return A, B


def if_curve(sol: FunctionalSolution, dist: TrueDistribution, y_grid) -> np.ndarray:
    """Influence vectors over a grid: rows ``(y, pi1, pi2, a, b, mu1, mu2, s1, s2)``,
    at the solution's own ``sol.beta``.

    The matrix does not depend on y, so the whole grid is one linear solve.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    A, B = assemble_if_system(sol, dist, y_grid)
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SolveError(f"influence matrix ill-conditioned (estimate {cond:.3e})")
    return np.column_stack([y_grid, np.linalg.solve(A, B).T])


def write_if_curve(path, table: np.ndarray) -> None:
    header = "y," + ",".join(f"IF_{name}" for name in IF_COLUMNS)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.12g")
