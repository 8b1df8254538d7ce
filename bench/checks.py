"""Output checks for the benchmark workloads, made with numpy and math only.

Each check recomputes what the CLI wrote from the written numbers and the
generator's planted truth, or tests a property the method must have. None
imports mixclust and none compares against a stored copy of earlier output.
Every function returns ``(ok, message)``; the message names the first
mismatch.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Rates the workloads must reach on every seed (README.md, "Output checks").
FIT_RECOVERY_MIN = 0.99
FIT_FAR_FLAGGED_MIN = 0.99
SIM_ROBUST_MISCLASS_MAX = 0.02
SIM_ROBUST_UNDETECTED_MAX = 0.05
SIM_PLAIN_MISCLASS_MIN = 0.15
IMAGE_RECOVERY_MIN = 0.99
IMAGE_ANOMALY_FLAGGED_MIN = 0.95

LOG_2PI = math.log(2.0 * math.pi)


def _best_match_rate(pred: np.ndarray, true: np.ndarray, k: int) -> float:
    """Share of rows whose predicted label equals the truth under the best
    relabelling of the predictions."""
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, int(np.sum(np.asarray(perm)[pred] == true)))
    return best / len(true)


# --- fit ---------------------------------------------------------------------


def log_discriminants(data, weights, means, covs) -> np.ndarray:
    """(n, k) matrix of log w_j + log phi_j(x) from a Cholesky of each cov."""
    n, p = data.shape
    cols = []
    for w, mu, cov in zip(weights, means, covs):
        chol = np.linalg.cholesky(np.asarray(cov))
        z = np.linalg.solve(chol, (data - np.asarray(mu)).T)
        maha = np.sum(z * z, axis=0)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        cols.append(math.log(w) - 0.5 * (p * LOG_2PI + log_det + maha))
    return np.column_stack(cols)


def _eigen_bounds_ok(covs, c: float, c1: float) -> tuple[bool, str]:
    eig = np.concatenate([np.linalg.eigvalsh(np.asarray(cov)) for cov in covs])
    lo, hi = float(eig.min()), float(eig.max())
    if lo < c1 * (1.0 - 1e-9) or hi > c * lo * (1.0 + 1e-9):
        return False, f"pooled eigenvalues [{lo:.6g}, {hi:.6g}] break c={c}, c1={c1}"
    return True, ""


def check_fit(truth: dict, result_path: Path, assignments_path: Path,
              c: float, c1: float) -> tuple[bool, str]:
    data, labels, far = truth["data"], truth["labels"], truth["far"]
    res = json.loads(result_path.read_text(encoding="utf-8"))
    n, k = len(data), res["k"]
    if res["n"] != n or res["p"] != data.shape[1]:
        return False, f"result.json shape ({res['n']}, {res['p']}) != input {data.shape}"
    with open(assignments_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["row", "cluster", "discriminant", "outlier", "outlier_type"]:
        return False, f"unexpected assignments.csv header {rows[0]}"
    rows = rows[1:]
    if len(rows) != n:
        return False, f"assignments.csv has {len(rows)} rows for {n} inputs"
    row_ids = np.array([int(r[0]) for r in rows])
    cluster = np.array([int(r[1]) for r in rows]) - 1
    disc = np.array([float(r[2]) for r in rows])
    flag = np.array([r[3] == "1" for r in rows])
    otype = np.array([int(r[4]) - 1 if r[4] else -1 for r in rows])
    if not np.array_equal(row_ids, np.arange(1, n + 1)):
        return False, "assignments.csv rows are not 1..n in order"

    logd = log_discriminants(data, res["weights"], res["means"], res["covariances"])
    top2 = np.sort(logd, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9 * np.maximum(1.0, np.abs(top2[:, 1]))
    mine = np.argmax(logd, axis=1)
    bad = np.flatnonzero(clear & (mine != cluster))
    if len(bad):
        return False, (f"{len(bad)} rows not assigned to their largest discriminant "
                       f"(row {bad[0] + 1})")
    d = np.exp(logd[np.arange(n), cluster])
    bad = np.flatnonzero(np.abs(d - disc) > 1e-9 * np.maximum(d, disc) + 1e-300)
    if len(bad):
        i = bad[0]
        return False, f"{len(bad)} discriminants differ (row {i + 1}: {disc[i]!r} vs {d[i]!r})"
    score, thr = n * d, res["threshold"]
    clear = np.abs(score - thr) > 1e-9 * thr
    bad = np.flatnonzero(clear & (flag != (score <= thr)))
    if len(bad):
        return False, f"{len(bad)} outlier flags disagree with n*D <= {thr} (row {bad[0] + 1})"
    if not np.array_equal(otype, np.where(flag, cluster, -1)):
        return False, "outlier types are not the flagged rows' clusters"
    if int(flag.sum()) != res["outlier_count"]:
        return False, f"outlier_count {res['outlier_count']} != {int(flag.sum())} flags"
    ok, msg = _eigen_bounds_ok(res["covariances"], c, c1)
    if not ok:
        return ok, msg

    regular = labels >= 0
    pred = np.where(flag, -1, cluster)[regular]
    rate = _best_match_rate(pred, labels[regular], k)
    if rate < FIT_RECOVERY_MIN:
        return False, f"planted rows recovered at {rate:.4f} < {FIT_RECOVERY_MIN}"
    if far.any():
        flagged = float(flag[far].mean())
        if flagged < FIT_FAR_FLAGGED_MIN:
            return False, f"far planted outliers flagged at {flagged:.4f} < {FIT_FAR_FLAGGED_MIN}"
    return True, ""


# --- simulate ----------------------------------------------------------------


def check_simulate(truth: dict, replications_path: Path, report_path: Path) -> tuple[bool, str]:
    reps = truth["scenario"]["replications"]
    with open(replications_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 2 * reps:
        return False, f"{len(rows)} replication rows for {reps} replications x 2 betas"
    errors = [r for r in rows if r["error"]]
    if errors:
        return False, f"{len(errors)} replications failed: {errors[0]['error']}"

    def mean(config: str, key: str) -> float:
        return float(np.mean([float(r[key]) for r in rows if r["config"] == config]))

    robust_mis, robust_und = mean("beta=0.3", "misclassification"), mean("beta=0.3", "undetected")
    plain_mis = mean("beta=0", "misclassification")
    if robust_mis > SIM_ROBUST_MISCLASS_MAX or robust_und > SIM_ROBUST_UNDETECTED_MAX:
        return False, (f"beta=0.3 misclassification {robust_mis:.4f} / undetected "
                       f"{robust_und:.4f} above {SIM_ROBUST_MISCLASS_MAX} / "
                       f"{SIM_ROBUST_UNDETECTED_MAX}")
    if plain_mis < SIM_PLAIN_MISCLASS_MIN:
        return False, f"beta=0 misclassification {plain_mis:.4f} < {SIM_PLAIN_MISCLASS_MIN}"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for label in ("beta=0.3", "beta=0"):
        agg = report["aggregates"][label]
        if agg["replications"] != reps or agg["failures"] != 0:
            return False, f"report.json aggregates for {label} do not match the rows"
        if abs(agg["misclassification"] - mean(label, "misclassification")) > 1e-12:
            return False, f"report.json misclassification for {label} is not the row mean"
    return True, ""


# --- influence ---------------------------------------------------------------


def _normal_pdf(x, mu: float, var: float):
    return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _normal_cdf(x: float, mu: float, var: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / math.sqrt(2.0 * var)))


def simpson(fn, lo: float, hi: float, intervals: int = 20_000) -> float:
    """Composite Simpson rule with an even number of intervals."""
    x = np.linspace(lo, hi, intervals + 1)
    y = fn(x)
    h = (hi - lo) / intervals
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def grid_integral(x: np.ndarray, vals: np.ndarray, cuts) -> float:
    """Trapezoid rule on an evenly spaced grid, split at the jump points ``cuts``.

    Each smooth piece is integrated over its own grid points; the partial
    cell up to a cut uses the value extrapolated linearly from that side.
    """
    h = x[1] - x[0]
    edges = [x[0], *cuts, x[-1]]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = np.flatnonzero((x >= lo) & (x <= hi))
        xs, vs = x[idx], vals[idx]
        total += h * (vs.sum() - 0.5 * (vs[0] + vs[-1]))
        if xs[0] > lo:
            edge = vs[0] + (vs[0] - vs[1]) * (xs[0] - lo) / h
            total += 0.5 * (xs[0] - lo) * (vs[0] + edge)
        if xs[-1] < hi:
            edge = vs[-1] + (vs[-1] - vs[-2]) * (hi - xs[-1]) / h
            total += 0.5 * (hi - xs[-1]) * (vs[-1] + edge)
    return total


def _gap_roots(pi1, pi2, mu1, mu2, v1, v2) -> tuple[float, float]:
    """Roots of log(pi1 phi1) - log(pi2 phi2), a quadratic in x."""
    qa = 0.5 * (1.0 / v2 - 1.0 / v1)
    qb = mu1 / v1 - mu2 / v2
    qc = (math.log(pi1 / pi2) - 0.5 * math.log(v1 / v2)
          - 0.5 * mu1 ** 2 / v1 + 0.5 * mu2 ** 2 / v2)
    root = math.sqrt(qb * qb - 4.0 * qa * qc)
    r1, r2 = (-qb + root) / (2.0 * qa), (-qb - root) / (2.0 * qa)
    return min(r1, r2), max(r1, r2)


def check_influence(truth: dict, out: Path, c: float = 5.0, c1: float = 0.1) -> tuple[bool, str]:
    doc = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    model = doc["model"]
    (w1, w2), (m1, m2), (s1, s2) = model["weights"], model["means"], model["variances"]

    def law(x):
        return w1 * _normal_pdf(x, m1, s1) + w2 * _normal_pdf(x, m2, s2)

    lo = min(m1 - 12.0 * math.sqrt(s1), m2 - 12.0 * math.sqrt(s2))
    hi = max(m1 + 12.0 * math.sqrt(s1), m2 + 12.0 * math.sqrt(s2))
    sols = {round(s["beta"], 12): s for s in doc["solutions"]}
    if sorted(sols) != sorted(truth["betas"]):
        return False, f"solutions for betas {sorted(sols)}, expected {truth['betas']}"
    for beta in truth["betas"]:
        s = sols[beta]
        a, b = s["a"], s["b"]
        pi1, pi2, mu1, mu2, v1, v2 = (s[key] for key in
                                      ("pi1", "pi2", "mu1", "mu2", "var1", "var2"))
        ra, rb = _gap_roots(pi1, pi2, mu1, mu2, v1, v2)
        if abs(ra - a) > 1e-6 * (b - a) or abs(rb - b) > 1e-6 * (b - a):
            return False, f"beta={beta}: (a, b)=({a}, {b}) but gap roots ({ra}, {rb})"
        mass = (w1 * (_normal_cdf(b, m1, s1) - _normal_cdf(a, m1, s1))
                + w2 * (_normal_cdf(b, m2, s2) - _normal_cdf(a, m2, s2)))
        if abs(mass - pi1) > 1e-9 or abs(pi1 + pi2 - 1.0) > 1e-12:
            return False, f"beta={beta}: pi1={pi1} but the model mass on (a, b) is {mass}"

        def fpow(x, mu, v):
            return np.exp(beta * (-0.5 * (LOG_2PI + math.log(v)) - 0.5 * (x - mu) ** 2 / v))

        def kappa(v):
            # -integral of phi^(1+beta) ((x - mu)^2 / v - 1) dx, in closed form.
            return (beta * (2.0 * math.pi) ** (-0.5 * beta) * v ** (-0.5 * beta)
                    * (1.0 + beta) ** -1.5)

        def inside(fn):
            return simpson(lambda x: fn(x) * law(x), a, b)

        def outside(fn):
            return (simpson(lambda x: fn(x) * law(x), min(lo, a - 1.0), a)
                    + simpson(lambda x: fn(x) * law(x), b, max(hi, b + 1.0)))

        residuals = (
            inside(lambda x: fpow(x, mu1, v1) * (x - mu1)),
            outside(lambda x: fpow(x, mu2, v2) * (x - mu2)),
            inside(lambda x: fpow(x, mu1, v1) * ((x - mu1) ** 2 / v1 - 1.0)) + kappa(v1) * pi1,
            outside(lambda x: fpow(x, mu2, v2) * ((x - mu2) ** 2 / v2 - 1.0)) + kappa(v2) * pi2,
        )
        worst = max(abs(r) for r in residuals)
        if worst > 1e-7:
            return False, f"beta={beta}: moment equation residual {worst:.3e} > 1e-7"
        big, small = max(v1, v2), min(v1, v2)
        if not (big / small < c and small > c1):
            return False, f"beta={beta}: variances ({v1}, {v2}) break c={c}, c1={c1}"

        table = np.loadtxt(out / f"if_curve_beta{beta:g}.csv", delimiter=",", skiprows=1)
        y, curves = table[:, 0], table[:, 1:]
        if curves.shape[1] != 8 or not np.all(np.isfinite(curves)):
            return False, f"beta={beta}: IF table is not 8 finite columns"
        dens = law(y)
        for col in range(8):
            vals = curves[:, col] * dens
            fine = grid_integral(y, vals, (a, b))
            # The coarse rule's distance from the fine one bounds the fine
            # rule's error on this grid.
            error = abs(fine - grid_integral(y[::2], vals[::2], (a, b)))
            scale = float(np.abs(curves[:, col]).max())
            if abs(fine) > 2.0 * error + 1e-9 * scale:
                return False, (f"beta={beta}: IF column {col} integrates to {fine:.3e} "
                               f"against the model; grid error {error:.3e}")
    return True, ""


# --- image -------------------------------------------------------------------


def read_ppm(path: Path) -> tuple[int, int, np.ndarray]:
    """Parse a binary P6 file with maxval 255 (no header comments)."""
    blob = path.read_bytes()
    fields, pos = [], 2
    if blob[:2] != b"P6":
        raise ValueError("not a P6 file")
    while len(fields) < 3:
        while blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(blob[start:pos]))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"maxval {maxval}")
    body = np.frombuffer(blob[pos + 1:], dtype=np.uint8)
    if len(body) != width * height * 3:
        raise ValueError("pixel data length")
    return width, height, body.reshape(-1, 3)


def check_image(truth: dict, ppm_path: Path, sidecar_path: Path) -> tuple[bool, str]:
    side, labels = truth["side"], truth["labels"]
    try:
        width, height, pix = read_ppm(ppm_path)
    except (ValueError, IndexError) as exc:
        return False, f"output PPM does not parse: {exc}"
    if (width, height) != (side, side):
        return False, f"output is {width}x{height}, input {side}x{side}"
    meta = json.loads(sidecar_path.read_text(encoding="utf-8"))

    def quantise(colors):
        return np.rint(np.clip(np.asarray(colors), 0.0, 1.0) * 255.0).astype(np.int64)

    cluster_q, outlier_q = quantise(meta["cluster_colors"]), quantise(meta["outlier_colors"])
    k = len(cluster_q)
    palette = np.vstack([cluster_q, outlier_q])
    codes = palette @ np.array([65536, 256, 1])
    if len(set(codes.tolist())) != len(codes):
        return False, "sidecar colours are not distinct after quantisation"
    pix_codes = pix.astype(np.int64) @ np.array([65536, 256, 1])
    order = np.argsort(codes)
    pos = np.clip(np.searchsorted(codes[order], pix_codes), 0, len(codes) - 1)
    index = order[pos]
    if not np.array_equal(codes[index], pix_codes):
        return False, "output holds colours that are not sidecar cluster or outlier colours"
    flagged = index >= k
    if int(flagged.sum()) != meta["total_outliers"]:
        return False, (f"{int(flagged.sum())} outlier-coloured pixels, "
                       f"sidecar says {meta['total_outliers']}")
    if sum(meta["pixels_per_cluster"]) != side * side:
        return False, "pixels_per_cluster does not sum to the pixel count"

    regular = labels >= 0
    pred = np.where(flagged, -1, index)[regular]
    rate = _best_match_rate(pred, labels[regular], k)
    if rate < IMAGE_RECOVERY_MIN:
        return False, f"planted regions recovered at {rate:.4f} < {IMAGE_RECOVERY_MIN}"
    caught = float(flagged[~regular].mean())
    if caught < IMAGE_ANOMALY_FLAGGED_MIN:
        return False, f"planted anomalies flagged at {caught:.4f} < {IMAGE_ANOMALY_FLAGGED_MIN}"
    return True, ""


def check_loaded_pixels(truth: dict, pixels_path: Path) -> tuple[bool, str]:
    """The decoder's output equals the generator's array scaled to [0, 1]."""
    loaded = np.load(pixels_path)
    expected = truth["pixels"].astype(float) / 255.0
    if loaded.shape != expected.shape or not np.array_equal(loaded, expected):
        return False, "load_image did not return the generated pixel array"
    return True, ""
