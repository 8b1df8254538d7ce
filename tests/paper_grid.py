"""The paper-grid behaviour gate: its grid, its per-cell summary and its bounds.

The grid is the paper's design at n = 1000: p in {2, 6, 10}, each
contamination scheme, beta 0.3 and 0, 10 restarts and the outlier threshold
``default_threshold(p)``. Misclassification per replication is bimodal: a
replication whose restarts all miss the best partition reads about 0.3 to
0.7, the others about 0. So each cell is summarised by two numbers, not by
one mean:

- the count of wrong-partition replications (misclassification above
  ``WRONG_PARTITION``, or a failed fit), judged against a binomial bound
  around the baseline's rate;
- the mean misclassification and the mean bias over the right-partition
  replications, judged against CLT bands around the baseline's.

``tests/paper_grid_baseline.json`` holds the baseline. It was written by
this file, run as a script, on the tree before the first change that moved
results on purpose (the capped warm M-steps):

    PYTHONPATH=src python tests/paper_grid.py --replications 100 \\
        > tests/paper_grid_baseline.json

A change that moves results reports its per-cell movement against that file;
it does not write the file again.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from mixclust.clustering import AlgoConfig, default_threshold
from mixclust.simulation import ScenarioSpec, _best_permutation, bias_mse, run_experiment

N = 1000
DIMS = (2, 6, 10)
SCHEMES = ("none", "uniform_chisq", "annulus", "outlying_cluster")
BETAS = (0.3, 0.0)
SCENARIO_SEED = 11
RESTARTS = 10
WRONG_PARTITION = 0.05
# Each tail of the binomial bound, and the width of the CLT bands in
# standard errors. The gate runs 24 (cell, beta) pairs with three checks
# each, so these keep the chance of a false alarm under about 1% overall.
TAIL = 1e-4
Z = 4.5


def cell_summaries(p: int, scheme: str, replications: int, workers: int) -> dict[str, dict]:
    """Run one cell and summarise it per beta, keyed ``beta=<beta>``."""
    spec = ScenarioSpec(n=N, p=p, contamination=scheme, replications=replications,
                        seed=SCENARIO_SEED)
    cfgs = [AlgoConfig(beta=beta, outlier_threshold=default_threshold(p),
                       n_restarts=RESTARTS, seed=0) for beta in BETAS]
    report = run_experiment(spec, cfgs, workers=workers)
    return {label: summarize([r for r in report.rows if r["config"] == label], spec)
            for label in report.config_labels}


def summarize(rows: list[dict], spec: ScenarioSpec) -> dict:
    """The numbers the gate compares for one (cell, beta): replication and
    wrong-partition counts, every replication's misclassification (1 for a
    failed fit: every regular observation unclassified), and the
    right-partition replications' misclassification mean and standard
    deviation, bias (as :func:`~mixclust.simulation.bias_mse` takes it) and
    bias spread: the mean over clusters of the root trace of the covariance
    of the matched mean errors."""
    right = [r for r in rows
             if r["error"] is None and r["misclassification"] <= WRONG_PARTITION]
    mis = [r["misclassification"] for r in right]
    out = {
        "replications": len(rows),
        "wrong": len(rows) - len(right),
        "misclassification": [1.0 if r["error"] else r["misclassification"] for r in rows],
        "right_mis_mean": float(np.mean(mis)) if mis else None,
        "right_mis_sd": float(np.std(mis, ddof=1)) if len(mis) > 1 else None,
        "right_bias": None,
        "right_bias_spread": None,
    }
    if len(right) > 1:
        true = spec.means
        errors = []
        for r in right:
            est = r["fitted_means"]
            perm = _best_permutation(len(true), lambda perm: float(
                np.sum((est[list(perm)] - true) ** 2)))
            errors.append(est[list(perm)] - true)
        errors = np.stack(errors)  # (replications, k, p)
        spread = np.sqrt(errors.var(axis=0, ddof=1).sum(axis=1)).mean()
        out["right_bias"] = bias_mse([r["fitted_means"] for r in right], true)[0]
        out["right_bias_spread"] = float(spread)
    return out


def _binom_pmf(n: int, q: float) -> list[float]:
    return [math.comb(n, c) * q**c * (1 - q) ** (n - c) for c in range(n + 1)]


def wrong_count_bounds(base: dict, n: int) -> tuple[int, int]:
    """The counts c of wrong-partition replications out of n that the
    baseline's rate makes plausible: each tail beyond ``[lo, hi]`` has
    probability at most ``TAIL`` under Binomial(n, q), with q the baseline's
    rate shrunk toward 1/2 by half a replication on each side, so a
    baseline count of 0 or all still allows a rare miss or hit."""
    q = (base["wrong"] + 0.5) / (base["replications"] + 1.0)
    pmf = _binom_pmf(n, q)
    lo, below = 0, 0.0
    while below + pmf[lo] <= TAIL:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= TAIL:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def mis_band(base: dict, n_right: int) -> float:
    """Half-width of the CLT band on the right-partition mean
    misclassification, plus one observation in ``N`` as a resolution floor
    (a baseline whose right replications all read 0 has no spread)."""
    sd = base["right_mis_sd"] or 0.0
    return Z * sd * math.sqrt(1 / n_right + 1 / (base["replications"] - base["wrong"])) + 1 / N


def bias_band(base: dict, n_right: int) -> float:
    """Half-width of the band on the right-partition bias. The norm of a
    mean of m error vectors moves from the norm of their expectation by at
    most the norm of the mean noise, whose size is the spread over sqrt(m)."""
    m_base = base["replications"] - base["wrong"]
    return Z * base["right_bias_spread"] * (1 / math.sqrt(n_right) + 1 / math.sqrt(m_base))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replications", type=int, default=100)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    cells = {}
    for p in DIMS:
        for scheme in SCHEMES:
            cells[f"p={p} {scheme}"] = cell_summaries(p, scheme, args.replications, args.workers)
            print(f"p={p} {scheme} done", file=sys.stderr)
    doc = {"scenario_seed": SCENARIO_SEED, "restarts": RESTARTS,
           "replications": args.replications, "wrong_partition": WRONG_PARTITION,
           "cells": cells}
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
