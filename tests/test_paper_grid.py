"""Paper-grid behaviour gate: a reduced run of the grid in ``paper_grid.py``,
checked cell by cell against the committed baseline and the paper's claims.

Byte identity cannot judge a change that moves results on purpose; these
bounds can. The reduced run takes the first ``REPLICATIONS`` replications of
the baseline's scenario seed, so at the tree that wrote the baseline its
per-replication values are the baseline's own.
"""

import json
from pathlib import Path
from statistics import median

import pytest

from mixclust.workers import default_workers
from paper_grid import (
    BETAS,
    DIMS,
    SCHEMES,
    bias_band,
    cell_summaries,
    mis_band,
    wrong_count_bounds,
)

REPLICATIONS = 4
BASELINE = json.loads(Path(__file__).with_name("paper_grid_baseline.json").read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("p", DIMS)
def test_cell_within_baseline_bounds(p, scheme):
    cell = f"p={p} {scheme}"
    got = cell_summaries(p, scheme, REPLICATIONS, default_workers())
    problems = []
    for beta in BETAS:
        label = f"beta={beta:g}"
        now, base = got[label], BASELINE["cells"][cell][label]
        where = f"{cell} {label}"
        lo, hi = wrong_count_bounds(base, REPLICATIONS)
        if not lo <= now["wrong"] <= hi:
            problems.append(f"{where}: {now['wrong']} of {REPLICATIONS} wrong-partition "
                            f"replications, outside [{lo}, {hi}] (baseline {base['wrong']} of "
                            f"{base['replications']})")
        n_right = REPLICATIONS - now["wrong"]
        if n_right and base["right_mis_mean"] is not None:
            band = mis_band(base, n_right)
            if abs(now["right_mis_mean"] - base["right_mis_mean"]) > band:
                problems.append(f"{where}: right-partition misclassification "
                                f"{now['right_mis_mean']:.5f} against {base['right_mis_mean']:.5f}"
                                f" +- {band:.5f}")
        if n_right > 1 and base["right_bias"] is not None:
            band = bias_band(base, n_right)
            if abs(now["right_bias"] - base["right_bias"]) > band:
                problems.append(f"{where}: right-partition bias {now['right_bias']:.4f} "
                                f"against {base['right_bias']:.4f} +- {band:.4f}")
    # The paper's claims: beta > 0 keeps misclassification near 0, and
    # likelihood (beta = 0) breaks down under every contamination except the
    # low-dimensional uniform noise, which sits far from the clusters.
    # Medians, because one replication that misses the best partition is
    # what the wrong-partition count judges.
    robust = got["beta=0.3"]["misclassification"]
    plain = got["beta=0"]["misclassification"]
    if median(robust) > 0.01:
        problems.append(f"{cell}: beta=0.3 median misclassification {median(robust):.4f} > 0.01")
    if scheme != "none" and (p, scheme) != (2, "uniform_chisq") and median(plain) < 0.3:
        problems.append(f"{cell}: beta=0 median misclassification {median(plain):.4f} < 0.3")
    assert not problems, "\n".join(problems)
