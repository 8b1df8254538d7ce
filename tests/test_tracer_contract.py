"""The per-layer benchmark tracer's view of the package.

``bench/tracer.py`` wraps functions by (module, attribute) name and reads
fields of their results, so renaming or reshaping one of them breaks the
benchmark's traced run. These tests load the tracer by path, without
changing it, and fail when the package drifts from what it expects.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mixclust import AlgoConfig, fit_component, fit_single, initialize

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    missing = [f"{mod}.{attr}" for mod, attr in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(f"mixclust.{mod}"),
                                       attr, None))]
    assert missing == []


def test_observed_results_keep_their_fields():
    rng = np.random.default_rng(0)
    data = np.vstack([rng.normal(0.0, 1.0, (30, 2)), rng.normal(6.0, 1.0, (30, 2))])
    cfg = AlgoConfig(beta=0.2, n_restarts=1, seed=0)
    outcome = fit_single(data, 2, cfg, initialize(data, 2, np.random.default_rng(0))[1])
    assert isinstance(outcome, dict)
    assert isinstance(outcome["iterations"], int)
    assert isinstance(outcome["degenerate"], bool)
    assert isinstance(fit_component(data[:30], 0.2).converged, bool)


def test_traced_fit_runs(tmp_path):
    rng = np.random.default_rng(1)
    csv = tmp_path / "data.csv"
    np.savetxt(csv, np.vstack([rng.normal(0.0, 1.0, (40, 2)),
                               rng.normal(6.0, 1.0, (40, 2))]), delimiter=",")
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--",
         "fit", str(csv), "--k", "2", "--restarts", "2", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
        # One CPU, so the CLI fits serially: spans recorded in forked
        # workers never reach the tracer.
        preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert proc.returncode == 0, proc.stderr
    metrics = load_tracer().layer_metrics(json.loads(spans.read_text()))
    assert metrics["clustering.fit.calls"] == 1
    assert metrics["clustering.fit_single.calls"] == 2
    assert metrics["clustering.outer_iters"] >= 2
    assert metrics["gaussian.as_data_matrix.calls"] == 1
    assert metrics["mdpde.fit_component.calls"] > 0
    # Every IRLS step measures its distances through the traced kernel, and
    # so does each assignment: k per restart's initialization and k per
    # outer iteration. A kernel that bypasses the traced names breaks this.
    k = 2
    assert metrics["gaussian.mahalanobis_sq.calls"] == metrics["mdpde.irls_step.calls"] + k * (
        metrics["clustering.fit_single.calls"] + metrics["clustering.outer_iters"])
