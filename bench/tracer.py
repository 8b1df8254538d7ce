"""Per-layer tracing of one mixclust CLI invocation, applied from outside.

Child side, started by run.py:

    python3 bench/tracer.py --spans spans.json [--capture-pixels p.npy] -- <cli args>

It wraps each layer's public functions, runs ``mixclust.cli.main`` on the
arguments in this process and writes every span when the CLI returns.
Modules bind each other's functions by name (``from .gaussian import
mahalanobis_sq``), so every module attribute bound to a wrapped function is
replaced, not only the defining one. ``GaussianComponent.__post_init__`` is
wrapped on the class.

Parent side: :func:`layer_metrics` turns the written spans and counters into
the per-layer metrics. A span's self time is its duration minus the time
of its child spans on the same thread.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

# Span name for each wrapped (module, function); two functions may share one.
WRAPPED = {
    ("cli", "read_csv_matrix"): "cli.read_csv_matrix",
    ("cli", "cmd_fit"): "cli.cmd_fit",
    ("schemas", "validate"): "schemas.validate",
    ("gaussian", "mahalanobis_sq"): "gaussian.mahalanobis_sq",
    ("gaussian", "as_data_matrix"): "gaussian.as_data_matrix",
    ("mdpde", "irls_step"): "mdpde.irls_step",
    ("mdpde", "fit_component"): "mdpde.fit_component",
    ("mdpde", "robust_init"): "mdpde.robust_init",
    ("constraints", "enforce_constraints"): "constraints.enforce_constraints",
    ("clustering", "fit"): "clustering.fit",
    ("clustering", "fit_single"): "clustering.fit_single",
    ("clustering", "assign"): "clustering.assign",
    ("clustering", "pseudo_beta_likelihood"): "clustering.objective",
    ("clustering", "component_fit_score"): "clustering.objective",
    ("clustering", "detect_outliers"): "clustering.detect_outliers",
    ("simulation", "generate"): "simulation.generate",
    ("simulation", "regular_misclassification"): "simulation.regular_misclassification",
    ("simulation", "run_experiment"): "simulation.run_experiment",
    ("influence", "solve_functional"): "influence.solve_functional",
    ("influence", "quad"): "influence.quad",
    ("influence", "if_curve"): "influence.if_curve",
    ("imageseg", "load_image"): "imageseg.load_image",
    ("imageseg", "segment"): "imageseg.segment",
    ("imageseg", "reconstruct"): "imageseg.reconstruct",
    ("imageseg", "save_ppm"): "imageseg.save_ppm",
}
COMPONENT_INIT = "gaussian.component_init"

# Every per-layer metric, with its unit. Layers a workload never reaches
# report 0.
LAYER_METRICS = {
    "cli.read_csv_matrix.self_s": "s",
    "cli.cmd_fit.self_s": "s",
    "schemas.validate.self_s": "s",
    "gaussian.component_init.calls": "count",
    "gaussian.component_init.self_s": "s",
    "gaussian.mahalanobis_sq.calls": "count",
    "gaussian.mahalanobis_sq.rows": "count",
    "gaussian.mahalanobis_sq.self_s": "s",
    "gaussian.as_data_matrix.calls": "count",
    "gaussian.as_data_matrix.self_s": "s",
    "mdpde.irls_step.calls": "count",
    "mdpde.irls_step.self_s": "s",
    "mdpde.fit_component.calls": "count",
    "mdpde.fit_component.converged_ratio": "ratio",
    "mdpde.fit_component.guard_raises": "count",
    "mdpde.robust_init.self_s": "s",
    "constraints.enforce_constraints.calls": "count",
    "constraints.enforce_constraints.active_ratio": "ratio",
    "constraints.enforce_constraints.self_s": "s",
    "clustering.fit.calls": "count",
    "clustering.fit_single.calls": "count",
    "clustering.fit_single.useful_ratio": "ratio",
    "clustering.fit_single.self_s": "s",
    "clustering.outer_iters": "count",
    "clustering.assign.self_s": "s",
    "clustering.objective.self_s": "s",
    "clustering.detect_outliers.self_s": "s",
    "simulation.generate.self_s": "s",
    "simulation.regular_misclassification.self_s": "s",
    "simulation.run_experiment.self_s": "s",
    "influence.solve_functional.calls": "count",
    "influence.solve_functional.self_s": "s",
    "influence.quad.calls": "count",
    "influence.quad.integrand_evals": "count",
    "influence.if_curve.self_s": "s",
    "imageseg.load_image.self_s": "s",
    "imageseg.segment.self_s": "s",
    "imageseg.reconstruct.self_s": "s",
    "imageseg.save_ppm.self_s": "s",
}


def is_time(metric: str) -> bool:
    return metric.endswith("_s")


class Recorder:
    """Spans and counters, kept per thread so that no update is lost."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"spans": [], "stack": [], "counts": {}}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        counts = self._state()["counts"]
        counts[key] = counts.get(key, 0) + amount

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(args, kwargs, result, exc)`` may count."""
        nid = self.name_id(name)
        recorder = self

        def traced(*args, **kwargs):
            state = recorder._state()
            spans, stack = state["spans"], state["stack"]
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return traced

    def document(self) -> dict:
        counts: dict[str, int] = {}
        for state in self._threads:
            for key, value in state["counts"].items():
                counts[key] = counts.get(key, 0) + value
        return {"names": self.names,
                "threads": [state["spans"] for state in self._threads],
                "counts": counts}


def install(recorder: Recorder, capture_pixels: str | None = None) -> None:
    """Wrap every traced function in every loaded mixclust module."""
    import numpy as np

    import mixclust
    from mixclust import (clustering, cli, constraints, gaussian, imageseg,
                          influence, mdpde, schemas, simulation)
    from mixclust.errors import NonPositiveDenominatorError

    modules = {"cli": cli, "schemas": schemas, "gaussian": gaussian, "mdpde": mdpde,
               "constraints": constraints, "clustering": clustering,
               "simulation": simulation, "influence": influence, "imageseg": imageseg}

    def rows(args, kwargs, result, exc):
        if exc is None:
            recorder.count("mahalanobis_sq.rows", 1 if np.ndim(args[0]) == 1 else len(args[0]))

    def fit_component(args, kwargs, result, exc):
        if isinstance(exc, NonPositiveDenominatorError):
            recorder.count("fit_component.guard_raises")
        elif exc is None and result.converged:
            recorder.count("fit_component.converged")

    def constraints_active(args, kwargs, result, exc):
        if exc is None and any(not np.array_equal(new, np.asarray(old))
                               for new, old in zip(result, args[0])):
            recorder.count("enforce_constraints.active")

    def fit_single(args, kwargs, result, exc):
        if exc is None:
            recorder.count("fit_single.outer_iters", result["iterations"])
            if not result["degenerate"]:
                recorder.count("fit_single.useful")

    def load_image(args, kwargs, result, exc):
        if exc is None and capture_pixels:
            np.save(capture_pixels, result.pixels)

    observers = {"mahalanobis_sq": rows, "fit_component": fit_component,
                 "enforce_constraints": constraints_active, "fit_single": fit_single,
                 "load_image": load_image}

    def counting_quad(quad):
        # A plain counter per quad call, added to the recorder once, keeps the
        # per-evaluation cost inside the quad span small.
        def quad_with_evals(func, *args, **kwargs):
            evals = 0

            def integrand(*xs):
                nonlocal evals
                evals += 1
                return func(*xs)
            try:
                return quad(integrand, *args, **kwargs)
            finally:
                recorder.count("quad.integrand_evals", evals)
        return quad_with_evals

    replacements = {}
    for (mod_name, attr), span in WRAPPED.items():
        original = getattr(modules[mod_name], attr)
        target = counting_quad(original) if attr == "quad" else original
        replacements[id(original)] = recorder.wrap(target, span, observers.get(attr))
    for module in list(modules.values()) + [mixclust]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    component = gaussian.GaussianComponent
    component.__post_init__ = recorder.wrap(component.__post_init__, COMPONENT_INIT)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics (raw seconds) from a document written by the child."""
    names = doc["names"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for spans in doc["threads"]:
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (nid, start, end, _), inner in zip(spans, child):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
    counts = doc["counts"]

    def ratio(part: str, span: str) -> float:
        return counts.get(part, 0) / calls[span] if calls.get(span) else 0.0

    out = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(span, 0)
    out.update({
        "gaussian.mahalanobis_sq.rows": counts.get("mahalanobis_sq.rows", 0),
        "mdpde.fit_component.converged_ratio":
            ratio("fit_component.converged", "mdpde.fit_component"),
        "mdpde.fit_component.guard_raises": counts.get("fit_component.guard_raises", 0),
        "constraints.enforce_constraints.active_ratio":
            ratio("enforce_constraints.active", "constraints.enforce_constraints"),
        "clustering.fit_single.useful_ratio":
            ratio("fit_single.useful", "clustering.fit_single"),
        "clustering.outer_iters": counts.get("fit_single.outer_iters", 0),
        "influence.quad.integrand_evals": counts.get("quad.integrand_evals", 0),
    })
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="run the mixclust CLI under the tracer")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--capture-pixels", default=None,
                        help="save the array load_image returns (.npy)")
    argv = sys.argv[1:]
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    recorder = Recorder()
    install(recorder, args.capture_pixels)
    from mixclust import cli

    code = cli.main(argv[split + 1:])
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(recorder.document(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
