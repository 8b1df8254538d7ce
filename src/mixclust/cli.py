"""Command-line interface: fit on CSV data, run simulation suites, compute
influence curves, segment images.

Exit codes are a stable contract: 0 success, 2 input error, 3 computation
failure (running out of memory included). Every subcommand is
deterministic given its inputs, flags and seed. The MIXCLUST_LOG
environment variable sets the log level.

Cluster labels in emitted files are 1-based; arrays inside the library are
0-based.

Run as a program, this module hands over to :func:`mixclust.__main__.main`
before it imports numpy, so the program runs one OpenBLAS thread unless
its caller set ``OPENBLAS_NUM_THREADS``. Imported, it changes no BLAS
setting.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    from .__main__ import main as _start

    sys.exit(_start())

import argparse
import dataclasses
import json
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .constraints import ConstraintConfig
from .errors import ImageFormatError, MixclustError

if TYPE_CHECKING:
    from .clustering import AlgoConfig
    from .simulation import ScenarioSpec

# Each subcommand imports the modules it runs in its own function, so none
# loads what only another uses (influence, for one, needs no clustering).

log = logging.getLogger("mixclust")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3


def _write_json(path: Path, payload: dict, schema: str) -> None:
    from .schemas import validate

    validate(payload, schema)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _free_out_path(out: str | Path, force: bool) -> Path:
    """The output path, refused when it exists and ``force`` is not given.
    Callers create it only once their inputs have passed every check."""
    path = Path(out)
    if path.exists() and not force:
        raise ValueError(f"output path {path} exists (use --force to overwrite)")
    return path


def read_csv_matrix(path) -> np.ndarray:
    """Strict CSV reader: comma separated, '.' decimals, optional single
    header row detected by a non-numeric first line. A leading UTF-8
    byte-order mark is dropped, not read into the first cell. Errors carry
    the offending 1-based line number."""
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _algo_config(args, threshold: float) -> AlgoConfig:
    from .clustering import AlgoConfig

    return AlgoConfig(
        beta=args.beta,
        constraint=ConstraintConfig(c=args.c, c1=args.c1),
        outlier_threshold=threshold,
        max_outer_iter=args.max_iter,
        n_restarts=args.restarts,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    from .clustering import default_threshold, fit
    from .workers import default_workers

    data = read_csv_matrix(args.csv)
    n, p = data.shape
    cfg = _algo_config(args, default_threshold(p) if args.threshold is None else args.threshold)
    out = _free_out_path(args.out, args.force)
    result = fit(data, args.k, cfg, workers=default_workers())
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "n": int(n),
        "p": int(p),
        "k": int(args.k),
        "beta": float(cfg.beta),
        "seed": int(cfg.seed),
        "threshold": float(cfg.outlier_threshold),
        "weights": [float(w) for w in result.params.weights],
        "means": [c.mean.tolist() for c in result.params.components],
        "covariances": [c.cov.tolist() for c in result.params.components],
        "objective": float(result.objective),
        "iterations": int(result.iterations),
        "stable": bool(result.stable),
        "restart_index": int(result.restart_index),
        "outlier_count": int(result.outlier_flags.sum()),
    }
    _write_json(out / "result.json", payload, schema="fit_result")
    rows = zip(result.assignments.tolist(), result.discriminants.tolist(),
               result.outlier_flags.tolist())
    with open(out / "assignments.csv", "w", encoding="utf-8") as fh:
        fh.write("row,cluster,discriminant,outlier,outlier_type\n")
        fh.writelines(
            f"{i},{label + 1},{disc:.12g},{int(flag)},{label + 1 if flag else ''}\n"
            for i, (label, disc, flag) in enumerate(rows, 1))
    log.info("fit written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# Scenario-file keys converted by _whole and by _number.
_COUNTS = ("n", "p", "k", "replications", "seed", "restarts", "max_outer_iter")
_NUMBERS = ("cov_scale", "contamination_level", "c", "c1", "threshold")
# Scenario-file key -> AlgoConfig field, beside betas, c and c1.
_ALGO_FIELDS = {"threshold": "outlier_threshold", "restarts": "n_restarts",
                "max_outer_iter": "max_outer_iter"}
_FLOAT_MAX = sys.float_info.max


def _number(value, name: str) -> float:
    """A JSON number in the float range as a float; booleans, strings and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) > _FLOAT_MAX:
        raise ValueError(f"{name} must be a number in the float range, got {value!r}")
    return float(value)


def _whole(value, name: str) -> int:
    """A JSON number with an integral value, as an int; fractions are refused."""
    if not _number(value, name).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _replace_naming(key: str, cfg, **changes):
    """``dataclasses.replace``, with a refusal that names the file's ``key``."""
    try:
        return dataclasses.replace(cfg, **changes)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _load_scenario(path) -> tuple[ScenarioSpec, list[AlgoConfig]]:
    """The scenario and one algorithm configuration per beta, every setting
    read from the file. A setting the file leaves out takes the default of
    ``ScenarioSpec`` or ``AlgoConfig``, and the threshold that of
    ``default_threshold(p)``."""
    from .clustering import AlgoConfig, default_threshold
    from .simulation import ScenarioSpec

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a scenario must be a JSON object")
    spec_keys = {field.name for field in dataclasses.fields(ScenarioSpec)}
    unknown = set(raw) - spec_keys - {"betas", "c", "c1", *_ALGO_FIELDS}
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    try:
        given = {}
        for key, value in raw.items():
            if value is None:
                raise ValueError(f"{key} must not be null")
            given[key] = (_whole(value, key) if key in _COUNTS
                          else _number(value, key) if key in _NUMBERS else value)
        spec = ScenarioSpec(**{key: given[key] for key in spec_keys & given.keys()})
        base = AlgoConfig(outlier_threshold=default_threshold(spec.p), constraint=ConstraintConfig(
            **{key: given[key] for key in ("c", "c1") if key in given}))
        for key, name in _ALGO_FIELDS.items():
            if key in given:
                base = _replace_naming(key, base, **{name: given[key]})
        betas = given.get("betas", [base.beta])
        if not isinstance(betas, list) or not betas:
            raise ValueError("betas must be a non-empty list")
        cfgs = [_replace_naming("betas", base, beta=_number(beta, "betas")) for beta in betas]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: invalid scenario ({exc})") from None
    return spec, cfgs


def _print_table(spec: ScenarioSpec, labels: list[str], aggregates: dict) -> None:
    print(f"p={spec.p}  cov={spec.cov_scale}*I  contamination={spec.contamination}  "
          f"n={spec.n}  replications={spec.replications}")
    print(f"{'metric':28s}" + "".join(f"{lbl:>14s}" for lbl in labels))
    key, name = ("detected", "(detected outliers)") if spec.contamination == "none" \
        else ("undetected", "(undetected proportion)")
    for metric, title, fmt in (("misclassification", "misclassification", "{:.4f}"),
                               (key, name, "({:.4g})")):
        cells = [aggregates[lbl][metric] for lbl in labels]
        print(f"{title:28s}" + "".join(f"{'-' if v is None else fmt.format(v):>14}" for v in cells))


def cmd_simulate(args) -> int:
    from .simulation import run_experiment
    from .workers import default_workers

    spec, cfgs = _load_scenario(args.spec)
    # The flags replace the file's settings here, so a bad one is not
    # blamed on the file.
    if args.replications is not None:
        spec = dataclasses.replace(spec, replications=args.replications)
    cfgs = [dataclasses.replace(cfg, seed=args.seed) for cfg in cfgs]
    out = _free_out_path(args.out, args.force)
    report = run_experiment(spec, cfgs, workers=default_workers())
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "replications.csv")
    aggregates = report.aggregates
    payload = {
        "scenario": {
            "n": spec.n, "p": spec.p, "k": spec.k,
            "contamination": spec.contamination,
            "contamination_level": spec.contamination_level,
            "replications": spec.replications, "seed": spec.seed,
            "cov_scale": spec.cov_scale,
        },
        "configs": report.config_labels,
        "aggregates": aggregates,
    }
    _write_json(out / "report.json", payload, schema="simulation_report")
    _print_table(spec, report.config_labels, aggregates)
    return EXIT_OK


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------


def cmd_influence(args) -> int:
    from .influence import TrueDistribution, if_curve, solve_functional, write_if_curve

    betas = args.beta or [0.1, 0.2, 1.0]
    if not all(0.0 < beta < np.inf for beta in betas):
        raise ValueError("beta must be positive and finite; beta = 0 is refused because "
                         "the corresponding influence functions are unbounded")
    # One curve file per beta, named by its {beta:g} label.
    labels = [f"{beta:g}" for beta in betas]
    if len(set(labels)) != len(labels):
        raise ValueError(f"betas need distinct curve files (if_curve_beta<beta:g>.csv), "
                         f"got {labels}")
    if args.grid_points < 1 or not np.isfinite([args.grid_lo, args.grid_hi - args.grid_lo]).all():
        raise ValueError("--grid-points must be at least 1 and the grid bounds and span finite")
    dist = TrueDistribution(
        weights=(args.pi1, 1.0 - args.pi1),
        means=(args.mu1, args.mu2),
        variances=(args.var1, args.var2),
    )
    cfg = ConstraintConfig(c=args.c, c1=args.c1)
    out = _free_out_path(args.out, args.force)
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    solutions, curves = [], {}
    for beta, label in zip(betas, labels):
        sol = solve_functional(dist, beta, cfg)
        solutions.append(dataclasses.asdict(sol))
        curves[f"if_curve_beta{label}.csv"] = if_curve(sol, dist, grid)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in curves.items():
        write_if_curve(out / name, table)
    payload = {
        "model": {
            "weights": [args.pi1, 1.0 - args.pi1],
            "means": [args.mu1, args.mu2],
            "variances": [args.var1, args.var2],
        },
        "solutions": solutions,
    }
    _write_json(out / "solution.json", payload, schema="influence_solution")
    log.info("influence output written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------


def cmd_image(args) -> int:
    from .imageseg import load_image, reconstruct, save_ppm, segment, sidecar_payload

    out = _free_out_path(args.out, args.force)
    sidecar = _free_out_path(out.with_suffix(out.suffix + ".json"), args.force)
    grid = load_image(args.image)
    cfg = _algo_config(args, args.threshold)
    result = segment(grid, args.k, cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_ppm(reconstruct(grid, result), out)
    _write_json(sidecar, sidecar_payload(result, cfg), schema="image_sidecar")
    log.info("reconstruction written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------


def _add_algo_flags(sub: argparse.ArgumentParser, c1: float = 0.1,
                    threshold: float | None = None) -> None:
    sub.add_argument("--beta", type=float, default=0.1,
                     help="downweighting exponent in [0, 1]")
    sub.add_argument("--c", type=float, default=20.0, help="eigenvalue ratio bound")
    sub.add_argument("--c1", type=float, default=c1, help="eigenvalue floor")
    sub.add_argument("--threshold", type=float, default=threshold,
                     help=f"outlier threshold (default {threshold or 'depends on dimension'})")
    sub.add_argument("--restarts", type=int, default=10)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=100)
    _add_common(sub)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=str, required=True, help="output path")
    sub.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixclust",
        description="Robust normal-mixture clustering with outlier detection")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="cluster a CSV of numeric rows")
    p_fit.add_argument("csv", type=str)
    p_fit.add_argument("--k", type=int, required=True)
    _add_algo_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = subs.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("spec", type=str)
    p_sim.add_argument("--replications", type=int, default=None,
                       help="override the scenario's replication count")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_inf = subs.add_parser("influence", help="influence curves for a 1-D two-component model")
    p_inf.add_argument("--pi1", type=float, default=0.5)
    p_inf.add_argument("--mu1", type=float, default=0.0)
    p_inf.add_argument("--var1", type=float, default=1.0)
    p_inf.add_argument("--mu2", type=float, default=5.0)
    p_inf.add_argument("--var2", type=float, default=4.0)
    p_inf.add_argument("--beta", type=float, action="append", default=None,
                       help="repeatable; defaults to 0.1 0.2 1.0")
    p_inf.add_argument("--grid-lo", type=float, default=-30.0)
    p_inf.add_argument("--grid-hi", type=float, default=30.0)
    p_inf.add_argument("--grid-points", type=int, default=601)
    p_inf.add_argument("--c", type=float, default=5.0)
    p_inf.add_argument("--c1", type=float, default=0.1)
    p_inf.add_argument("--out", type=str, required=True)
    p_inf.add_argument("--force", action="store_true")
    p_inf.set_defaults(func=cmd_influence)

    p_img = subs.add_parser("image", help="segment a PNG/PPM image")
    p_img.add_argument("image", type=str)
    p_img.add_argument("--k", type=int, default=2)
    # Pixels live on [0, 1] channels: the shared floor of 0.1 would hold every
    # covariance at a standard deviation of 0.32 and flag nothing.
    _add_algo_flags(p_img, c1=1e-4, threshold=0.02)
    p_img.set_defaults(func=cmd_image)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logging.basicConfig(level=os.environ.get("MIXCLUST_LOG", "WARNING").upper())
        return args.func(args)
    except (ImageFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MixclustError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
