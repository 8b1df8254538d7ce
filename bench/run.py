"""End-to-end benchmark of the four mixclust CLI workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fit_large_csv --seed 1 --seconds 30 --trace 0

One closed-loop client: this process runs one fresh ``mixclust`` CLI process
at a time, on inputs generated from ``--seed``. A run is whole rounds, for
``--seconds``, of two set-up probes (``<subcommand> --help``) and one full
invocation; times are raw seconds on the host that runs it (README.md says why no host-speed reference rescales them).
Every output is checked against computations made here, never by mixclust
itself. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds); with ``--trace 1`` the CLI runs under ``tracer.py`` instead and the
metrics are per-layer call counts and self times. ``--smoke`` shrinks every
input so that a run takes a few seconds; it is for testing the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import tracer

# The CLI's --seed for every workload. Held fixed so that each workload seed
# starts its restarts from the same rows of the same planted layout: how many
# outer iterations a restart needs depends on where it starts, which would
# otherwise swamp the spread across seeds.
CLI_SEED = 0

# Set-up probes at the start of every round. One probe a round left
# simulate_paper_cell, at three rounds a run, with a 23 to 27% spread of
# setup_s across seeds; runs with four to seven probes read 9 to 15%.
SETUP_PROBES_PER_ROUND = 2

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def run_cli(argv: list[str], env: dict, cwd: Path) -> Invocation:
    """Run one CLI process to completion; resources come from wait4, so
    they cover the process and every process it waited for."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Workload:
    """One CLI workload: how to make its inputs, call it and check it."""

    name: str
    subcommand: str
    prepare: object  # (seed, smoke, work_dir) -> truth dict
    argv: object  # (truth, out_dir) -> list of CLI arguments
    check: object  # (truth, out_dir) -> (ok, message, digest)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# --- fit_large_csv -----------------------------------------------------------

FIT_N = {False: 25_000, True: 600}
# Restarts are where the work varies: each needs 2 to 10 outer iterations
# depending on the data. Over seeds 501 to 510 the IRLS steps of one fit
# spread (IQR over median) 16% at 12 restarts and 5.5% at 24.
FIT_RESTARTS = 24


def _fit_prepare(seed, smoke, work):
    return inputs.fit_inputs(seed, FIT_N[smoke], work)


def _fit_argv(truth, out):
    return ["fit", str(truth["path"]), "--k", str(inputs.FIT_K),
            "--restarts", str(FIT_RESTARTS), "--seed", str(CLI_SEED), "--out", str(out)]


def _fit_check(truth, out):
    ok, msg = checks.check_fit(truth, out / "result.json", out / "assignments.csv",
                               c=20.0, c1=0.1)
    return ok, msg, _digest(out / "result.json", out / "assignments.csv")


# --- simulate_paper_cell -----------------------------------------------------

SIM_REPLICATIONS = {False: 8, True: 1}


def _sim_prepare(seed, smoke, work):
    return inputs.simulate_inputs(seed, SIM_REPLICATIONS[smoke], work)


def _sim_argv(truth, out):
    return ["simulate", str(truth["path"]), "--seed", str(CLI_SEED), "--out", str(out)]


def _sim_check(truth, out):
    ok, msg = checks.check_simulate(truth, out / "replications.csv", out / "report.json")
    return ok, msg, _digest(out / "replications.csv")


# --- influence_default -------------------------------------------------------


def _inf_prepare(seed, smoke, work):
    # The workload is the subcommand's defaults, which no seed changes;
    # smoke keeps one beta.
    return {"betas": [0.2] if smoke else [0.1, 0.2, 1.0]}


def _inf_argv(truth, out):
    extra = ["--beta", "0.2"] if len(truth["betas"]) == 1 else []
    return ["influence", "--out", str(out)] + extra


def _inf_check(truth, out):
    ok, msg = checks.check_influence(truth, out)
    files = [out / "solution.json"] + [out / f"if_curve_beta{b:g}.csv" for b in truth["betas"]]
    return ok, msg, _digest(*files)


# --- image_segment -----------------------------------------------------------

IMAGE_SIDE = {False: 512, True: 48}
IMAGE_ANOMALIES = {False: 300, True: 12}
IMAGE_RESTARTS = 3
# [0, 1] channels need an eigenvalue floor far below the shared 0.1 default,
# which would floor every pixel covariance at a standard deviation of 0.32.
IMAGE_C1 = 1e-4


def _img_prepare(seed, smoke, work):
    return inputs.image_inputs(seed, IMAGE_SIDE[smoke], IMAGE_ANOMALIES[smoke], work)


def _img_argv(truth, out):
    return ["image", str(truth["path"]), "--k", str(len(inputs.IMAGE_REGION_COLORS)),
            "--c1", str(IMAGE_C1), "--restarts", str(IMAGE_RESTARTS),
            "--seed", str(CLI_SEED), "--out", str(out / "segmented.ppm")]


def _img_check(truth, out):
    ppm, sidecar = out / "segmented.ppm", out / "segmented.ppm.json"
    ok, msg = checks.check_image(truth, ppm, sidecar)
    return ok, msg, _digest(ppm, sidecar)


WORKLOADS = {w.name: w for w in (
    Workload("fit_large_csv", "fit", _fit_prepare, _fit_argv, _fit_check),
    Workload("simulate_paper_cell", "simulate", _sim_prepare, _sim_argv, _sim_check),
    Workload("influence_default", "influence", _inf_prepare, _inf_argv, _inf_check),
    Workload("image_segment", "image", _img_prepare, _img_argv, _img_check),
)}


# --- runs --------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)


def whole_rounds(seconds: float, do_round) -> int:
    """Call ``do_round(i)`` for i = 0, 1, ... while the next round is expected
    to end within ``seconds`` of the start; always at least once."""
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        do_round(rounds)
        rounds += 1
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return rounds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def run(self, argv: list[str], env: dict, cwd: Path, what: str) -> Invocation:
        """One counted CLI process; a non-zero exit counts as failed."""
        inv = run_cli(argv, env, cwd)
        self.attempted += 1
        if inv.returncode != 0:
            self.failed += 1
            _fail(f"{what} exited {inv.returncode}: {inv.stderr.strip()}")
        return inv


def run_rounds(wl: Workload, truth: dict, seconds: float, work: Path, prefix: list[str],
               collect, before=None) -> Tally:
    """Whole rounds for ``seconds``: ``before(tally)``, if given, then one
    invocation of ``prefix`` + the workload's arguments, whose output is
    checked and must be byte-identical in every round. ``collect(inv)`` takes
    each successful invocation and may return a further (ok, message) check."""
    env = cli_env()
    tally = Tally()
    digests = set()

    def one_round(i: int) -> None:
        if before is not None:
            before(tally)
        out = work / f"out{i}"
        inv = tally.run(prefix + wl.argv(truth, out), env, work, wl.name)
        if inv.returncode == 0:
            ok, msg, digest = wl.check(truth, out)
            digests.add(digest)
            extra = collect(inv)
            if ok and extra is not None:
                ok, msg = extra
            if not ok:
                tally.correct = False
                _fail(f"{wl.name} output check failed: {msg}")
            print(f"bench: round {i}: wall {inv.wall_s:.3f} s, cpu {inv.cpu_s:.3f} s",
                  file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)

    whole_rounds(seconds, one_round)
    if len(digests) > 1:
        tally.correct = False
        _fail(f"{wl.name} output bytes differ across rounds")
    return tally


def _result(tally: Tally, correct: bool, metrics: dict) -> dict:
    return {"correct": tally.correct and correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def measure(wl: Workload, truth: dict, seconds: float, work: Path) -> dict:
    """Whole rounds of SETUP_PROBES_PER_ROUND set-up probes and one full
    invocation; every metric is the median over the run, so set-up samples
    the same host periods as the invocations."""
    env = cli_env()
    cli = [sys.executable, "-m", "mixclust.cli"]
    help_argv = cli + [wl.subcommand, "--help"]
    # Untimed warm-up: compiles bytecode and fills the page cache, which a
    # user running the CLI repeatedly also has.
    run_cli(help_argv, env, work)
    raw = {name: [] for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}

    def probe(tally: Tally) -> None:
        for _ in range(SETUP_PROBES_PER_ROUND):
            inv = tally.run(help_argv, env, work, f"{wl.subcommand} --help")
            if inv.returncode == 0:
                raw["setup_s"].append(inv.wall_s)

    def collect(inv: Invocation) -> None:
        raw["wall_s"].append(inv.wall_s)
        raw["cpu_s"].append(inv.cpu_s)
        raw["peak_rss_mb"].append(inv.peak_rss_mb)

    tally = run_rounds(wl, truth, seconds, work, cli, collect, before=probe)
    print(f"bench: set-up {[round(v, 3) for v in raw['setup_s']]} s", file=sys.stderr)
    metrics = {name: {"value": statistics.median(values),
                      "unit": "MiB" if name == "peak_rss_mb" else "s"}
               for name, values in raw.items() if values}
    return _result(tally, all(raw.values()), metrics)


def measure_traced(wl: Workload, truth: dict, seconds: float, work: Path) -> dict:
    """Whole rounds of one traced invocation; per-layer counts, which must
    repeat exactly, and median self times."""
    spans = work / "spans.json"
    pixels = work / "loaded_pixels.npy"
    capture = ["--capture-pixels", str(pixels)] if wl.name == "image_segment" else []
    prefix = ([sys.executable, str(Path(tracer.__file__).resolve()), "--spans", str(spans)]
              + capture + ["--"])
    samples: list[dict] = []

    def collect(inv: Invocation):
        samples.append(tracer.layer_metrics(json.loads(spans.read_text(encoding="utf-8"))))
        return checks.check_loaded_pixels(truth, pixels) if capture else None

    tally = run_rounds(wl, truth, seconds, work, prefix, collect)
    correct = bool(samples)
    metrics = {}
    for name, unit in tracer.LAYER_METRICS.items():
        values = [sample[name] for sample in samples]
        if not values:
            break
        if tracer.is_time(name):
            value = statistics.median(values)
        else:
            value = values[0]
            if len(set(values)) > 1:
                correct = False
                _fail(f"{name} differs across traced rounds: {values}")
        metrics[name] = {"value": value, "unit": unit}
    return _result(tally, correct, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "mixclust" / "cli.py").is_file():
        _fail(f"no mixclust sources under {SRC}; run from a source checkout")
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        truth = wl.prepare(args.seed, args.smoke, work)
        run = measure_traced if args.trace else measure
        result = run(wl, truth, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
