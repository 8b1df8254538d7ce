"""Tests of the benchmark itself, at smoke sizes. No timing is asserted.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_per_layer_list_matches_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    one, two, other = (tmp_path / name for name in ("one", "two", "other"))
    for path, seed in ((one, 4), (two, 4), (other, 5)):
        path.mkdir()
        inputs.fit_inputs(seed, 300, path)
        inputs.simulate_inputs(seed, 2, path)
        inputs.image_inputs(seed, 20, 5, path)
    for name in ("fit.csv", "scenario.json", "image.png"):
        assert (one / name).read_bytes() == (two / name).read_bytes()
        assert (one / name).read_bytes() != (other / name).read_bytes()


def test_png_rows_use_all_five_filters(tmp_path):
    import zlib

    truth = inputs.image_inputs(1, 20, 5, tmp_path)
    blob = truth["path"].read_bytes()
    start = blob.index(b"IDAT") + 4
    length = int.from_bytes(blob[start - 8:start - 4], "big")
    raw = zlib.decompress(blob[start:start + length])
    stride = 20 * 3 + 1
    assert {raw[row * stride] for row in range(20)} == {0, 1, 2, 3, 4}


def _fit_fixture(tmp_path):
    """A tiny fit output written by hand from the planted truth."""
    truth = inputs.fit_inputs(2, 600, tmp_path)
    data, labels = truth["data"], truth["labels"]
    k = inputs.FIT_K
    weights = [float(np.mean(labels[labels >= 0] == j)) for j in range(k)]
    means = inputs.FIT_CENTERS.tolist()
    covs = [np.eye(inputs.FIT_P).tolist()] * k
    logd = checks.log_discriminants(data, weights, means, covs)
    cluster = np.argmax(logd, axis=1)
    disc = np.exp(logd[np.arange(len(data)), cluster])
    flag = len(data) * disc <= 1e-8
    result = {"n": len(data), "p": inputs.FIT_P, "k": k, "threshold": 1e-8,
              "weights": weights, "means": means, "covariances": covs,
              "outlier_count": int(flag.sum())}
    (tmp_path / "result.json").write_text(json.dumps(result), encoding="utf-8")
    lines = ["row,cluster,discriminant,outlier,outlier_type"]
    for i in range(len(data)):
        lines.append(f"{i + 1},{cluster[i] + 1},{disc[i]:.12g},{int(flag[i])},"
                     f"{cluster[i] + 1 if flag[i] else ''}")
    return truth, lines


def test_fit_check_accepts_consistent_output_and_catches_a_wrong_label(tmp_path):
    truth, lines = _fit_fixture(tmp_path)
    csv_path = tmp_path / "assignments.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check_fit(truth, tmp_path / "result.json", csv_path, 20.0, 0.1) == (True, "")
    row, cluster, rest = lines[1].split(",", 2)
    lines[1] = f"{row},{int(cluster) % inputs.FIT_K + 1},{rest}"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok, msg = checks.check_fit(truth, tmp_path / "result.json", csv_path, 20.0, 0.1)
    assert not ok and "largest discriminant" in msg


def test_image_check_catches_a_foreign_colour(tmp_path):
    truth = inputs.image_inputs(3, 16, 4, tmp_path)
    labels = truth["labels"]
    colors = [[0.15, 0.25, 0.70], [0.70, 0.20, 0.20]]
    outlier_colors = [[1.0, 1.0, 1.0], [0.545, 0.271, 0.075]]
    palette = np.rint(np.array(colors + outlier_colors) * 255).astype(np.uint8)
    pix = palette[np.where(labels >= 0, labels, 2)]
    sidecar = {"cluster_colors": colors, "outlier_colors": outlier_colors,
               "total_outliers": int((labels < 0).sum()),
               "pixels_per_cluster": [int((labels == j).sum()) for j in (0, 1)]}
    sidecar["pixels_per_cluster"][0] += int((labels < 0).sum())
    (tmp_path / "out.ppm.json").write_text(json.dumps(sidecar), encoding="utf-8")

    def write(pixels):
        (tmp_path / "out.ppm").write_bytes(b"P6\n16 16\n255\n" + pixels.tobytes())
        return checks.check_image(truth, tmp_path / "out.ppm", tmp_path / "out.ppm.json")

    assert write(pix) == (True, "")
    pix[0] = (1, 2, 3)
    ok, msg = write(pix)
    assert not ok and "not sidecar" in msg
