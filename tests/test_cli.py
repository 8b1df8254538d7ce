"""CLI contract: subcommands, exit codes, deterministic outputs, schemas."""

import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import re
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixclust.cli import _ALGO_FIELDS, _load_scenario, main, read_csv_matrix
from mixclust.errors import ImageFormatError, SamplingError
from mixclust.schemas import SchemaError, validate
from tests.test_imageseg import filtered_png, malformed_images, png_blob, two_tone_grid
from mixclust.imageseg import PixelGrid, load_image, save_ppm
from mixclust.simulation import CONTAMINATION_KINDS, ScenarioSpec, generate

ROOT = Path(__file__).resolve().parents[1]

# fit and image flags whose non-finite values the configuration refuses.
NON_FINITE_ALGO_FLAGS = [
    ["--threshold", "nan"], ["--threshold", "inf"], ["--threshold=-inf"],
    ["--c", "nan"], ["--c", "inf"], ["--c1", "nan"], ["--c1", "inf"],
]


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "x,y\n0.1,0.2\n-0.1,0.0\n0.05,-0.2\n8.0,8.1\n7.9,8.0\n8.2,7.8\n")
    return path


class TestCsvReader:
    def test_header_autodetect(self, toy_csv):
        data = read_csv_matrix(toy_csv)
        assert data.shape == (6, 2)

    @pytest.mark.parametrize("header", ["", "x,y\n"], ids=["no-header", "header"])
    def test_byte_order_mark_keeps_first_row(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + header + "1.0,2.0\n3.0,4.0\n5.0,6.5\n").encode("utf-8"))
        np.testing.assert_array_equal(read_csv_matrix(path),
                                      [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(Exception) as err:
            read_csv_matrix(path)
        assert ":3:" in str(err.value)

    def test_non_numeric_cell_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(Exception) as err:
            read_csv_matrix(path)
        assert ":2:" in str(err.value)


class TestFitCommand:
    def test_toy_fit(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["fit", str(toy_csv), "--k", "2", "--beta", "0.2",
                     "--restarts", "3", "--seed", "7", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        validate(payload, "fit_result")
        assert payload["k"] == 2
        assert sum(payload["weights"]) == pytest.approx(1.0)
        rows = (out / "assignments.csv").read_text().strip().splitlines()
        assert len(rows) == 7
        clusters = {int(r.split(",")[1]) for r in rows[1:]}
        assert clusters == {1, 2}

    def test_deterministic_bytes(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["fit", str(toy_csv), "--k", "2", "--beta", "0",
                         "--restarts", "1", "--seed", "7", "--out", str(out)])
            assert code == 0
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "assignments.csv").read_bytes() == (out2 / "assignments.csv").read_bytes()

    def test_blas_thread_count_keeps_bytes(self, tmp_path):
        # Same bytes whatever the BLAS thread count. The program runs one
        # thread unless its caller sets one, so the second run asks for two.
        # Measured on a 2-CPU host (OpenBLAS 0.3.31, each shape in a fresh
        # process), OpenBLAS splits the (5, 5) x (5, n) distance GEMM over
        # threads only from about 40 500 rows; the (5, n) x (n, 5) scatter
        # did not thread even at 60 000. So each cluster has 44 000.
        rng = np.random.default_rng(3)
        csv = tmp_path / "large.csv"
        np.savetxt(csv, np.vstack([rng.standard_normal((44_000, 5)),
                                   rng.standard_normal((44_000, 5)) * 1.5 + 6.0,
                                   rng.uniform(-30.0, 30.0, (200, 5))]),
                   delimiter=",", fmt="%.6f")
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "mixclust.cli", "fit", str(csv), "--k", "2",
                 "--restarts", "2", "--seed", "0", "--out", str(out)],
                env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("result.json", "assignments.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # Same bytes whatever the worker count, in one process with the
        # default BLAS threads, which the serial fit's distance GEMM and each
        # forked worker (inheriting them) both use.
        proc = subprocess.run(
            [sys.executable, "-c",
             "from mixclust import AlgoConfig, fit\n"
             "from mixclust.cli import read_csv_matrix\n"
             f"data = read_csv_matrix({str(csv)!r})\n"
             "def summary(res):\n"
             "    params = res.params\n"
             "    arrays = [params.weights, *[c.mean for c in params.components],\n"
             "              *[c.cov for c in params.components], res.assignments,\n"
             "              res.outlier_flags, res.discriminants]\n"
             "    return ([a.tobytes() for a in arrays], res.objective, res.iterations,\n"
             "            res.restart_index, res.stable, res.selection_score)\n"
             "cfg = AlgoConfig(n_restarts=2, seed=0)\n"
             "serial, *pooled = [summary(fit(data, 2, cfg, workers=w)) for w in (1, 2, 4)]\n"
             "assert all(other == serial for other in pooled)\n"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), "--k", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code = main(["fit", str(path), "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_non_finite_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,2\n3,nan\n5,6\n7,8\n")
        code = main(["fit", str(path), "--k", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_capped_fit_labels_match_written_params(self, tmp_path):
        # three overlapping blobs: two outer iterations do not settle the labels
        rng = np.random.default_rng(0)
        data = np.vstack([rng.normal(c, 1.0, (60, 2))
                          for c in ([0.0, 0.0], [2.5, 0.0], [1.2, 2.2])])
        path = tmp_path / "blobs.csv"
        np.savetxt(path, data, delimiter=",", fmt="%.6f")
        data = np.loadtxt(path, delimiter=",")
        for max_iter, stable in (("2", False), ("100", True)):
            out = tmp_path / f"run{max_iter}"
            assert main(["fit", str(path), "--k", "3", "--restarts", "1",
                         "--max-iter", max_iter, "--out", str(out)]) == 0
            result = json.loads((out / "result.json").read_text())
            assert result["stable"] is stable
            labels = np.loadtxt(out / "assignments.csv", delimiter=",", skiprows=1,
                                usecols=1).astype(int) - 1
            logd = []
            for w, mean, cov in zip(result["weights"], result["means"],
                                    result["covariances"]):
                chol = np.linalg.cholesky(np.array(cov))
                z = np.linalg.solve(chol, (data - mean).T)
                log_det = 2.0 * np.log(np.diag(chol)).sum()
                logd.append(np.log(w) - 0.5 * (data.shape[1] * np.log(2 * np.pi) + log_det
                                               + (z * z).sum(axis=0)))
            logd = np.column_stack(logd)
            own = logd[np.arange(len(data)), labels]
            assert np.all(own >= logd.max(axis=1) - 1e-9)

    def test_assignments_type_only_flagged_rows(self, tmp_path):
        # two blobs and four far points, which the default threshold flags
        rng = np.random.default_rng(5)
        data = np.vstack([rng.normal(0.0, 1.0, (60, 2)), rng.normal(6.0, 1.0, (60, 2)),
                          [[40.0, 40.0], [-40.0, 30.0], [35.0, -45.0], [-30.0, -30.0]]])
        path = tmp_path / "far.csv"
        np.savetxt(path, data, delimiter=",", fmt="%.6f")
        out = tmp_path / "run"
        assert main(["fit", str(path), "--k", "2", "--restarts", "3", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        with open(out / "assignments.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["row", "cluster", "discriminant", "outlier", "outlier_type"]
        n, thr = len(data), result["threshold"]
        flag = np.array([r[3] == "1" for r in rows])
        score = n * np.array([float(r[2]) for r in rows])
        assert flag[-4:].all() and not flag.all()
        assert np.all(np.abs(score - thr) > 1e-6 * thr)  # no row sits on the threshold
        assert np.array_equal(flag, score <= thr)
        assert [r[4] for r in rows] == [r[1] if f else "" for r, f in zip(rows, flag)]
        assert result["outlier_count"] == int(flag.sum())

    def test_output_collision_exit_2(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["fit", str(toy_csv), "--k", "2", "--restarts", "1",
                     "--out", str(out)]) == 0
        assert main(["fit", str(toy_csv), "--k", "2", "--restarts", "1",
                     "--out", str(out)]) == 2
        assert main(["fit", str(toy_csv), "--k", "2", "--restarts", "1",
                     "--out", str(out), "--force"]) == 0

    def test_refused_settings_leave_no_out(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.5\n")
        out = tmp_path / "fo"
        assert main(["fit", str(path), "--k", "0", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", NON_FINITE_ALGO_FLAGS, ids=" ".join)
    def test_non_finite_setting_exit_2(self, toy_csv, tmp_path, capsys, flags):
        out = tmp_path / "fo"
        assert main(["fit", str(toy_csv), "--k", "2", "--restarts", "1", *flags,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestSimulateCommand:
    def test_small_scenario(self, tmp_path, capsys):
        spec = {
            "n": 150, "p": 2, "k": 3, "cov_scale": 1.0,
            "means": [[0, 0], [6, 6], [-6, -6]],
            "weights": [0.33, 0.33, 0.34],
            "contamination": "none", "replications": 2, "seed": 3,
            "betas": [0.1], "restarts": 3, "threshold": 1e-3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim"
        code = main(["simulate", str(spec_path), "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "misclassification" in table
        payload = json.loads((out / "report.json").read_text())
        validate(payload, "simulation_report")
        lines = (out / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 replications

    def test_single_replication_csv(self, tmp_path):
        spec = {
            "n": 120, "p": 2, "k": 2, "means": [[0, 0], [7, 7]],
            "weights": [0.5, 0.5], "contamination": "none",
            "replications": 1, "seed": 5, "betas": [0.2], "restarts": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sim"
        assert main(["simulate", str(spec_path), "--out", str(out)]) == 0
        lines = (out / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_seed_changes_rows_not_schema(self, tmp_path):
        base = {
            "n": 120, "p": 2, "k": 2, "means": [[0, 0], [7, 7]],
            "weights": [0.5, 0.5], "contamination": "none",
            "replications": 2, "betas": [0.1], "restarts": 2,
        }
        outputs = []
        for seed in (1, 2):
            spec_path = tmp_path / f"spec{seed}.json"
            spec_path.write_text(json.dumps(base | {"seed": seed}))
            out = tmp_path / f"sim{seed}"
            assert main(["simulate", str(spec_path), "--out", str(out)]) == 0
            outputs.append((out / "replications.csv").read_text())
        header = outputs[0].splitlines()[0]
        assert outputs[1].splitlines()[0] == header
        assert outputs[0] != outputs[1]

    def test_worker_count_keeps_bytes(self, tmp_path, monkeypatch):
        spec = {
            "n": 120, "p": 2, "k": 2, "means": [[0, 0], [7, 7]],
            "weights": [0.5, 0.5], "contamination": "none",
            "replications": 3, "seed": 11, "betas": [0.2, 0.0], "restarts": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outputs = []
        # The pool is sized by CPU affinity alone, as for fit.
        for workers in (1, 3):
            monkeypatch.setattr("mixclust.workers.default_workers", lambda: workers)
            out = tmp_path / f"sim{workers}"
            assert main(["simulate", str(spec_path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("replications.csv", "report.json")])
        assert outputs[0] == outputs[1]

    def test_invalid_spec_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"p": 2, "bogus_field": 1}))
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field", [
        {"betas": 0.3}, {"betas": [None]}, {"betas": []}, {"betas": [0.1, 0.1]},
        {"c": None}, {"restarts": "x"}, {"weights": None}, {"replications": 0},
        {"p": 2.9}, {"restarts": True}, {"replications": 1.5},
        # json writes these as NaN and Infinity, which Python's reader accepts
        {"threshold": float("nan")}, {"threshold": float("inf")},
        {"threshold": float("-inf")}, {"c": float("inf")}, {"c": float("nan")},
        {"c1": float("inf")}, {"c1": float("nan")},
        {"cov_scale": float("nan")}, {"cov_scale": float("inf")}, {"cov_scale": 0},
        {"means": [[float("nan"), 0], [7, 7]]}, {"means": [[0, 0], [7, float("inf")]]},
        {"p": 0}, {"k": 0}, {"n": 0}, {"n": 1},
        {"p": -1}, {"threshold": None}, {"means": None}, {"contamination_level": None},
        {"seed": -1}, {"means": [[0, 0], [7, 7], [1, 1]]},
        {"means": "abc"}, {"weights": {"a": 1}}, {"weights": [1.5, -0.5]},
        # keys whose AlgoConfig field has another name, and integers no float holds
        {"restarts": 0}, {"max_outer_iter": 0}, {"betas": [1.5]},
        {"contamination_level": 0.5}, {"c": 10**400}, {"means": [[10**400, 0], [7, 7]]},
    ])
    def test_malformed_setting_exit_2(self, tmp_path, capsys, field):
        (name,) = field  # the one key set is the field the message must name
        spec = {
            "n": 60, "p": 2, "k": 2, "means": [[0, 0], [7, 7]],
            "weights": [0.5, 0.5], "replications": 1, "restarts": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec | field))
        out = tmp_path / "o"
        assert main(["simulate", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        # the field's name as a word of the message, not just its letters
        assert re.search(rf"\b{name}\b", err.removeprefix(f"error: {spec_path}")), err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [
        {"p": 2, "k": 2},
        {"n": 60, "p": 2, "k": 2, "weights": [0.5, 0.5], "replications": 1},
    ])
    def test_design_needs_three_clusters_exit_2(self, tmp_path, capsys, spec):
        # the paper's means and weights are for k = 3 alone
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert main(["simulate", str(spec_path), "--out", str(out)]) == 2
        assert "means and weights must be given unless k = 3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"p": 2, "replications": 2, "restarts": 2}))
        out = tmp_path / "o"
        assert main(["simulate", str(spec_path), "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "seed must be nonnegative" in err
        # the flag is at fault, not the scenario file
        assert str(spec_path) not in err and "invalid scenario" not in err
        assert not out.exists()

    def test_zero_replications_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"p": 2, "replications": 2, "restarts": 2}))
        out = tmp_path / "o"
        assert main(["simulate", str(spec_path), "--replications", "0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "replications must be at least 1" in err
        # the flag is at fault, not the scenario file
        assert str(spec_path) not in err and "invalid scenario" not in err
        assert not out.exists()

    def test_rare_uniform_acceptance_exit_3(self, tmp_path, capsys):
        # about 4 draws in a million land beyond the cutoff: refused after the
        # first million draws, not run for tens of seconds
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "p": 2, "cov_scale": 27.05, "contamination": "uniform_chisq",
            "replications": 1, "restarts": 1}))
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["simulate", str(spec_path), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 10.0
        assert "acceptance rate" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exit_3(self, tmp_path, capsys):
        # 10^15 rows of 2 floats: 4.69 PiB, past the 2^47-byte user address
        # space, so the allocation fails at once whatever the overcommit setting.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"p": 2, "n": 10**15, "replications": 1, "restarts": 1}))
        out = tmp_path / "o"
        assert main(["simulate", str(spec_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("computation failed: ") and "Unable to allocate" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"p"'])
    def test_non_object_scenario_exit_2(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert main(["simulate", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_algorithm_flag_refused(self, tmp_path, capsys):
        # The scenario file owns the algorithm settings and CPU affinity sizes
        # the pool; argparse stops the flag.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"p": 2, "betas": [0.3]}))
        out = tmp_path / "o"
        for flag in (["--beta", "0.3"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", str(spec_path), *flag, "--out", str(out)])
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err
            assert not out.exists()

    def test_bundled_scenario_ships(self):
        from importlib.resources import files

        raw = json.loads(files("mixclust").joinpath("data/table1_p2_I.json").read_text())
        assert raw["p"] == 2 and raw["replications"] == 20
        assert raw["betas"] == [0.0, 0.1]

    def test_bundled_scenario_runs_and_prints_row(self, tmp_path, capsys):
        from importlib.resources import as_file, files

        out = tmp_path / "table1"
        with as_file(files("mixclust").joinpath("data/table1_p2_I.json")) as spec:
            code = main(["simulate", str(spec), "--replications", "1", "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "p=2" in table and "beta=0" in table and "beta=0.1" in table
        assert "misclassification" in table and "(detected outliers)" in table


# Every key a scenario file may set.
SCENARIO_KEYS = ("n", "p", "k", "means", "cov_scale", "weights", "contamination",
                 "contamination_level", "replications", "seed", "betas", "c", "c1",
                 "threshold", "restarts", "max_outer_iter")
# n and p stay within these, so no draw allocates more than a few MiB.
MAX_N, MAX_P = 1500, 300


@st.composite
def valid_scenarios(draw) -> dict:
    """A scenario that loads: the paper's design or one of its own."""
    p = draw(st.integers(1, MAX_P))
    kind = draw(st.sampled_from(CONTAMINATION_KINDS))
    scenario = {"p": p, "contamination": kind}
    k = 3
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        level = 0.0 if kind == "none" else draw(st.floats(0.01, 0.5))
        shares = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scenario |= {"k": k, "contamination_level": level,
                     "means": rng.uniform(-10.0, 10.0, (k, p)).tolist(),
                     "weights": [(1.0 - level) * w / sum(shares) for w in shares]}
    optional = {
        "n": st.integers(k, MAX_N), "cov_scale": st.floats(0.1, 10.0),
        "replications": st.integers(1, 50), "seed": st.integers(0, 2**32 - 1),
        "betas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True),
        "c": st.floats(1.0, 100.0), "c1": st.floats(1e-3, 1.0),
        "threshold": st.floats(0.0, 1.0), "restarts": st.integers(1, 20),
        "max_outer_iter": st.integers(1, 200),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            scenario[key] = draw(values)
    return scenario


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
HUGE = st.sampled_from([1e300, -1e300, 10**30, -(10**30), 10**400])
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=True), st.text(max_size=2),
                       st.none()), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
PLAUSIBLE = st.one_of(st.integers(-5, 400), st.floats(-2.0, 2.0), st.floats(0.0, 1.0))


def wild_values(key: str):
    """Any value for ``key``: wrong types, non-finite, huge or plausible
    numbers, and number lists of any length. n and p get no huge value."""
    if key in ("n", "p"):
        top = MAX_N if key == "n" else MAX_P
        numbers = st.one_of(st.integers(-5, top), st.floats(-2.0, 2.0), NON_FINITE,
                            st.just(-1e300))
    else:
        numbers = st.one_of(PLAUSIBLE, NON_FINITE, HUGE)
    return st.one_of(WRONG_TYPES, numbers, st.lists(numbers, max_size=5),
                     st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=3))


@st.composite
def scenarios(draw) -> tuple[dict, str | None]:
    """A valid scenario, with one key (or none) set to any value; returns
    the scenario and that key."""
    scenario = draw(valid_scenarios())
    if draw(st.integers(0, 3)) == 0:
        return scenario, None
    key = draw(st.sampled_from(SCENARIO_KEYS))
    return scenario | {key: draw(wild_values(key))}, key


def test_scenario_keys_cover_the_loader():
    accepted = {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert set(SCENARIO_KEYS) == accepted | {"betas", "c", "c1", *_ALGO_FIELDS}


@settings(max_examples=300, deadline=None)
@given(drawn=scenarios())
def test_scenario_generates_or_names_the_bad_key(tmp_path_factory, drawn):
    # a scenario either draws a sample or is refused with a message that
    # names the key that was set to a bad value
    scenario, key = drawn
    path = tmp_path_factory.getbasetemp() / "scenario.json"
    path.write_text(json.dumps(scenario))
    try:
        spec, _ = _load_scenario(path)
        data, labels = generate(spec, np.random.default_rng(spec.seed))
    except SamplingError:
        assert scenario["contamination"] == "uniform_chisq"
    except ValueError as exc:
        assert key is not None, exc
        message = str(exc).removeprefix(f"{path}: ")
        assert re.search(rf"\b{key}\b", message), message
    else:
        assert data.shape == (spec.n, spec.p) and labels.shape == (spec.n,)


# Decoder inputs to mutate: a 6x5 RGB image as a PNG whose rows cycle
# through the five filters and as a PPM, and a CSV of two 15-row blobs.
DECODED_PIXELS = np.random.default_rng(5).integers(0, 256, (5, 6, 3), dtype=np.uint8)
DECODED_CSV = "x,y\n" + "".join(f"{i % 3 * 0.25:g},{i // 15 * 6.0 + i % 5 * 0.1:g}\n"
                                 for i in range(30))


# A PNG side from 0 up, or near the format's 2**31 - 1 limit and past it
# (the header field holds up to 2**32 - 1).
PNG_SIDES = st.one_of(st.integers(0, 8), st.integers(2**31 - 2, 2**32 - 1))


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` after one to six edits, each a byte set, inserted or deleted
    at a drawn position, or the tail cut off there."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        byte = draw(st.integers(0, 255))
        if edit == "insert":
            data.insert(pos, byte)
        elif edit == "cut":
            del data[pos:]
        elif pos < len(data):
            if edit == "set":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


def decoder_inputs():
    """(kind, bytes): a mutated PNG file, a PNG whose inflated scanlines were
    mutated (re-compressed, so the filters see them), a PNG whose header
    declares any size and colour type, a mutated PPM or CSV."""
    png = filtered_png(DECODED_PIXELS)
    (length,) = struct.unpack(">I", png[33:37])
    scanlines = zlib.decompress(png[41 : 41 + length])
    height, width, _ = DECODED_PIXELS.shape
    ppm = f"P6\n{width} {height}\n255\n".encode() + DECODED_PIXELS.tobytes()
    return st.one_of(
        st.tuples(st.just("png"), mutated(png)),
        st.tuples(st.just("png"), mutated(scanlines).map(
            lambda raw: png_blob(width, height, 2, zlib.compress(raw)))),
        st.tuples(st.just("png"), st.builds(
            png_blob, PNG_SIDES, PNG_SIDES, st.sampled_from((0, 2, 3, 4, 6)),
            st.just(zlib.compress(scanlines)))),
        st.tuples(st.just("ppm"), mutated(ppm)),
        st.tuples(st.just("csv"), mutated(DECODED_CSV.encode())))


@settings(max_examples=200, deadline=None)
@given(drawn=decoder_inputs())
def test_mutated_input_decodes_or_is_refused(tmp_path_factory, drawn):
    # A decoder returns a value or refuses with ImageFormatError or
    # ValueError, and the program exits 0, 2 (refused input) or 3 (a fit
    # that failed on what was decoded, such as an image of one colour).
    kind, blob = drawn
    base = tmp_path_factory.getbasetemp()
    path = base / f"mutated.{kind}"
    path.write_bytes(blob)
    try:
        (read_csv_matrix if kind == "csv" else load_image)(path)
        decoded = True
    except (ImageFormatError, ValueError):
        decoded = False
    command = (["fit", str(path), "--out", str(base / "mutated-fit")] if kind == "csv"
               else ["image", str(path), "--out", str(base / "mutated-seg.ppm")])
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = main([*command, "--k", "2", "--restarts", "1", "--force"])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    assert code == 0 or err.startswith("error: " if code == 2 else "computation failed: ")
    assert decoded or code == 2


class TestInfluenceCommand:
    def test_beta_zero_refused(self, tmp_path, capsys):
        code = main(["influence", "--beta", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unbounded" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--pi1", "1.5"], ["--pi1", "-0.2"], ["--pi1", "0"], ["--var1", "nan"],
        ["--var2", "inf"], ["--var1", "-1"], ["--mu1", "inf"], ["--mu2", "nan"],
        ["--grid-points", "0"], ["--grid-points", "-3"], ["--grid-lo", "nan"],
        ["--beta", "-0.5"], ["--beta", "nan"], ["--beta", "inf"], ["--c", "0.5"],
        ["--c", "inf"], ["--c", "nan"], ["--c1", "inf"], ["--c1", "nan"],
        ["--grid-lo=-1e308", "--grid-hi", "1e308"],
    ])
    def test_invalid_model_refused_before_output(self, tmp_path, capsys, flags):
        # Refused at the boundary: nothing is solved and no --out is made.
        out = tmp_path / "o"
        code = main(["influence", *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_failed_solve_leaves_no_out(self, tmp_path, capsys):
        # Betas 0.1 and 0.2 solve inside c = 3; beta 1.0 reaches a variance
        # ratio of 3.12, so the run fails after two curves are computed.
        out = tmp_path / "o"
        assert main(["influence", "--c", "3.0", "--out", str(out)]) == 3
        assert "constraint set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--mu2", "1e200"], ["--var2", "1e300"],
                                       ["--var1", "1e-200"]])
    def test_float_failure_exits_3(self, tmp_path, flags):
        # A law that overflows or divides by zero in the solve is a failed
        # computation, reported on one line, never a traceback.
        proc = subprocess.run(
            [sys.executable, "-m", "mixclust.cli", "influence", *flags,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("computation failed:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags", [["--pi1", "0.999999999999"], ["--var1", "1e-30"]])
    def test_start_off_the_solve_domain_exits_3(self, tmp_path, capsys, flags):
        # The law's own crossings give pi1 within 1e-12 of 1, or |log var1|
        # past 50: Newton has no valid start, and says so, not a sentinel
        # residual.
        out = tmp_path / "o"
        assert main(["influence", *flags, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("computation failed: functional solve starts outside its domain")
        assert "1.000e+06" not in err
        assert not out.exists()

    @pytest.mark.parametrize("betas", [["0.1", "0.1000001"], ["0.2", "0.2"]])
    def test_betas_sharing_a_curve_file_refused(self, tmp_path, capsys, betas):
        # Curve files are named by {beta:g}: one would overwrite the other.
        out = tmp_path / "o"
        code = main(["influence", *(f for b in betas for f in ("--beta", b)),
                     "--out", str(out)])
        assert code == 2
        assert "distinct curve files" in capsys.readouterr().err
        assert not out.exists()

    def test_far_grid_writes_no_nan(self, tmp_path):
        out = tmp_path / "inf"
        assert main(["influence", "--grid-lo=-1e200", "--grid-hi", "1e200",
                     "--grid-points", "3", "--out", str(out)]) == 0
        for beta in ("0.1", "0.2", "1"):
            table = np.loadtxt(out / f"if_curve_beta{beta}.csv", delimiter=",", skiprows=1)
            assert np.isfinite(table).all()

    def test_default_model_outputs(self, tmp_path):
        out = tmp_path / "inf"
        code = main(["influence", "--beta", "0.2", "--grid-points", "41",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "solution.json").read_text())
        validate(payload, "influence_solution")
        sol = payload["solutions"][0]
        assert sol["beta"] == 0.2
        assert sol["a"] < sol["b"]
        assert sol["residual_norm"] <= 1e-8
        curve = (out / "if_curve_beta0.2.csv").read_text().splitlines()
        assert curve[0] == "y,IF_pi1,IF_pi2,IF_a,IF_b,IF_mu1,IF_mu2,IF_s1,IF_s2"
        assert len(curve) == 42

    def test_grid_bounds_configurable(self, tmp_path):
        out = tmp_path / "inf"
        code = main(["influence", "--beta", "0.2", "--grid-lo", "-5",
                     "--grid-hi", "5", "--grid-points", "11", "--out", str(out)])
        assert code == 0
        rows = (out / "if_curve_beta0.2.csv").read_text().strip().splitlines()[1:]
        ys = [float(r.split(",")[0]) for r in rows]
        assert ys[0] == -5.0 and ys[-1] == 5.0 and len(ys) == 11


class TestImageCommand:
    def test_two_tone_pipeline(self, tmp_path):
        grid, _ = two_tone_grid(side=24, seed=2)
        img = tmp_path / "img.ppm"
        save_ppm(grid, img)
        out = tmp_path / "recon.ppm"
        code = main(["image", str(img), "--k", "2", "--beta", "0.2",
                     "--threshold", "0.02", "--c1", "0.01", "--restarts", "3",
                     "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "recon.ppm.json").read_text())
        validate(sidecar, "image_sidecar")
        assert sidecar["k"] == 2
        assert sidecar["config"]["beta"] == 0.2

    def test_help_states_threshold(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["image", "--help"])
        assert exc.value.code == 0
        assert "outlier threshold (default 0.02)" in capsys.readouterr().out

    def test_collision_without_force(self, tmp_path):
        grid, _ = two_tone_grid(side=12, noise_fraction=0.0)
        img = tmp_path / "img.ppm"
        save_ppm(grid, img)
        out = tmp_path / "recon.ppm"
        args = ["image", str(img), "--k", "2", "--restarts", "2", "--c1", "0.01",
                "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_default_floor_flags_planted_pixels(self, tmp_path):
        # two noisy colour bands on [0, 1] channels with planted (1, 1, 0)
        # pixels: at the subcommand's own --c1 default they are all flagged
        rng = np.random.default_rng(4)
        side = 40
        cols = np.tile(np.arange(side), side)
        pixels = np.where((cols < side // 2)[:, None], [0.15, 0.25, 0.70],
                          [0.70, 0.20, 0.20])
        pixels = np.clip(pixels + 0.04 * rng.standard_normal(pixels.shape), 0.0, 1.0)
        planted = rng.choice(side * side, size=20, replace=False)
        pixels[planted] = [1.0, 1.0, 0.0]
        img = tmp_path / "img.ppm"
        save_ppm(PixelGrid(side, side, pixels), img)
        out = tmp_path / "recon.ppm"
        assert main(["image", str(img), "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "recon.ppm.json").read_text())
        assert sidecar["config"]["c1"] == 1e-4
        assert sidecar["total_outliers"] == len(planted)
        recon = load_image(out).pixels
        colors = np.asarray(sidecar["outlier_colors"], dtype=float)
        hits = (np.abs(recon[planted, None, :] - colors[None]) < 1 / 255).all(axis=2)
        assert hits.any(axis=1).all()

    def test_invalid_sidecar_not_written(self, tmp_path, monkeypatch):
        grid, _ = two_tone_grid(side=12, noise_fraction=0.0)
        img = tmp_path / "img.ppm"
        save_ppm(grid, img)
        monkeypatch.setattr("mixclust.imageseg.sidecar_payload",
                            lambda result, cfg: {"k": 2})
        out = tmp_path / "recon.ppm"
        code = main(["image", str(img), "--k", "2", "--restarts", "1", "--out", str(out)])
        assert code == 3
        assert not (tmp_path / "recon.ppm.json").exists()

    @pytest.mark.parametrize("flags", NON_FINITE_ALGO_FLAGS, ids=" ".join)
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, flags):
        grid, _ = two_tone_grid(side=12, noise_fraction=0.0)
        img = tmp_path / "img.ppm"
        save_ppm(grid, img)
        out = tmp_path / "recon.ppm"
        assert main(["image", str(img), "--k", "2", "--restarts", "1", *flags,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not (tmp_path / "recon.ppm.json").exists()

    def test_decode_failure_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n10 10\n255\nshort")
        code = main(["image", str(bad), "--k", "2", "--out", str(tmp_path / "r.ppm")])
        assert code == 2


    @pytest.mark.parametrize("name", sorted(malformed_images()))
    def test_malformed_header_exit_2(self, tmp_path, capsys, name):
        blob, message = malformed_images()[name]
        img = tmp_path / name
        img.write_bytes(blob)
        out = tmp_path / "r.ppm"
        assert main(["image", str(img), "--k", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err)
        assert not out.exists() and not (tmp_path / "r.ppm.json").exists()

class TestSchemas:
    def test_rejects_missing_key(self):
        with pytest.raises(SchemaError):
            validate({"n": 1}, "fit_result")

    def test_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            validate({"model": {"weights": "no", "means": [], "variances": []},
                      "solutions": []}, "influence_solution")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_number(self, value):
        # JSON has no NaN or infinity; json.dump would write a bare NaN/Infinity
        def payload(w):
            return {"model": {"weights": [0.5, w], "means": [0, 1], "variances": [1, 2]},
                    "solutions": []}

        validate(payload(0.5), "influence_solution")
        with pytest.raises(SchemaError, match=r"\$\.model\.weights\[1\]: expected a finite"):
            validate(payload(value), "influence_solution")


def test_log_level_env_var(toy_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("MIXCLUST_LOG", "DEBUG")
    code = main(["fit", str(toy_csv), "--k", "2", "--restarts", "1",
                 "--out", str(tmp_path / "run")])
    assert code == 0


@pytest.mark.parametrize("level", ["verbose", "10"])
def test_unknown_log_level_exits_2(tmp_path, monkeypatch, capsys, level):
    # basicConfig reads the level only when the root logger has no handler,
    # as in a fresh program; the test's own capture handlers are set aside.
    monkeypatch.setenv("MIXCLUST_LOG", level)
    monkeypatch.setattr(logging.root, "handlers", [])
    out = tmp_path / "o"
    assert main(["influence", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: Unknown level: {level.upper()!r}\n"
    assert not out.exists()
