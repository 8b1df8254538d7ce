"""Start-up cost and dependencies: ``import mixclust`` loads no numpy, the
``mixclust`` program runs one OpenBLAS thread unless its caller chose a
count, each subcommand loads only the mixclust modules it runs, and no
path needs scipy: the influence functional computes its
integrals in closed form with numpy and ``math``, and ``uniform_chisq``
contamination its chi-square cutoff. Each check runs in a fresh
interpreter, because this test process has long since imported numpy and
scipy itself."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixclust
from oracles import openblas_thread_counts

ROOT = Path(__file__).resolve().parents[1]

INFLUENCE_NAMES = ("FunctionalSolution", "TrueDistribution", "assemble_if_system",
                   "if_curve", "solve_functional")


def run_python(code: str, **env_changes) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter; an ``env_changes`` value of None
    removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# Installs an import finder that refuses every scipy module, as if scipy
# were not installed, and checks that it does.
BLOCK_SCIPY = (
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError(f'scipy is blocked: {name}')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
    "try:\n"
    "    import scipy.special\n"
    "except ImportError:\n"
    "    pass\n"
    "else:\n"
    "    raise SystemExit('the blocker let scipy load')\n")

# Prints the thread count of every OpenBLAS mapped into the process.
PRINT_BLAS_THREADS = (inspect.getsource(openblas_thread_counts)
                      + "print(openblas_thread_counts())\n")


def blas_threads(proc: subprocess.CompletedProcess) -> list[int]:
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    if not counts:
        pytest.skip("numpy is not linked against OpenBLAS")
    return counts


def run_program(module: str, **env_changes) -> subprocess.CompletedProcess:
    """Run ``module`` as ``__main__`` with ``influence --help``, then print
    the BLAS thread counts."""
    return run_python(
        "import runpy, sys\n"
        "sys.argv = ['mixclust', 'influence', '--help']\n"
        "try:\n"
        f"    runpy.run_module({module!r}, run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + PRINT_BLAS_THREADS, **env_changes)


def test_import_loads_no_numpy():
    proc = run_python("import sys, mixclust\n"
                      "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
                      "assert mixclust.fit.__module__ == 'mixclust.clustering'\n"
                      "assert mixclust.influence.__name__ == 'mixclust.influence'\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["mixclust.cli", "mixclust"])
def test_program_runs_one_blas_thread(module):
    counts = blas_threads(run_program(module, OPENBLAS_NUM_THREADS=None))
    assert counts == [1] * len(counts)


def test_program_keeps_caller_thread_count():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU this process may use")
    counts = blas_threads(run_program("mixclust.cli", OPENBLAS_NUM_THREADS="2"))
    assert counts == [2] * len(counts)


def test_library_import_changes_no_blas_setting():
    # numpy's own default count, whatever it is on this machine
    plain = blas_threads(run_python("import numpy\n" + PRINT_BLAS_THREADS,
                                    OPENBLAS_NUM_THREADS=None))
    proc = run_python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import mixclust, mixclust.cli\n"
        "mixclust.fit\n"
        "assert dict(os.environ) == before, 'environment changed'\n"
        + PRINT_BLAS_THREADS, OPENBLAS_NUM_THREADS=None)
    assert blas_threads(proc) == plain


def test_import_loads_no_scipy():
    proc = run_python(f"import sys, mixclust; print({SCIPY_LOADED})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["fit", "image", "simulate", "influence"])
def test_cli_help_loads_no_scipy(command):
    proc = run_python(
        "import sys\n"
        "import mixclust.cli\n"
        "try:\n"
        f"    mixclust.cli.main([{command!r}, '--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print({SCIPY_LOADED}, file=sys.stderr)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_influence_loads_no_scipy():
    proc = run_python(
        "import sys\n"
        "import numpy as np\n"
        "import mixclust.influence as inf\n"
        f"assert {SCIPY_LOADED} == []\n"
        "dist = inf.TrueDistribution(weights=(0.5, 0.5), means=(0.0, 5.0), variances=(1.0, 4.0))\n"
        "sol = inf.solve_functional(dist, 0.1, inf.ConstraintConfig(c=5.0, c1=0.1))\n"
        "curve = inf.if_curve(sol, dist, np.linspace(-10.0, 10.0, 21))\n"
        "assert np.isfinite(curve).all()\n"
        f"print({SCIPY_LOADED})\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_uniform_chisq_simulate_without_scipy(tmp_path):
    # The same run with scipy refused and with scipy available: exit 0 and
    # the same bytes, so the chi-square cutoff needs no scipy.
    spec = tmp_path / "chisq.json"
    spec.write_text(json.dumps({"p": 3, "contamination": "uniform_chisq", "n": 300,
                                "replications": 2, "restarts": 2}), encoding="utf-8")
    runs = []
    for blocker in (BLOCK_SCIPY, ""):
        out = tmp_path / f"out{len(runs)}"
        argv = ["simulate", str(spec), "--out", str(out)]
        proc = run_python("import sys\n" + blocker + "import mixclust.cli\n"
                          f"sys.exit(mixclust.cli.main({argv!r}))\n")
        assert proc.returncode == 0, proc.stderr
        runs.append([proc.stdout] + [(out / name).read_bytes()
                                     for name in ("replications.csv", "report.json")])
    assert runs[0] == runs[1]


# Modules a subcommand runs, and modules only the others run.
SUBCOMMAND_MODULES = {
    "fit": ({"clustering", "schemas"}, {"imageseg", "influence", "simulation"}),
    "simulate": ({"clustering", "simulation", "schemas"}, {"imageseg", "influence"}),
    "influence": ({"influence", "schemas"}, {"clustering", "imageseg", "simulation",
                                             "workers"}),
    "image": ({"clustering", "imageseg", "schemas"}, {"influence", "simulation"}),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_imports_only_what_it_runs(tmp_path, command):
    rng = np.random.default_rng(0)
    if command == "fit":
        np.savetxt(tmp_path / "in.csv", np.vstack([rng.normal(0, 1, (30, 2)),
                                                   rng.normal(6, 1, (30, 2))]), delimiter=",")
        argv = ["fit", "in.csv", "--k", "2", "--restarts", "2"]
    elif command == "simulate":
        (tmp_path / "in.json").write_text(json.dumps(
            {"p": 2, "n": 60, "replications": 1, "restarts": 1}), encoding="utf-8")
        argv = ["simulate", "in.json"]
    elif command == "influence":
        argv = ["influence", "--beta", "0.5", "--grid-points", "3"]
    else:
        px = np.where(np.arange(64)[:, None] % 8 < 4, 40, 200) + rng.integers(0, 9, (64, 3))
        (tmp_path / "in.ppm").write_bytes(b"P6\n8 8\n255\n" + px.astype(np.uint8).tobytes())
        argv = ["image", "in.ppm", "--k", "2", "--restarts", "2"]
    proc = run_python(
        "import json, os, sys\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "import mixclust.cli\n"
        f"assert mixclust.cli.main({argv + ['--out', 'out']!r}) == 0\n"
        "print(json.dumps([m.split('.')[1] for m in sys.modules if m.startswith('mixclust.')]))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    runs, others = SUBCOMMAND_MODULES[command]
    assert runs <= loaded and not others & loaded


def test_lazy_influence_names():
    from mixclust import TrueDistribution, solve_functional
    from mixclust import influence

    assert solve_functional is influence.solve_functional
    assert TrueDistribution is influence.TrueDistribution
    listed = dir(mixclust)
    assert all(name in listed for name in INFLUENCE_NAMES)
    assert all(getattr(mixclust, name) is getattr(influence, name) for name in INFLUENCE_NAMES)


def test_every_public_name_served():
    import importlib

    for name in mixclust.__all__:
        module = importlib.import_module(getattr(mixclust, name).__module__)
        assert getattr(module, name) is getattr(mixclust, name)
    namespace = {}
    exec("from mixclust import *", namespace)
    assert set(mixclust.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixclust.no_such_name
