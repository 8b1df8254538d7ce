"""Start-up cost: only ``influence`` (and ``uniform_chisq`` contamination)
load scipy. Each check runs in a fresh interpreter, because this test
process has long since imported scipy itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixclust

ROOT = Path(__file__).resolve().parents[1]

INFLUENCE_NAMES = ("FunctionalSolution", "TrueDistribution", "assemble_if_system",
                   "if_curve", "influence_at", "numeric_if_oracle", "solve_functional")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


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


def test_uniform_chisq_without_prior_scipy():
    # The chi-square cutoff is imported inside the sampler; for p = 2 the
    # 97.5th percentile is -2 log(0.025), checked here without scipy.
    proc = run_python(
        "import math, sys\n"
        "import numpy as np\n"
        "from mixclust import generate, paper_design\n"
        f"assert {SCIPY_LOADED} == []\n"
        "spec = paper_design(p=2, contamination='uniform_chisq', n=2000, seed=3)\n"
        "sample = generate(spec, np.random.default_rng(3))\n"
        "out = sample.data[sample.true_outlier_flags]\n"
        "assert len(out) == spec.n_outliers\n"
        "d2 = ((out[:, None, :] - spec.means[None]) ** 2).sum(axis=2)\n"
        "assert np.all(d2.min(axis=1) / spec.cov_scale > -2.0 * math.log(0.025))\n")
    assert proc.returncode == 0, proc.stderr


def test_lazy_influence_names():
    from mixclust import TrueDistribution, solve_functional
    from mixclust import influence

    assert solve_functional is influence.solve_functional
    assert TrueDistribution is influence.TrueDistribution
    listed = dir(mixclust)
    assert all(name in listed for name in INFLUENCE_NAMES)
    assert all(getattr(mixclust, name) is getattr(influence, name) for name in INFLUENCE_NAMES)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixclust.no_such_name
