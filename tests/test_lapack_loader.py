"""drsplit loads scipy's LAPACK extension alone and never imports scipy.linalg.

Nor does it load ``drsplit.analysis`` until a rate calculator or the
``rates`` or ``certify`` command asks for it.  The import checks run in
fresh interpreters, since this test session has imported both already.  They depend on scipy's file layout, not on
the numpy/scipy/BLAS build, so they also run at the minimum versions.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drsplit import EXP2, build_instance, smooth

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs cli.main on argv[2:] and reports its exit code and whether
# scipy.linalg and drsplit.analysis were imported, as the last line of stderr.
MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from drsplit import cli
code = cli.main(sys.argv[2:])
print(code, "scipy.linalg" in sys.modules, "drsplit.analysis" in sys.modules, file=sys.stderr)
"""

# Builds an EXP1 and an EXP2 instance and their problems after a plain
# import, then resolves one analysis name through the package.
LAZY = """
import sys
sys.path.insert(0, sys.argv[1])
import drsplit
for spec in (drsplit.EXP1, drsplit.EXP2):
    drsplit.build_instance(spec, seed=0).problem()
assert "drsplit.analysis" not in sys.modules
assert drsplit.empirical_lipschitz is sys.modules["drsplit.analysis"].empirical_lipschitz
"""

# Imports scipy.linalg before or after drsplit (argv[2]) and checks that both
# hold the same LAPACK routines and factor alike.
BOTH = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "before":
    import scipy.linalg
from drsplit import smooth
import numpy as np
import scipy.linalg
import scipy.linalg.lapack

assert smooth.dpotrs is scipy.linalg.lapack.dpotrs
assert smooth.dpotrf is scipy.linalg.lapack.dpotrf
a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
c, lower = smooth.cho_factor(a)
expected, expected_lower = scipy.linalg.cho_factor(a)
assert lower == expected_lower
assert np.array_equal(c, expected)
b = np.array([1.0, -2.0, 0.5])
assert np.array_equal(scipy.linalg.cho_solve((c, lower), b), smooth.dpotrs(c, b, lower=lower)[0])
assert np.allclose(scipy.linalg.solve(a, b), smooth.dpotrs(c, b, lower=lower)[0])
"""


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, "-c", code, SRC, *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("instance") / "instance.json"
    build_instance(EXP2, seed=4).save(path)
    return path


@pytest.mark.parametrize("command", ["solve", "certify", "exp2"])
def test_cli_never_imports_scipy_linalg(command, instance_path, tmp_path):
    argv = {
        "solve": ["solve", "--instance", str(instance_path), "--variant", "dr-main-fg",
                  "--tol", "1e-9", "--trace", str(tmp_path / "trace.csv")],
        "certify": ["certify", "--pairs", "10"],
        "exp2": ["exp2", "--seeds", "1", "--iters", "50", "--out-dir", str(tmp_path / "exp2")],
    }[command]
    report = run_fresh(MAIN, *argv).stderr.splitlines()[-1]
    assert report == f"0 False {command == 'certify'}"


def test_import_and_stock_builds_leave_analysis_unloaded():
    run_fresh(LAZY)


@pytest.mark.parametrize("order", ["before", "after"])
def test_same_routines_whether_scipy_linalg_comes_before_or_after(order):
    run_fresh(BOTH, order)


class TestChoFactor:
    def test_nan_entry(self):
        a = np.eye(3)
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            smooth.cho_factor(a)

    def test_not_positive_definite_names_the_minor(self):
        with pytest.raises(np.linalg.LinAlgError, match="leading minor of order 2 is not positive definite"):
            smooth.cho_factor(np.diag([1.0, -1.0, 1.0]))

    def test_leaves_its_input_alone(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        kept = a.copy()
        c, lower = smooth.cho_factor(a)
        assert lower is False
        np.testing.assert_array_equal(a, kept)
        np.testing.assert_allclose(np.triu(c).T @ np.triu(c), a, rtol=1e-12)


def test_missing_extension_names_its_path(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(smooth.importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"_flapack\.missing\.so"):
        smooth._load_flapack()
