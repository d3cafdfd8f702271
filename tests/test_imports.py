"""What a drsplit process imports: no scipy module, ``drsplit.analysis``
only once a rate calculator or the ``rates`` or ``certify`` command asks for
it, and no json, logging or statistics to import drsplit and build the stock
instances.

The checks run in fresh interpreters, since this test session may have
imported both already.  They depend on no numpy or BLAS build, so they also
run at the minimum versions, where scipy is not installed at all.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from drsplit import EXP2, build_instance

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs cli.main on argv[2:] and reports its exit code, the scipy modules
# loaded and whether drsplit.analysis was imported, as the last line of stderr.
MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from drsplit import cli
code = cli.main(sys.argv[2:])
scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(code, scipy, "drsplit.analysis" in sys.modules, file=sys.stderr)
"""

# Builds an EXP1 and an EXP2 instance and their problems after a plain
# import, looks up a name the package lacks, then resolves one analysis name
# through the package.
LAZY = """
import sys
sys.path.insert(0, sys.argv[1])
import drsplit
for spec in (drsplit.EXP1, drsplit.EXP2):
    drsplit.build_instance(spec, seed=0).problem()
try:
    drsplit.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'drsplit' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("drsplit.no_such_name resolved")
assert "drsplit.analysis" not in sys.modules
assert drsplit.empirical_lipschitz is sys.modules["drsplit.analysis"].empirical_lipschitz
"""


# Imports numpy, then drsplit, builds an EXP1 and an EXP2 instance and their
# problems, and prints which of json, logging and statistics that added.
QUIET = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import drsplit
for spec in (drsplit.EXP1, drsplit.EXP2):
    drsplit.build_instance(spec, seed=0).problem()
print(sorted(m for m in ("json", "logging", "statistics") if m in set(sys.modules) - before))
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
def test_cli_loads_no_scipy(command, instance_path, tmp_path):
    argv = {
        "solve": ["solve", "--instance", str(instance_path), "--variant", "dr-main-fg",
                  "--tol", "1e-9", "--trace", str(tmp_path / "trace.csv")],
        "certify": ["certify", "--pairs", "10"],
        "exp2": ["exp2", "--seeds", "1", "--iters", "50", "--out-dir", str(tmp_path / "exp2")],
    }[command]
    report = run_fresh(MAIN, *argv).stderr.splitlines()[-1]
    assert report == f"0 [] {command == 'certify'}"


def test_import_and_stock_builds_leave_analysis_unloaded():
    run_fresh(LAZY)


def test_import_and_stock_builds_load_no_json_logging_or_statistics():
    assert run_fresh(QUIET).stdout == "[]\n"
