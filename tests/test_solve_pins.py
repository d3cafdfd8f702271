"""Pinned bytes of ``drsplit solve``: stdout and trace CSV of every variant.

Each case solves the first EXP2 instance of master seed 0, saved to JSON and
loaded back by the CLI, to ``--tol 1e-9`` with a trace CSV, and pins the
sha256 of the printed summary and of the CSV.  Every variant is solved twice
in one process, so the second call runs on the parser and the filter
operator that the first call left cached; both must give the pinned bytes.
The shifted variants are also pinned at ``--alpha`` 0.99 x their step bound,
the step the study runs them at.

The hashes were taken with Python 3.11.7 and numpy 2.4.6 on OpenBLAS 0.3.31
(x86-64), identical at 1 and 2 BLAS threads.  Another numpy or BLAS build may
round differently and change them without any change to drsplit;
``test_study_pins.py`` checks the study's results on any build.
"""

import hashlib

import pytest

from drsplit import solver
from drsplit.cli import main

PINS = {
    "dr-main-fg": ("db8ce24becba13218f5b2a7a96b94923f3dfa774406f58251b5f857a34c0ded1", "43f4f5dfd3dbf065856e9c4de71c563ed1aca48283102cffb9134b8f57d9828b"),
    "dr-main-gf": ("23cbb6f18637c2460484281ae2cd569ccf23c1d9b24ea37d20cfdcbd42ed8a98", "c410fcfce3fa0e446559222a69fbdb17076f2bb526709bdf8b6f384afe6a7c83"),
    "dr-shift-fg": ("4cfa48a5094e0067da7ed52e945e059fd89b7f96631405930011ee12ed951260", "91401dfb00dec4047b6410403d85b43489bf2b050cd19904e63a4bc0f7bb41ec"),
    "dr-shift-gf": ("2f1cb507a6c6b4a5fb66c43d929dccec2f0dc8fee6c67fc4f13f34769237d842", "030202c852269840c54680d0dbcbc7997a8cae39623df58da8b8fa4cf698d0a1"),
    "ista": ("74bf79fae68e9b7ec76f167eb544a7addb549315afbc03d6154896cf8d0499be", "7d94fabb5e1b09df8c671d4c7eb355f327d03cb6e2a1f4ea9c3c4513999cbd37"),
}

# Solves at --alpha repr(default_alpha(problem, variant, 0.99)).
PINS_AT_FRACTION = {
    "dr-shift-fg": ("e1e290c5d7d420cb2c6db8eda62e0211686d1fede08fdd749a1070061846d878", "f6525104e2df8ea30712f3de612e026e5cccd93c623d01bb4da77b0b78ea1125"),
    "dr-shift-gf": ("2e27116ea642b27e6b98c139359118c40987b074c54127e2ebc5875383a03a20", "002ce6c521966059d5bab67afba0cdf7b2a5d71f84c5df4b6e4688c349ff4d9c"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def instance_path(exp2_instance, tmp_path_factory):
    path = tmp_path_factory.mktemp("solve_pins") / "instance.json"
    exp2_instance.save(path)
    return path


def test_every_variant_is_pinned():
    assert tuple(PINS) == solver.VARIANTS


@pytest.mark.parametrize("variant", solver.VARIANTS)
def test_solve_bytes(variant, instance_path, tmp_path, capsys):
    for call in range(2):
        csv = tmp_path / f"trace_{call}.csv"
        argv = ["solve", "--instance", str(instance_path), "--variant", variant, "--tol", "1e-9", "--trace", str(csv)]
        assert main(argv) == 0
        assert (sha256(capsys.readouterr().out.encode()), sha256(csv.read_bytes())) == PINS[variant], call


@pytest.mark.parametrize("variant", PINS_AT_FRACTION)
def test_solve_bytes_at_099_of_the_bound(variant, exp2_problem, instance_path, tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    alpha = repr(solver.default_alpha(exp2_problem, variant, 0.99))
    argv = ["solve", "--instance", str(instance_path), "--variant", variant, "--tol", "1e-9", "--trace", str(csv)]
    assert main([*argv, "--alpha", alpha]) == 0
    assert (sha256(capsys.readouterr().out.encode()), sha256(csv.read_bytes())) == PINS_AT_FRACTION[variant]
