"""Pinned bytes of ``drsplit solve``: stdout and trace CSV of every variant.

Each case solves the first EXP2 instance of master seed 0, saved to JSON and
loaded back by the CLI, to ``--tol 1e-9`` with a trace CSV, and pins the
sha256 of the printed summary and of the CSV.  Every variant is solved twice
in one process, so the second call runs on the parser and the filter
operator that the first call left cached; both must give the pinned bytes.

The hashes were taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on
OpenBLAS 0.3.31 (x86-64), identical at 1 and 2 BLAS threads.  Another numpy,
scipy or BLAS build may round differently and change them without any change
to drsplit.
"""

import hashlib

import pytest

from drsplit import solver
from drsplit.cli import main

PINS = {
    "dr-main-fg": ("909f779eebaf070240fdfb2ffbb750cef5e17162f36e2831492c83b04b41ae47", "18e75fc0fa2f20cfa792de217bc038409b0cf5e7b0ffe1dbc6cdb650cf4b31c2"),
    "dr-main-gf": ("e149af85d07141afe14423d555df84608d16dab421aeb7b0f6c08014c91d9f2a", "5ab4d951314dfd8b2f8ffe4bb7e5c1df179ba6e3aaf78bdcd354ffcccb873748"),
    "dr-shift-fg": ("85fab0fb631dbe5324aa890e5a84677e6086f71d92be050dbb2337790c822806", "2df400defd1b9e13360c00714387328818cd89319f4c3119876f7ac607eace19"),
    "dr-shift-gf": ("7df0f9fd02d0f4dae6c547c857b9b309db0fdc8ed2621977bad0abe1d13ac925", "99bb4a299b61e916feedb5a21e94c1b6895d3263fcb48b509e6468a28a4be73c"),
    "ista": ("74bf79fae68e9b7ec76f167eb544a7addb549315afbc03d6154896cf8d0499be", "7d94fabb5e1b09df8c671d4c7eb355f327d03cb6e2a1f4ea9c3c4513999cbd37"),
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
