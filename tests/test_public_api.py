"""The public surface: every export resolves, and the variant order is fixed."""

import drsplit
from drsplit import solver


def test_every_export_resolves_once():
    assert len(drsplit.__all__) == len(set(drsplit.__all__))
    for name in drsplit.__all__:
        assert getattr(drsplit, name) is not None, name


def test_variant_order():
    assert solver.VARIANTS == ("dr-main-fg", "dr-main-gf", "dr-shift-fg", "dr-shift-gf", "ista")
    assert drsplit.VARIANTS is solver.VARIANTS
