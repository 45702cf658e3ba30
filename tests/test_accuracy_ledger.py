"""tools/accuracy_ledger.py: its table, and the bound it reports for `dist_ball`."""

import pytest

from conftest import accuracy_ledger


def test_ledger_prints_one_row_per_pair_class_and_the_siegel_metric():
    lines = accuracy_ledger.ledger(3, 0).splitlines()
    assert lines[:2] == ["| Pairs (3 per class and dim) | dim 1 | dim 2 | dim 3 |", "|---|---|---|---|"]
    rows = [line.strip("|").split(" | ") for line in lines[2:]]
    assert [r[0].strip() for r in rows] == (
        [f"`dist_ball`, {kind}" for kind in accuracy_ledger.BALL_PAIR_CLASSES]
        + ["`dist_siegel`, t from 1e-300 to 1e300"])
    assert all(0.0 <= float(e) <= 1e-15 for r in rows for e in r[1:])


@pytest.mark.parametrize("dim", accuracy_ledger.DIMS)
@pytest.mark.parametrize("kind", list(accuracy_ledger.BALL_PAIR_CLASSES), ids=lambda k: k.replace(" ", "_"))
def test_dist_ball_within_1e_15_of_mpmath_on_each_pair_class(kind, dim):
    # 200 pairs per dimension, 600 per class
    assert accuracy_ledger.worst_dist_ball(kind, dim, 200, seed=1) <= 1e-15
