"""Byte-for-byte comparison of named CLI reports with stored golden copies.

The files in tests/golden/ were written by the CLI before the per-point code
moved from numpy arrays to plain Python tuples.  A change to any rounding in
the geometry, map or orbit code shows up here as a changed byte; such a change
must update the files deliberately and explain which digits moved and why.
"""

from pathlib import Path

import pytest

from siegel_dynamics.cli import FIXTURES, main

GOLDEN = Path(__file__).parent / "golden"


def run_stdout(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def test_golden_verify_seed_7(capsys):
    assert run_stdout(["verify", "--seed", "7"], capsys) == golden("verify_seed7.json")


def test_golden_classify_quadpol(capsys):
    assert run_stdout(["classify", "--map", "quadpol"], capsys) == golden("classify_quadpol.json")


def test_golden_classify_boundary_curve(capsys):
    # the parameters given as flags, whose B and C the report echoes as the strings typed
    out = run_stdout(["classify", "--A", "2", "--B", "1", "--C", "1"], capsys)
    assert out == golden("classify_boundary_curve.json")


@pytest.mark.parametrize("name", FIXTURES)
def test_golden_conjugate(name, capsys):
    assert run_stdout(["conjugate", "--map", name], capsys) == golden(f"conjugate_{name}.txt")


def test_golden_conjugate_elliptic_from_5(capsys):
    # from (5, 0) the orbit tends to infinity: the run conjugates in the Inversion chart,
    # where every row division of the psi sweep has a divisor with |Re b| >= |Im b|
    out = run_stdout(["conjugate", "--map", "elliptic", "--start", "5,0"], capsys)
    assert out == golden("conjugate_elliptic_start5.txt")


def test_golden_conjugate_expandable(capsys):
    # (z, w) -> (2z, sqrt(2) w): the expandable variant with L = 1, where p_L
    # keeps w and every grid point is a distinct input of psi_n
    argv = ["conjugate", "--A", "2", "--B", "0", "--C", "1.4142135623730951"]
    assert run_stdout(argv, capsys) == golden("conjugate_expandable.txt")


@pytest.mark.parametrize("name", ["quadpol", "elliptic"])
def test_golden_backward_orbit(name, tmp_path, capsys):
    out = run_stdout(["orbit", "--backward", "--map", name, "--start", "1,0", "--n", "40",
                      "--out", str(tmp_path)], capsys)
    assert out == golden(f"orbit_backward_{name}.txt")
    assert (tmp_path / "orbit.json").read_bytes() == (GOLDEN / f"orbit_backward_{name}.json").read_bytes()
    assert (tmp_path / "orbit.csv").read_bytes() == (GOLDEN / f"orbit_backward_{name}.csv").read_bytes()


def test_golden_backward_orbit_off_the_axis(tmp_path, capsys):
    # the first golden whose limit the limit rule decides: the last point's boundary
    # projection, (0.48999999999999994, 0.7) = (0.7 * 0.7, 0.7)
    out = run_stdout(["orbit", "--backward", "--map", "lifted2z", "--start", "1.2,0,0.7,0", "--format", "both",
                      "--out", str(tmp_path)], capsys)
    assert out == golden("orbit_backward_lifted2z_offaxis.txt")
    for suffix in ("json", "csv"):
        want = (GOLDEN / f"orbit_backward_lifted2z_offaxis.{suffix}").read_bytes()
        assert (tmp_path / f"orbit.{suffix}").read_bytes() == want


def test_golden_forward_orbit_to_a_boundary_point(tmp_path, capsys):
    # (z, w) -> (z/2 + w^2/4, w/2) from (1, 0) halves z down the axis; its Denjoy-Wolff
    # estimate is the boundary projection of the point where the orbit stops, (0, 0)
    out = run_stdout(["orbit", "--forward", "--A", "0.5", "--B", "0.25", "--C", "0.5", "--start", "1,0",
                      "--format", "both", "--out", str(tmp_path)], capsys)
    assert out == golden("orbit_forward_dw0.txt")
    for suffix in ("json", "csv"):
        assert (tmp_path / f"orbit.{suffix}").read_bytes() == (GOLDEN / f"orbit_forward_dw0.{suffix}").read_bytes()
