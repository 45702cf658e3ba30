import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import siegel_dynamics
from siegel_dynamics import cli
from siegel_dynamics.cli import fixture_path, main

# keep the verify runs fast; determinism is what matters here
FAST_VERIFY = ["--samples", "50"]


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_fixture_quadpol(capsys):
    code, out, _ = run(["classify", "--map", "quadpol"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["is_self_map"] is True
    assert rep["type"] == "hyperbolic"
    assert rep["denjoy_wolff"]["at_infinity"] is True
    assert rep["brfp_multiplier"] == 2.0
    assert rep["multiplier_at_dw"] == 0.5


def test_classify_flags_and_boundary_curve(capsys):
    code, out, _ = run(["classify", "--A", "2", "--B", "1", "--C", "1"], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["fixed_point_set"]["kind"] == "boundary_curve"


def test_classify_not_self_map_exit_2(capsys):
    code, out, _ = run(["classify", "--A", "1", "--B", "1", "--C", "1"], capsys)
    assert code == 2
    assert json.loads(out)["report"]["is_self_map"] is False


@pytest.mark.parametrize("argv", [
    ["classify", "--A", "nan", "--B", "0", "--C", "1"],
    ["classify", "--A", "2", "--B", "1e999", "--C", "1"],  # parses to inf
    ["orbit", "--backward", "--A", "2", "--B", "0", "--C", "nan", "--start", "1,0"],
    ["conjugate", "--A", "inf", "--B", "0", "--C", "1"],
], ids=["classify_A", "classify_B", "orbit_C", "conjugate_A"])
def test_non_finite_quadratic_parameters_are_one_error_line(argv, tmp_path, capsys):
    # one error line, never a report holding "A":NaN (which is not JSON)
    code, out, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: quadratic family needs") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag, text, overflow", [
    ("--B", "inf", "1e999"), ("--C", "-inf", "-1e999"), ("--B", "-infi", "-1e999i")])
def test_infinite_quadratic_parameters_fail_as_overflowing_ones_do(flag, text, overflow, capsys):
    # an "inf" once read as "jnf" and failed to parse instead
    base = ["classify", "--A", "2", "--B", "1", "--C", "1"]
    got, want = (run([*base, f"{flag}={v}"], capsys) for v in (text, overflow))
    assert got == want
    assert (got[0], got[1]) == (1, "") and got[2].startswith("error: quadratic family needs finite B and C")


@pytest.mark.parametrize("flag, value", [("--B", "-0.5i"), ("--B", "-1e-3"), ("--C", "-inf"), ("--A", "-1")])
def test_a_value_that_starts_with_a_minus_reads_as_its_equals_form(flag, value, capsys):
    # argparse alone takes -0.5i, -1e-3 or -inf for an option and exits 2 ("expected one argument")
    base = ["classify", "--A", "2"] if flag != "--A" else ["classify"]
    got, want = (run([*base, *arg], capsys) for arg in ([flag, value], [f"{flag}={value}"]))
    assert got[:2] == want[:2]
    assert got[0] in (0, 1) and got[2] == want[2]


@pytest.mark.parametrize("text, value", [
    ("1+2i", 1 + 2j), ("2i", 2j), ("-0.5i", complex(0.0, -0.5)), (" 1 - 2i ", 1 - 2j), ("1+2j", 1 + 2j), ("i", 1j),
    ("0.3", 0.3 + 0j), ("inf", complex(math.inf, 0.0))])
def test_parse_complex_reads_a_final_i_as_the_imaginary_unit(text, value):
    got = cli._parse_complex(text)
    assert (got.real.hex(), got.imag.hex()) == (value.real.hex(), value.imag.hex())


def test_classify_bad_descriptor_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "no_such_map"}')
    code, _, err = run(["classify", "--map", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_classify_rejects_non_quadratic(capsys):
    code, _, err = run(["classify", "--map", "elliptic"], capsys)
    assert code == 1
    assert "quadratic" in err


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_backward_writes_files(tmp_path, capsys):
    code, out, _ = run(["orbit", "--map", "quadpol", "--backward",
                        "--start", "1,0", "--n", "30",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "alpha ~ 2" in out
    data = json.loads((tmp_path / "orbit.json").read_text())
    assert len(data["orbit"]["points"]) == 31
    csv_lines = (tmp_path / "orbit.csv").read_text().splitlines()
    assert csv_lines[0] == "n,re_z,im_z,re_w1,im_w1,t,d"
    assert len(csv_lines) == 32


def test_orbit_backward_lifted_limit(tmp_path, capsys):
    code, out, _ = run(["orbit", "--map", "lifted2z", "--backward",
                        "--start", "2,0,1,0", "--n", "25", "--format", "json",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "q = (1+0j, 1+0j)" in out
    assert not (tmp_path / "orbit.csv").exists()


def test_orbit_forward_to_infinity(tmp_path, capsys):
    code, out, _ = run(["orbit", "--map", "quadpol", "--forward",
                        "--start", "1,0", "--n", "40", "--format", "csv",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "DW = infinity" in out
    assert (tmp_path / "orbit.csv").exists()
    assert not (tmp_path / "orbit.json").exists()


@pytest.mark.parametrize("start", ["10,0", "1e10,0", "1e150,0", "1e300,0"])
def test_orbit_forward_from_far_out_reports_infinity(start, tmp_path, capsys):
    # near infinity the ball gap is small too: the orbit must not be taken for
    # one that reaches a finite boundary point
    code, out, _ = run(["orbit", "--map", "quadpol", "--forward", "--start", start,
                        "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "DW = infinity" in out
    orbit = json.loads((tmp_path / "orbit.json").read_text())["orbit"]
    assert orbit["dw_estimate"] == {"at_infinity": True} and orbit["converged"]


@pytest.mark.parametrize("argv, summary, dw, interior, converged", [
    (["--map", "quadpol", "--start", "1,0", "--n", "1"],
     "DW = undetermined", None, None, False),
    # Siegel (1, 0) is the ball's origin, the elliptic fixture's interior fixed point
    (["--map", "elliptic", "--start", "1,0", "--n", "1"],
     "DW = interior fixed point", None, {"re": [1.0, 0.0], "im": [0.0, 0.0]}, True),
])
def test_orbit_forward_without_a_boundary_limit(argv, summary, dw, interior, converged, tmp_path, capsys):
    code, out, err = run(["orbit", "--forward", *argv, "--format", "json", "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (0, f"forward orbit: 2 points, {summary}\n", "")
    orbit = json.loads((tmp_path / "orbit.json").read_text())["orbit"]
    assert (orbit["dw_estimate"], orbit["interior_limit"], orbit["converged"]) == (dw, interior, converged)


def test_orbit_forward_to_a_finite_boundary_point(tmp_path, capsys):
    # the quadratic map whose orbits tend to 0, conjugated by a Heisenberg translation
    # that moves 0 to (0.25 + 2i, 0.5)
    desc = tmp_path / "conjugated_quadratic.json"
    desc.write_text('{"family": "conjugated", "base": {"family": "quadratic", "A": 0.5, '
                    '"B": {"re": 0.25, "im": 0.0}, "C": {"re": 0.5, "im": 0.0}}, '
                    '"by": {"chain": [{"kind": "translation", "y": -2.0, "w0": {"re": [-0.5], "im": [0.0]}}]}}')
    code, out, err = run(["orbit", "--forward", "--map", str(desc), "--start", "1,0,0.5,0",
                          "--format", "json", "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (0, "forward orbit: 30 points, DW = (0.25+2j, 0.5+0j)\n", "")
    orbit = json.loads((tmp_path / "orbit.json").read_text())["orbit"]
    assert orbit["dw_estimate"] == {"re": [0.25, 0.5], "im": [1.9999999962747097, 0.0]}
    assert orbit["interior_limit"] is None and orbit["converged"] is True


def test_orbit_refuses_a_lift_that_is_not_a_self_map(tmp_path, capsys):
    desc = tmp_path / "lifted_contracting.json"
    desc.write_text('{"family": "lifted", "phi": {"kind": "halfplane_affine", "c": 0.5, "b": 1.0}}')
    code, out, err = run(["orbit", "--forward", "--map", str(desc), "--start", "1,0,0.5,0",
                          "--out", str(tmp_path / "out")], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: {desc}: malformed map descriptor (InvalidDescriptor: "
                   "lift needs Denjoy-Wolff point at infinity (c >= 1))\n")
    assert not (tmp_path / "out").exists()


def test_orbit_backward_to_infinity(tmp_path, capsys):
    # A < 1: the preimages (z/A, w/C) run off to infinity
    code, out, err = run(["orbit", "--backward", "--A", "0.5", "--B", "0.25", "--C", "0.5",
                          "--start", "1,0", "--format", "json", "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert out == "backward orbit: 41 points, q = infinity, alpha ~ 2, Koranyi M = 1\n"
    orbit = json.loads((tmp_path / "orbit.json").read_text())["orbit"]
    assert orbit["limit"] == {"at_infinity": True} and orbit["multiplier_estimate"] == "2"


@pytest.mark.parametrize("n", ["-1", "1"])
def test_orbit_backward_needs_two_steps(n, tmp_path, capsys):
    code, out, err = run(["orbit", "--backward", "--map", "quadpol", "--start", "1,0", "--n", n,
                          "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: a backward orbit needs n >= 2 steps, got n = {n}\n"
    assert not (tmp_path / "orbit.json").exists()


@pytest.mark.parametrize("n", ["-1", "0"])
def test_orbit_forward_needs_one_step(n, tmp_path, capsys):
    code, out, err = run(["orbit", "--forward", "--map", "quadpol", "--start", "1,0", "--n", n,
                          "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: a forward orbit needs n >= 1 steps, got n = {n}\n"
    assert list(tmp_path.iterdir()) == []


def test_orbit_backward_start_of_another_dimension_exit_1(tmp_path, capsys):
    code, out, err = run(["orbit", "--backward", "--map", "quadpol", "--start", "1,0,0,0,0,0",
                          "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: backward orbit of a map of dim 2 from a point of dim 3\n"


def test_orbit_invalid_start_exit_1(tmp_path, capsys):
    code, _, err = run(["orbit", "--map", "quadpol", "--backward",
                        "--start=-1,0", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "error" in err


def report_numbers(x):
    """Every number of a JSON report, string-encoded floats included."""
    if isinstance(x, dict):
        return [v for k, y in x.items() if k != "config" for v in report_numbers(y)]
    if isinstance(x, list):
        return [v for y in x for v in report_numbers(y)]
    if isinstance(x, str):
        try:
            return [float(x)]
        except ValueError:
            return []
    return [x] if isinstance(x, float) else []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("direction, start", [("--backward", "1e-200,0"), ("--backward", "1e300,0"),
                                              ("--forward", "1e155,0")])
def test_orbit_far_from_unit_scale_exit_0_with_finite_output(direction, start, tmp_path, capsys):
    # the metric, the ball gap and the Koranyi ratio neither under- nor overflow
    code, out, err = run(["orbit", "--map", "quadpol", direction, "--start", start, "--n", "3",
                          "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    assert re.search(r"\b(inf|nan)\b", out) is None  # "DW = infinity" is the forward answer
    report = json.loads((tmp_path / "orbit.json").read_text())
    numbers = report_numbers(report)
    assert numbers and all(math.isfinite(x) for x in numbers)
    assert report["orbit"]["steps"] == ["0.33333333333333331"] * len(report["orbit"]["steps"])
    if start == "1e300,0":
        assert float(report["orbit"]["koranyi_certificate"]) == pytest.approx(1e300)


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def test_conjugate_quadpol_residual_zero(tmp_path, capsys):
    code, out, _ = run(["conjugate", "--map", "quadpol", "--n", "30",
                        "--n-conj", "10", "--tol", "1e-12",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert all(float(r) <= 1e-12 for r in rep["residuals"])
    assert rep["variant"] == "basic"


def test_conjugate_diagonal_expandable(tmp_path, capsys):
    code, _, _ = run(["conjugate", "--map", "diaglinear", "--n", "30",
                      "--tol", "1e-12", "--out", str(tmp_path)], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    # lambda = 1 < sqrt(2): no resonant block, basic variant suffices
    assert rep["variant"] == "basic"
    assert float(rep["residuals"][-1]) <= 1e-12


def test_conjugate_fails_above_tol_exit_3(tmp_path, capsys):
    code, _, _ = run(["conjugate", "--map", "quadpol", "--n", "30",
                      "--n-conj", "8", "--tol", "0",
                      "--out", str(tmp_path)], capsys)
    assert code == 3


def test_conjugate_n_conj_zero_exit_1(capsys):
    code, out, err = run(["conjugate", "--map", "quadpol", "--n-conj", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n_values" in err


def test_conjugate_short_orbit_says_how_far_it_got_and_why(capsys):
    # both preimages of (0.5, 0) under the elliptic fixture, (1/3 +- 0.471i, 0),
    # lie at step 0.522, above the default bound 0.34
    code, out, err = run(["conjugate", "--map", "elliptic", "--start", "0.5,0"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: backward orbit too short to analyze: 0 of 40 steps; no in-domain"
                   " preimage within step bound 0.34 (nearest at step 0.522)\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1, _, _ = run(["verify", "--seed", "7", *FAST_VERIFY, "--out", str(out1)], capsys)
    code2, _, _ = run(["verify", "--seed", "7", *FAST_VERIFY, "--out", str(out2)], capsys)
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2
    rep = json.loads(b1)
    assert rep["pass"] is True
    assert all(r["pass"] for r in rep["results"])


def test_verify_checks_pass_on_spread_seeds():
    # verify seeds are drawn from [0, 2^31); every check must pass on any of them
    fixture_dir = fixture_path("quadpol").parent
    failed = [(seed, name, detail) for seed in (7 + k * (2 ** 31 // 50) for k in range(50))
              for name, ok, detail in cli._verify_checks(fixture_dir, seed, 200) if not ok]
    assert failed == []


def test_verify_seed_changes_report(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(["verify", "--seed", "1", *FAST_VERIFY, "--out", str(out1)], capsys)
    run(["verify", "--seed", "2", *FAST_VERIFY, "--out", str(out2)], capsys)
    assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()


def test_verify_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIEGEL_DYNAMICS_SEED", "13")
    code, out, _ = run(["verify", *FAST_VERIFY], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 13


def test_verify_seed_precedence_flag_over_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIEGEL_DYNAMICS_SEED", "99")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 5}')
    code, out, _ = run(["verify", "--config", str(cfg), *FAST_VERIFY], capsys)
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out, _ = run(["verify", "--config", str(cfg), "--seed", "3",
                        *FAST_VERIFY], capsys)
    assert code == 0 and json.loads(out)["seed"] == 3


def test_verify_corrupted_fixture_exit_4(tmp_path, capsys):
    for name in ("quadpol", "lifted2z", "diaglinear", "elliptic"):
        (tmp_path / f"{name}.json").write_text(fixture_path(name).read_text())
    (tmp_path / "quadpol.json").write_text("{not json")
    code, _, err = run(["verify", "--fixtures", str(tmp_path), *FAST_VERIFY], capsys)
    assert code == 4
    assert "fixture error" in err


def test_verify_missing_fixture_exit_4(tmp_path, capsys):
    code, _, err = run(["verify", "--fixtures", str(tmp_path), *FAST_VERIFY], capsys)
    assert code == 4
    assert "fixture error" in err


def test_verify_reads_its_fixtures_dir_on_every_run(tmp_path, capsys):
    # the bundled maps are parsed once per process; a --fixtures directory is read each run
    assert run(["verify", *FAST_VERIFY], capsys)[0] == 0
    for name in cli.FIXTURES:
        (tmp_path / f"{name}.json").write_text(fixture_path(name).read_text())
    code, out, _ = run(["verify", "--fixtures", str(tmp_path), *FAST_VERIFY], capsys)
    assert code == 0 and json.loads(out)["results"] == json.loads(run(["verify", *FAST_VERIFY], capsys)[1])["results"]
    (tmp_path / "quadpol.json").write_text("{not json")
    code, _, err = run(["verify", "--fixtures", str(tmp_path), *FAST_VERIFY], capsys)
    assert code == 4 and "quadpol.json: malformed map descriptor" in err


CONJUGATE = ["conjugate", "--start", "5,0", "--n-conj", "12"]


def test_two_conjugate_runs_of_a_bundled_fixture_print_the_same_bytes(capsys):
    first, second = (run([*CONJUGATE, "--map", "quadpol"], capsys) for _ in range(2))
    assert first == second and first[0] == 0
    args = cli._parser().parse_args(["conjugate", "--map", "quadpol"])
    assert cli._load_map(args) is cli._load_map(args)  # parsed once, shared by the runs


def test_a_file_named_like_a_fixture_wins_over_the_parsed_fixture(tmp_path, monkeypatch, capsys):
    assert run([*CONJUGATE, "--map", "quadpol"], capsys)[0] == 0  # the bundled quadpol, parsed and kept
    monkeypatch.chdir(tmp_path)
    Path("quadpol").write_text(fixture_path("lifted2z").read_text())
    code, out, _ = run([*CONJUGATE, "--map", "quadpol"], capsys)
    want_code, want, _ = run([*CONJUGATE, "--map", str(fixture_path("lifted2z"))], capsys)
    report, want_report = (json.loads(text[text.index("{"):]) for text in (out, want))
    assert code == want_code and out[:out.index("{")] == want[:want.index("{")]
    assert {**report, "config": None} == {**want_report, "config": None}
    Path("quadpol").write_text("{not json")
    code, _, err = run([*CONJUGATE, "--map", "quadpol"], capsys)
    assert code == 1 and err.startswith("error: quadpol: malformed map descriptor")


@pytest.mark.parametrize("text, cause", [
    ('{"family": "quadratic", "A": 2}', "TypeError: QuadraticSiegel.__init__() missing 2 required "
                                        "positional arguments: 'B' and 'C'"),
    ("[]", "AttributeError"),
    ('{"family": "quadratic", "A": "x", "B": 0, "C": 1}', "TypeError"),
    ('{"family": "diagonal", "alpha": 2.0, "lam": {"re": [1.0]}}', "KeyError: 'im'"),
    ("{not json", "JSONDecodeError: Expecting property name"),
    ('{"family": "diagonal", "alpha": 2.0, "lamda": {"re": [1.0], "im": [0.0]}}',
     "unexpected keyword argument 'lamda'"),
    ('{"family": "conjugated", "base": {"family": "diagonal", "alpha": 2.0}, "by": {"chain": '
     '[{"kind": "translation", "y": 0.5, "wo": {"re": [0.1], "im": [0.0]}}]}}',
     "unexpected keyword argument 'wo'"),
    ('{"family": "quadratic", "A": 2.0, "B": 0.0, "C": 1.0, "D": 1.0}', "unexpected keyword argument 'D'"),
    ('{"family": "nope"}', "InvalidDescriptor: unknown family 'nope'"),
    ('{"family": "lifted", "phi": {"kind": "halfplane_linear", "c": -1.0}}',
     "InvalidDescriptor: HalfPlaneLinear needs c > 0"),
    ('{"family": "quadratic", "A": NaN, "B": 0.0, "C": 1.0}',
     "InvalidDescriptor: quadratic family needs real A >= 0, finite; got A = nan"),
    ('{"family": "conjugated", "base": {"family": "diagonal", "alpha": 2.0}, "by": {"chain": '
     '[{"kind": "dilation", "t": Infinity}]}}',
     "InvalidPoint: dilation parameter must be positive, finite; got t = inf"),
], ids=["missing_key", "not_an_object", "wrong_type", "lam_without_im", "not_json", "misspelled_lam",
        "misspelled_w0", "extra_key", "unknown_family", "rejected_parameter", "non_finite_parameter",
        "non_finite_primitive"])
def test_malformed_descriptor_is_a_typed_error(text, cause, tmp_path, capsys):
    # each command names the file and the cause on one line; verify keeps exit 4
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["classify"], ["orbit", "--backward", "--start", "1,0", "--out", str(tmp_path)],
                 ["conjugate"]):
        code, out, err = run([*argv, "--map", str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(bad) in err and cause in err
        assert err.count("\n") == 1
    for name in cli.FIXTURES:
        (tmp_path / f"{name}.json").write_text(text if name == "elliptic" else fixture_path(name).read_text())
    code, _, err = run(["verify", "--fixtures", str(tmp_path), *FAST_VERIFY], capsys)
    assert code == 4
    assert err.startswith("fixture error: ") and cause in err


def test_verify_julia_check_of_a_map_of_another_dimension_is_one_error_line(tmp_path, capsys):
    # the Julia section draws once per map dimension: a diagonal map of dim 3 gets its own
    # points, and its check at the dim-2 boundary point 0 fails as it did with a draw per check
    for name in cli.FIXTURES:
        (tmp_path / f"{name}.json").write_text(fixture_path(name).read_text())
    (tmp_path / "diaglinear.json").write_text(
        '{"family": "diagonal", "alpha": 2.0, "lam": {"re": [1.0, 0.5], "im": [0.0, 0.0]}}')
    code, out, err = run(["verify", "--seed", "3", "--samples", "20", "--fixtures", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "", "error: inner product of lengths 2 and 1\n")


@pytest.mark.parametrize("argv", [["orbit", "--backward", "--start", "1,0"], ["classify"], ["conjugate"]],
                         ids=["orbit", "classify", "conjugate"])
def test_out_that_is_a_file_is_a_typed_error(argv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run([*argv, "--map", "quadpol", "--out", str(taken)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_samples_below_one(samples, capsys):
    # checks that drew no point must not report a pass
    code, out, err = run(["verify", "--samples", samples], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--samples" in err


CONFIG_COMMANDS = {
    "classify": ["classify", "--map", "quadpol"],
    "orbit": ["orbit", "--map", "quadpol", "--start", "1,0", "--backward"],
    "conjugate": ["conjugate", "--map", "quadpol"],
    "verify": ["verify", *FAST_VERIFY],
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_missing_config_file_exit_1(command, tmp_path, capsys):
    missing = tmp_path / "nonexistent" / "cfg.json"
    code, out, err = run([*CONFIG_COMMANDS[command], "--config", str(missing),
                          "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "cfg.json" in err
    assert list(tmp_path.iterdir()) == []  # nothing written


MALFORMED_CONFIGS = [(command, "[1, 2]") for command in sorted(CONFIG_COMMANDS)] + [
    (command, text) for command in sorted(CONFIG_COMMANDS) if command != "classify"  # classify takes no seed
    for text in ('{"seed": [1]}', '{"seed": null}', '{"seed": {"a": 1}}')]


@pytest.mark.parametrize("command, text", MALFORMED_CONFIGS)
def test_malformed_config_exit_1(command, text, tmp_path, capsys):
    # a config that is not a JSON object, or (for the commands that take one) a seed
    # that is not an integer
    cfg, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    code, out, err = run([*CONFIG_COMMANDS[command], "--config", str(cfg), "--out", str(out_dir)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "cfg.json" in err and err.count("\n") == 1
    assert not out_dir.exists()  # nothing written


SEED_COMMANDS = sorted(set(CONFIG_COMMANDS) - {"classify"})  # classify takes no seed


def seed_error(command, argv, tmp_path, capsys) -> str:
    """The stderr of a run that must fail on its seed: exit 1, no stdout, nothing written."""
    out_dir = tmp_path / "out"
    code, out, err = run([*CONFIG_COMMANDS[command], *argv, "--out", str(out_dir)], capsys)
    assert (code, out) == (1, "") and not out_dir.exists()
    return err


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("text", ["5.7", "5.0", "true", "false", '"5"', "1e3"])
def test_config_seed_must_be_a_json_integer(command, text, tmp_path, capsys, monkeypatch):
    # a float or a bool used to run as int() of it (5.7 as seed 5, true as seed 1)
    monkeypatch.delenv("SIEGEL_DYNAMICS_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"seed": {text}}}')
    shown = json.dumps(json.loads(text))
    assert seed_error(command, ["--config", str(cfg)], tmp_path, capsys) == \
        f"error: config {cfg}: seed {shown} is not an integer\n"


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_names_its_source(command, source, tmp_path, capsys, monkeypatch):
    # the seed used to reach numpy unchecked (verify: "expected non-negative integer"; orbit and
    # conjugate ran with it)
    monkeypatch.delenv("SIEGEL_DYNAMICS_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -3}')
    argv, where = {"flag": (["--seed", "-3"], "--seed"), "config": (["--config", str(cfg)], f"config {cfg}"),
                   "env": ([], "SIEGEL_DYNAMICS_SEED")}[source]
    if source == "env":
        monkeypatch.setenv("SIEGEL_DYNAMICS_SEED", "-3")
    assert seed_error(command, argv, tmp_path, capsys) == f"error: {where}: seed -3 is negative\n"


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("value", ["abc", "5.7", "0x10"])
def test_malformed_env_seed_names_the_variable(command, value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIEGEL_DYNAMICS_SEED", value)
    assert seed_error(command, [], tmp_path, capsys) == \
        f"error: SIEGEL_DYNAMICS_SEED: seed {json.dumps(value)} is not an integer\n"


@pytest.mark.parametrize("argv, env, seed", [
    (["--seed", "0"], "-1", 0),  # the flag wins, so the variable is not read
    ([], "", 0), ([], " 7 ", 7), ([], None, 0),
])
def test_valid_seeds_still_run(argv, env, seed, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("SIEGEL_DYNAMICS_SEED", raising=False)
    else:
        monkeypatch.setenv("SIEGEL_DYNAMICS_SEED", env)
    code, out, err = run(["verify", *FAST_VERIFY, *argv], capsys)
    assert (code, err) == (0, "") and json.loads(out)["seed"] == seed


def test_classify_takes_no_seed_flag(capsys):
    # it used to accept one, and echo it in the report's config, without reading it
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--map", "quadpol", "--seed", "5"])
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert cap.err.startswith("usage: ") and cap.err.endswith("error: unrecognized arguments: --seed 5\n")


# ---------------------------------------------------------------------------
# one process, many calls
# ---------------------------------------------------------------------------

def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # later calls leave out flags that earlier ones set: nothing may carry over
    calls = [
        ["conjugate", "--map", "quadpol", "--start", "0.5,0", "--n", "30", "--n-conj", "5",
         "--seed", "3"],
        ["conjugate", "--A", "2", "--B", "0", "--C", "1.4142135623730951", "--n-conj", "4"],
        ["classify", "--A", "2", "--B", "1", "--C", "1"],
        ["verify", *FAST_VERIFY],
        ["conjugate", "--map", "quadpol", "--start", "0.5,0", "--n", "30", "--n-conj", "5",
         "--seed", "3"],
    ]
    monkeypatch.delenv("SIEGEL_DYNAMICS_SEED", raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(siegel_dynamics.__file__).parents[1]))
    for argv in calls:
        code, out, _ = run(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "siegel_dynamics.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_fixture_paths_are_the_bundled_files_without_a_resource_lookup(monkeypatch):
    import importlib.resources

    before = {name: Path(str(importlib.resources.files("siegel_dynamics") / "fixtures" / f"{name}.json"))
              for name in cli.FIXTURES}

    def no_lookup(*args):
        raise AssertionError("fixture_path looked the package up again")

    monkeypatch.setattr(importlib.resources, "files", no_lookup)
    for name, path in before.items():
        assert fixture_path(name) == path and path.is_file()
        assert str(fixture_path(name)) == str(path)
