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


@pytest.mark.parametrize("text, cause", [
    ('{"family": "quadratic", "A": 2}', "KeyError: 'B'"),
    ("[]", "AttributeError"),
    ('{"family": "quadratic", "A": "x", "B": 0, "C": 1}', "TypeError"),
    ('{"family": "diagonal", "alpha": 2.0, "lam": {"re": [1.0]}}', "KeyError: 'im'"),
], ids=["missing_key", "not_an_object", "wrong_type", "lam_without_im"])
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
