"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import importlib
import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tracing, workloads  # noqa: E402
from perfbench.run import tail, tally  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return workloads.Library(ROOT / "src")


def _first_rounds(workload, seed, k=3):
    return list(itertools.islice(workloads.rounds(workload, seed), k))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _first_rounds(workload, 4) == _first_rounds(workload, 4)
    assert _first_rounds(workload, 4) != _first_rounds(workload, 5)


def test_same_seed_gives_same_failure_counts(lib):
    def failure_counts():
        batch = next(workloads.rounds("deep_orbit", 4))
        return Counter(workloads.run_job(lib, job).cause for job in batch)

    first = failure_counts()
    assert first == failure_counts()
    # every known defect of the round shows, and nothing else fails
    assert set(first) - {None} <= set(workloads.KNOWN_DEFECTS)
    assert first["alpha_frozen"] == 2 and first[None] >= 9


def test_known_defects_are_not_failures_but_other_causes_are():
    job = workloads.WARMUP["deep_orbit"]
    outcomes = [workloads.Outcome(job, (), cause)
                for cause in (None, "alpha_frozen", "alpha_frozen", "truncated", "raised_ValueError")]
    defects, failures = tally(outcomes)
    assert defects == Counter(alpha_frozen=2)
    assert failures == Counter(truncated=1, raised_ValueError=1)


def _axis_orbit(lib, n=40):
    job = workloads.Job("deep_orbit", "quadpol", "axis", (1 + 0j, 0j), n)
    start = lib.geometry.SiegelPoint(1.0, (0.0,))
    return job, lib.dynamics.backward_orbit(lib.maps["quadpol"], start, 0.34, n)


def test_orbit_checker_rejects_corrupted_orbits(lib):
    job, orbit = _axis_orbit(lib)
    assert workloads.check_orbit(lib, job, orbit) is None

    perturbed = dataclasses.replace(orbit, multiplier_estimate=orbit.multiplier_estimate * (1 + 1e-6))
    assert workloads.check_orbit(lib, job, perturbed) == "alpha"

    cut = dataclasses.replace(orbit, points=orbit.points[:21], defects=orbit.defects[:21])
    assert workloads.check_orbit(lib, job, cut) == "truncated"

    points = list(orbit.points)
    p = points[7]
    points[7] = lib.geometry.SiegelPoint(p.z * (1 + 1e-8), p.w)
    assert workloads.check_orbit(lib, job, dataclasses.replace(orbit, points=tuple(points))) == "exactness"


def test_conjugate_and_verify_checkers_reject_corrupted_reports(lib):
    job = workloads.Job("conjugate", "quadpol", start=(1 + 0j, 0j), n=40, n_conj=10)
    outcome = workloads.run_job(lib, job)
    assert outcome.cause is None and outcome.work == 10 * 25

    report = {"alpha": "2", "residuals": ["0"] * 10}
    assert workloads.check_conjugate(lib, job, 0, report) is None
    assert workloads.check_conjugate(lib, job, 3, report) == "conjugate_exit"
    assert workloads.check_conjugate(lib, job, 0, dict(report, alpha="2.0001")) == "alpha"
    bad = dict(report, residuals=["0"] * 9 + ["0.01"])
    assert workloads.check_conjugate(lib, job, 0, bad) == "residual"

    growth = lib.dynamics.elliptic_growth_constant(lib.maps["elliptic"], 0.5, **workloads.GROWTH_GRID)
    verify = {"pass": True, "results": [{"check": "x", "pass": True}]}
    exact = dict(lib.alpha)
    assert workloads.check_verify(lib, 0, verify, growth, exact) is None
    failing = {"pass": False, "results": [{"check": "x", "pass": False}]}
    assert workloads.check_verify(lib, 0, failing, growth, exact) == "verify_check"
    flagged = dataclasses.replace(growth, c=1.5, flagged=True)
    assert workloads.check_verify(lib, 0, verify, flagged, exact) == "growth_flagged"
    off = dict(exact, elliptic=exact["elliptic"] * (1 + 1e-4))
    assert workloads.check_verify(lib, 0, verify, growth, off) == "multiplier"


def _bindings():
    modules = [importlib.import_module(tracing.PACKAGE + m) for m in tracing.MODULES]
    out = {(mod.__name__, key): value for mod in modules for key, value in vars(mod).items()}
    geometry = importlib.import_module("siegel_dynamics.geometry")
    out["SiegelPoint.__post_init__"] = geometry.SiegelPoint.__dict__["__post_init__"]
    return out


def test_traced_run_restores_every_wrapped_name(lib):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        # the geometry names imported into dynamics and conjugation are wrapped too
        for key in (("siegel_dynamics.dynamics", "dist_siegel"),
                    ("siegel_dynamics.conjugation", "apply_automorphism"),
                    ("siegel_dynamics.cli", "main"), "SiegelPoint.__post_init__"):
            assert during[key] is not before[key]
        tracer.job = 0
        _axis_orbit(lib)
        workloads.run_job(lib, workloads.Job("conjugate", "lifted2z", start=(1 + 0j, 0j),
                                             n=40, n_conj=10))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    m = tracing.layer_metrics(tracer.spans, lambda job: job == 0)
    assert m["dynamics.backward_orbit.calls"] == 2 and m["cli.main.calls"] == 1
    assert m["dynamics.backward_step.calls"] == 80
    assert m["conjugation.evaluates_per_psi"] > 1.0  # lifted2z: O(n) evaluations per psi


def test_self_time_subtracts_children():
    S = tracing.Span
    spans = [S("dynamics.backward_orbit", 0.0, 10.0, -1, 0, None, 0),
             S("geometry.dist_siegel", 2.0, 5.0, 0, 0, None, 0),
             S("geometry.siegel_to_ball", 3.0, 4.0, 1, 0, "InvalidPoint", 0)]
    m = tracing.layer_metrics(spans, lambda job: True)
    assert m["dynamics.self_s"] == 7.0
    assert m["geometry.dist_siegel.self_s"] == 2.0
    assert m["geometry.self_s"] == 3.0
    assert m["geometry.dist_siegel.ball_fallbacks"] == 1
    assert m["geometry.invalid_point"] == 1


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    assert tail(values) == (89.0, 90.0)
    assert tail(values[:12]) == (5.0, 50.0)  # never below the median


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_output_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.catalog()]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "checks", "--seed", "1", "--seconds", "1", "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "checks", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
