"""The three workloads: seeded inputs, one closed-loop client, checked outputs.

Each workload is a stream of rounds; a round is a fixed mix of jobs whose
continuous parameters (starts, seeds, radii) are drawn from the workload
seed.  A job is one operation through the package's public functions; it is
timed alone, and its output is checked afterwards, outside the timed region.
A job whose output misses a check gets a named cause: a known defect of the
package when the miss has that defect's signature, a failure otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .calibration import kernel_seconds, reference_seconds
from .reference import FIXTURES, known_multiplier, load_fixture_json, orbit_exactness

WORKLOADS = ("checks", "conjugate", "deep_orbit")

STEP_BOUND = 0.34
VERIFY_SAMPLES = 200
GROWTH_GRID = {"n_grid": 8, "n_angles": 16}
CONJ_N = 40
CONJ_DEPTH = 12  # --n-conj: psi_1 .. psi_12; the elliptic residual is then ~6e-5
ORBIT_LENGTHS = (40, 500, 2000)
# elliptic starts per round and n: its completed (n = 40) orbits, three times
# slower per step, make up the step tail
ELLIPTIC_STARTS = {40: 3, 500: 1, 2000: 1}

MULTIPLIER_RTOL = 1e-6   # Richardson estimate of multiplier_at_boundary
ALPHA_RTOL = 1e-8        # tail-ratio multiplier of a backward orbit
RESIDUAL_TOL = 1e-3      # final conjugation residual
EXACTNESS_RTOL = 1e-10   # f(Z_{k+1}) = Z_k, relative, in mpmath
UNDERFLOW_DEFECT = 1e-150  # t below which t^2 underflows in dist_siegel
NEAR_CURVE_RATIO = 1e-6    # t / ||w||^2 below which (z, w) holds t to < 10 digits
BALL_ROUNDING = 1e-15      # relative error per unit |z| that ball coordinates can add

# Causes that are known defects of the library.  Their jobs lower the
# success share but are not failed operations, so later changes that fix
# them show up as a higher success share; any other cause is a failure and
# makes the run incorrect.
KNOWN_DEFECTS = {
    "invalid_point": "D1: InvalidPoint raised from the ball fallback in dist_siegel "
                     "(axis orbits past n ~ 538, and near-curve orbits)",
    "truncated_underflow": "D1: axis orbit past n ~ 530 stops once t^2 underflows "
                           "in dist_siegel (NoBackwardStep, silent truncation)",
    "truncated_near_curve": "D2: near-curve orbit stops after ~50 steps once t "
                            "nears the ulp of ||w||^2 (silent truncation)",
    "alpha_near_curve": "D2: near-curve orbit's multiplier drifts (~1e-6) as t "
                        "nears the ulp of ||w||^2",
    "alpha_frozen": "D3: elliptic orbit toward infinity reports alpha = 1 once "
                    "its defects freeze near 9.0e15",
    "exactness_toward_infinity": "D3: before that, an elliptic orbit toward infinity "
                                 "loses f(Z_k+1) = Z_k to ~eps |z| in ball coordinates",
}


@dataclass(frozen=True)
class Job:
    workload: str
    fixture: str = ""
    family: str = ""                 # deep_orbit start family: axis | curve | infinity
    start: tuple[complex, ...] = ()
    n: int = 0                       # backward-orbit length requested
    n_conj: int = 0
    verify_seed: int = 0
    r0: float = 0.0


@dataclass(frozen=True)
class Outcome:
    job: Job
    parts: tuple[tuple[float, float, float], ...]  # (seconds, kernel before, kernel after)
    cause: str | None   # None when every check passed
    steps: int = 0      # achieved backward steps (deep_orbit)
    work: int = 0       # samples (checks), psi evaluations (conjugate), steps (deep_orbit)

    @property
    def seconds(self) -> float:
        return sum(part[0] for part in self.parts)

    @property
    def ref_seconds(self) -> float:
        """Time at the reference speed (see calibration)."""
        return sum(reference_seconds(*part) for part in self.parts)


class Library:
    """The package under test, imported from a source tree, with its fixtures."""

    def __init__(self, src: Path):
        from siegel_dynamics import cli, dynamics, geometry, serialize

        self.cli, self.dynamics, self.geometry = cli, dynamics, geometry
        self.maps = {name: serialize.load_descriptor(str(cli.fixture_path(name)))
                     for name in FIXTURES}
        self.desc = {name: load_fixture_json(src, name) for name in FIXTURES}
        self.alpha = {name: known_multiplier(d) for name, d in self.desc.items()}
        origin = geometry.BoundaryPoint(v=geometry.CVector((0.0, 0.0)), model="siegel")
        infinity = geometry.BoundaryPoint(at_infinity=True, model="siegel")
        self.repelling = {name: infinity if name == "elliptic" else origin
                          for name in FIXTURES}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _axis_start(rng: random.Random, fixture: str) -> tuple[complex, ...]:
    """(t, 0) on the approach axis: t ~ 10^U(-1, 1), or T ~ 10^U(0.3, 1)
    toward infinity for the elliptic fixture."""
    t = _log_uniform(rng, 0.3, 1.0) if fixture == "elliptic" else _log_uniform(rng, -1.0, 1.0)
    return (complex(t), 0j)


def _checks_round(rng: random.Random) -> list[Job]:
    return [Job("checks", verify_seed=rng.randrange(2 ** 31), r0=rng.uniform(0.3, 0.9))]


def _conjugate_round(rng: random.Random) -> list[Job]:
    return [Job("conjugate", fixture, start=_axis_start(rng, fixture), n=CONJ_N,
                n_conj=CONJ_DEPTH) for fixture in FIXTURES]


def _deep_orbit_round(rng: random.Random) -> list[Job]:
    jobs = []
    for n in ORBIT_LENGTHS:
        for fixture in ("quadpol", "lifted2z", "diaglinear"):
            jobs.append(Job("deep_orbit", fixture, "axis", _axis_start(rng, fixture), n))
        # just inside the boundary fixed curves {(r^2, i r)} and {(r^2, r)}
        for fixture, unit in (("quadpol", 1j), ("lifted2z", 1.0)):
            r, t = rng.uniform(0.2, 1.0), _log_uniform(rng, -1.0, 1.0)
            jobs.append(Job("deep_orbit", fixture, "curve", (complex(r * r + t), unit * r), n))
        for _ in range(ELLIPTIC_STARTS[n]):
            jobs.append(Job("deep_orbit", "elliptic", "infinity", _axis_start(rng, "elliptic"), n))
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {"checks": _checks_round, "conjugate": _conjugate_round,
           "deep_orbit": _deep_orbit_round}


def rounds(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless stream of rounds; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _ROUNDS[workload](rng)


WARMUP = {
    "checks": Job("checks", verify_seed=1, r0=0.5),
    "conjugate": Job("conjugate", "quadpol", start=(1 + 0j, 0j), n=CONJ_N, n_conj=CONJ_DEPTH),
    "deep_orbit": Job("deep_orbit", "quadpol", "axis", (1 + 0j, 0j), 40),
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def _report(text: str) -> dict:
    """The canonical JSON report a CLI command printed after its table."""
    return json.loads(text[text.index("{"):])


def check_verify(lib: Library, rc: int, report: dict, growth, multipliers: dict) -> str | None:
    if rc != 0:
        return "verify_exit"
    if not report.get("pass") or not all(r["pass"] for r in report["results"]):
        return "verify_check"
    if growth.flagged or not 0.0 < growth.c < 1.0:
        return "growth_flagged"
    if any(_rel_err(a, lib.alpha[name]) > MULTIPLIER_RTOL for name, a in multipliers.items()):
        return "multiplier"
    return None


def check_conjugate(lib: Library, job: Job, rc: int, report: dict) -> str | None:
    if rc != 0:
        return "conjugate_exit"
    if _rel_err(float(report["alpha"]), lib.alpha[job.fixture]) > ALPHA_RTOL:
        return "alpha"
    if len(report["residuals"]) != job.n_conj or not float(report["residuals"][-1]) <= RESIDUAL_TOL:
        return "residual"
    return None


def check_orbit(lib: Library, job: Job, orbit) -> str | None:
    """First failed check of a backward orbit, named by its known defect
    where the failure matches one."""
    t_last = orbit.defects[-1]
    near_curve = (job.family == "curve"
                  and t_last < NEAR_CURVE_RATIO * sum(abs(c) ** 2 for c in orbit.points[-1].w))
    if len(orbit.points) - 1 < job.n:
        if job.family == "axis" and t_last < UNDERFLOW_DEFECT:
            return "truncated_underflow"
        return "truncated_near_curve" if near_curve else "truncated"
    alpha = orbit.multiplier_estimate
    if _rel_err(alpha, lib.alpha[job.fixture]) > ALPHA_RTOL:
        frozen = t_last == orbit.defects[-2]
        if job.family == "infinity" and abs(alpha - 1.0) < 1e-9 and frozen:
            return "alpha_frozen"
        return "alpha_near_curve" if near_curve else "alpha"
    error = orbit_exactness(lib.desc[job.fixture], orbit.points)
    if error > EXACTNESS_RTOL:
        height = max(abs(p.z) for p in orbit.points)
        if job.family == "infinity" and error < BALL_ROUNDING * height:
            return "exactness_toward_infinity"
        return "exactness"
    return None


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class Timer:
    """Times the parts of one job, each between two runs of the calibration
    kernel that give the machine speed around it."""

    def __init__(self):
        self.parts: list[tuple[float, float, float]] = []

    @contextlib.contextmanager
    def part(self):
        before = kernel_seconds()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            self.parts.append((seconds, before, kernel_seconds()))


def _run_checks(lib: Library, job: Job, timer: Timer) -> Outcome:
    out = io.StringIO()
    with timer.part(), contextlib.redirect_stdout(out):
        rc = lib.cli.main(["verify", "--seed", str(job.verify_seed),
                           "--samples", str(VERIFY_SAMPLES)])
    with timer.part():
        growth = lib.dynamics.elliptic_growth_constant(lib.maps["elliptic"], job.r0,
                                                       **GROWTH_GRID)
    with timer.part():
        multipliers = {name: lib.dynamics.multiplier_at_boundary(lib.maps[name],
                                                                 lib.repelling[name])
                       for name in FIXTURES}
    report = _report(out.getvalue()) if rc == 0 else {}
    cause = check_verify(lib, rc, report, growth, multipliers)
    return Outcome(job, tuple(timer.parts), cause, work=VERIFY_SAMPLES)


def _run_conjugate(lib: Library, job: Job, timer: Timer) -> Outcome:
    z = job.start[0]
    argv = ["conjugate", "--map", job.fixture, "--start", f"{z.real!r},{z.imag!r}",
            "--n", str(job.n), "--n-conj", str(job.n_conj), "--tol", repr(RESIDUAL_TOL)]
    out = io.StringIO()
    with timer.part(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.main(argv)
    report = _report(out.getvalue()) if rc == 0 else {}
    cause = check_conjugate(lib, job, rc, report)
    work = len(report["residuals"]) * len(report["grid"]) if cause is None else 0
    return Outcome(job, tuple(timer.parts), cause, work=work)


def _run_deep_orbit(lib: Library, job: Job, timer: Timer) -> Outcome:
    start = lib.geometry.SiegelPoint(job.start[0], job.start[1:])
    try:
        with timer.part():
            orbit = lib.dynamics.backward_orbit(lib.maps[job.fixture], start, STEP_BOUND, job.n)
    except Exception as err:  # every raise is a failed operation, counted by type
        name = type(err).__name__
        in_distance = any(f.name == "dist_siegel" for f in traceback.extract_tb(err.__traceback__))
        known = name == "InvalidPoint" and in_distance
        return Outcome(job, tuple(timer.parts), "invalid_point" if known else f"raised_{name}")
    steps = len(orbit.points) - 1
    return Outcome(job, tuple(timer.parts), check_orbit(lib, job, orbit), steps=steps, work=steps)


_RUNNERS = {"checks": _run_checks, "conjugate": _run_conjugate, "deep_orbit": _run_deep_orbit}


def run_job(lib: Library, job: Job) -> Outcome:
    timer = Timer()
    try:
        return _RUNNERS[job.workload](lib, job, timer)
    except Exception as err:  # a job that crashes the client is a failure, not a stop
        return Outcome(job, tuple(timer.parts), f"raised_{type(err).__name__}")


def run_for(lib: Library, rounds_iter: Iterator[list[Job]], seconds: float) -> list[Outcome]:
    """Closed loop: whole rounds, one job after another, until `seconds` of
    real time have passed."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for batch in rounds_iter:
        outcomes.extend(run_job(lib, job) for job in batch)
        if time.perf_counter() - start >= seconds:
            break
    return outcomes
