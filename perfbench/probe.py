"""The ROADMAP baseline table, reproduced from traced per-call times.

Each row runs the ROADMAP's call with the ROADMAP's parameters under its own
span label; its figure is the mean inclusive duration of the outermost spans
of one traced function under that label.  Inclusive times carry the tracing
cost of the spans nested inside them.
"""

from __future__ import annotations

import contextlib
import io
import random

PRIMITIVE_CALLS = 2000
FLAG_FACTOR = 2.0

# (row, ROADMAP figure in seconds or None, traced function)
ROWS = (
    ("SiegelPoint(...)", 20e-6, "geometry.siegel_point"),
    ("evaluate(QuadraticSiegel, p)", 20e-6, "maps.evaluate"),
    ("dist_siegel", 29e-6, "geometry.dist_siegel"),
    ("backward_orbit quadpol, n=40", 6.2e-3, "dynamics.backward_orbit"),
    ("backward_orbit elliptic, n=40", 24e-3, "dynamics.backward_orbit"),
    ("backward_orbit quadpol, n=500", None, "dynamics.backward_orbit"),
    ("conjugation_residual n=10", 8.3e-3, "conjugation.conjugation_residual"),
    ("run_conjugation n=1..38", 0.312, "conjugation.run_conjugation"),
    ("julia_inclusion_check 10k samples", 0.90, "dynamics.julia_inclusion_check"),
    ("elliptic_growth_constant", 0.97, "dynamics.elliptic_growth_constant"),
    ("verify --seed 7", 2.65, "cli.main"),
)


def run_rows(lib, tracer) -> None:
    """Run every row's call with `tracer` installed, one span label per row."""
    from siegel_dynamics import conjugation, geometry, maps

    dyn, quadpol = lib.dynamics, lib.maps["quadpol"]
    rng = random.Random(7)

    def rand_point():
        w = complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
        t = 10.0 ** rng.uniform(-2, 2)
        return (t + abs(w) ** 2 + 1j * rng.gauss(0, 1), (w,))

    coords = [rand_point() for _ in range(PRIMITIVE_CALLS)]
    tracer.job = ROWS[0][0]
    points = [geometry.SiegelPoint(z, w) for z, w in coords]
    tracer.job = ROWS[1][0]
    for p in points:
        maps.evaluate(quadpol, p)
    tracer.job = ROWS[2][0]
    for p, q in zip(points, points[1:]):
        geometry.dist_siegel(p, q)

    one = geometry.SiegelPoint(1.0, (0.0,))
    tracer.job = ROWS[3][0]
    orbit = dyn.backward_orbit(quadpol, one, 0.34, 40)
    tracer.job = ROWS[4][0]
    dyn.backward_orbit(lib.maps["elliptic"], one, 0.34, 40)
    tracer.job = ROWS[5][0]
    dyn.backward_orbit(quadpol, one, 0.34, 500)

    tracer.job = None
    g, orbit0, _ = conjugation.recenter_orbit_at_zero(quadpol, orbit)
    tracer.job = ROWS[6][0]
    conjugation.conjugation_residual(g, orbit0, 10, conjugation.default_grid(2), 2.0)
    tracer.job = ROWS[7][0]
    conjugation.run_conjugation(g, orbit0, 2.0, n_values=tuple(range(1, 39)))
    tracer.job = ROWS[8][0]
    dyn.julia_inclusion_check(quadpol, lib.repelling["quadpol"], 2.0, n_samples=10000, seed=7)
    tracer.job = ROWS[9][0]
    dyn.elliptic_growth_constant(lib.maps["elliptic"], 0.5)
    tracer.job = ROWS[10][0]
    with contextlib.redirect_stdout(io.StringIO()):
        lib.cli.main(["verify", "--seed", "7"])
    tracer.job = None


def table(spans) -> list[tuple[str, float | None, float, int, str]]:
    """(row, ROADMAP seconds, traced seconds per call, calls, flag) per row."""
    out = []
    for row, roadmap, name in ROWS:
        durations = [s.end - s.start for s in spans
                     if s.job == row and s.name == name
                     and (s.parent < 0 or spans[s.parent].name != name)]
        per_call = sum(durations) / len(durations) if durations else float("nan")
        flag = ""
        if roadmap is not None and not (1 / FLAG_FACTOR <= per_call / roadmap <= FLAG_FACTOR):
            flag = f"differs from ROADMAP by more than {FLAG_FACTOR:g}x"
        out.append((row, roadmap, per_call, len(durations), flag))
    return out
