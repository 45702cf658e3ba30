"""Per-fixture times of the library's layers, at the benchmark's reference speed.

    PYTHONPATH=src python3 tools/layer_times.py [--repeats 15] [--label change] [--out FILE]
    python3 tools/layer_times.py --summary FILE

For each bundled fixture it times, in microseconds at the reference speed of
``perfbench/calibration.py`` (a fixed kernel timed right before and right
after each timing, as the benchmark scales its jobs):

- ``backward_step`` and an n = 40, an n = 500 and an n = 2000
  ``backward_orbit`` from (5, 0), bound 0.34, the benchmark's start (at
  n = 2000 the polynomial fixtures stop near t = 5e-324 after 1,074
  steps, and ``elliptic``'s step 122 gives back its point, which ends the
  steps taken);
- a step's three parts: ``preimages``, the family's closed-form preimages of
  the start through ``maps.preimage_candidates``; ``siegel_point``, the
  ``SiegelPoint`` of the first candidate; and ``dist_siegel``, the start's
  distance to the point the step takes;
- ``multiplier``: ``multiplier_at_boundary`` at the fixture's repelling point
  (infinity for ``elliptic``, 0 for the others), as the benchmark's ``checks``
  job calls it;
- ``evaluate`` at the orbit's start, and on 7 and on 120 rows (``SiegelRows``)
  of its points, repeated from the start as often as needed; each call gets
  new row objects (``take``), as each step of a ψ sweep does, so no row
  division finds its divisor prepared by an earlier call;
- ``chart_rows120``: ``evaluate`` on 120 rows of the recentred orbit, of the
  map that ``conjugate`` hands to ``run_conjugation`` (the fixture recentred
  at the orbit's limit, e.g. ``Conjugated(elliptic, Inversion)``);
- ``run_conjugation`` on the recentred orbit, as ``conjugate --start 5,0
  --n-conj 12`` runs it;
- ``conjugate_cli``: the benchmark's ``conjugate`` job, ``cli.main`` on
  ``conjugate --map NAME --start 5,0 --n 40 --n-conj 12 --tol 1e-3``, its
  stdout discarded;
- ``verify``: ``cli.main`` on ``verify --seed 7 --samples 200``, its stdout
  discarded, most of the benchmark's ``checks`` job.  It reads the bundled
  fixtures, not the row's: every row times the same call;
- ``julia``: ``julia_inclusion_check`` at the fixture's repelling point, with
  the n = 40 orbit's multiplier estimate, 200 samples and seed 7;
- ``growth``: ``elliptic_growth_constant`` of the ``elliptic`` fixture at
  r0 = 0.6 on the ``checks`` job's grid (n_grid = 8, n_angles = 16), the same
  call on every row.

Each figure is the median of ``--repeats`` timings, each timing a loop long
enough to take about 2 ms.  The library is whatever ``siegel_dynamics`` the
``PYTHONPATH`` names, so the same script times any tree; ``perfbench`` comes
from this script's own checkout.  ``--out`` appends one JSON line (label,
versions, the tree timed, and the medians).  ``--summary FILE`` prints the
median over the lines of each label, for two labels side by side (the first
label in the file is the "before" column); it reads only the file, so it needs
no ``PYTHONPATH``, and only its layer lines, so a ``BENCH_<pr>.json`` that
pools them with ``tools/bench_pairs.py`` records will do.  Alternate the runs
of the two trees so that a drift of the machine's speed hits both.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench only; the library comes from PYTHONPATH

from perfbench.calibration import kernel_seconds, reference_seconds  # noqa: E402

BOUND, N, N_CONJ = 0.34, 40, 12
ALL = slice(None)  # rows.take(ALL): the same rows as new objects, no divisor prepared yet
LAYERS = ("evaluate_point", "evaluate_rows7", "evaluate_rows120", "chart_rows120", "preimages",
          "siegel_point", "dist_siegel", "backward_step", "backward_orbit_n40", "backward_orbit_n500",
          "backward_orbit_n2000", "multiplier", "run_conjugation", "conjugate_cli", "verify", "julia",
          "growth")


def timed_us(fn, repeats: int) -> float:
    """Median over `repeats` timings of fn, in microseconds at the reference speed."""
    t0 = time.perf_counter()
    fn()
    loops = max(1, int(2e-3 / max(time.perf_counter() - t0, 1e-7)))
    times = []
    for _ in range(repeats):
        before = kernel_seconds()
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        wall = (time.perf_counter() - t0) / loops
        times.append(reference_seconds(wall, before, kernel_seconds()) * 1e6)
    return statistics.median(times)


def fixture_jobs(name: str) -> dict:
    """The calls timed for one fixture, by layer."""
    from siegel_dynamics import cli
    from siegel_dynamics import conjugation as cj
    from siegel_dynamics import dynamics as dyn
    from siegel_dynamics import geometry as geo
    from siegel_dynamics import maps as mp
    from siegel_dynamics import serialize as ser
    from siegel_dynamics.geometry import INFINITY, BoundaryPoint, CVector, SiegelPoint, SiegelRows

    def rows(points: list[SiegelPoint], n: int) -> SiegelRows:
        """The first n points, repeated from the start as often as needed, as rows."""
        return SiegelRows.of([points[i % len(points)] for i in range(n)])

    def conjugate_job() -> None:
        """The benchmark's `conjugate` job on this fixture, stdout discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["conjugate", "--map", name, "--start", "5,0", "--n", str(N), "--n-conj", str(N_CONJ),
                      "--tol", "1e-3"])

    def verify_job() -> None:
        """`verify` as the benchmark's `checks` job runs it, stdout discarded; no fixture changes it."""
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--seed", "7", "--samples", "200"])

    start = SiegelPoint(5.0, (0j,))
    f = ser.load_descriptor(str(cli.fixture_path(name)))
    orbit = dyn.backward_orbit(f, start, BOUND, N)
    rows7, rows120 = rows(orbit.points, 7), rows(orbit.points, 120)
    g, orbit0, _chart = cj.recenter_orbit_at_zero(f, orbit)
    n_values = tuple(range(1, min(len(orbit0.points) - 1, N_CONJ + 1)))
    alpha = orbit.multiplier_estimate
    chart_rows = rows(orbit0.points, 120)
    q = INFINITY if name == "elliptic" else BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
    elliptic = ser.load_descriptor(str(cli.fixture_path("elliptic")))
    c, step = mp.preimage_candidates(f, start)[0], dyn.backward_step(f, start, BOUND)
    return {
        "evaluate_point": lambda: mp.evaluate(f, start),
        "evaluate_rows7": lambda: mp.evaluate(f, rows7.take(ALL)),
        "evaluate_rows120": lambda: mp.evaluate(f, rows120.take(ALL)),
        "chart_rows120": lambda: mp.evaluate(g, chart_rows.take(ALL)),
        "preimages": lambda: mp.preimage_candidates(f, start),
        "siegel_point": lambda: SiegelPoint(c[0], c[1:]),
        "dist_siegel": lambda: geo.dist_siegel(start, step),
        "backward_step": lambda: dyn.backward_step(f, start, BOUND),
        "backward_orbit_n40": lambda: dyn.backward_orbit(f, start, BOUND, N),
        "backward_orbit_n500": lambda: dyn.backward_orbit(f, start, BOUND, 500),
        "backward_orbit_n2000": lambda: dyn.backward_orbit(f, start, BOUND, 2000),
        "multiplier": lambda: dyn.multiplier_at_boundary(f, q),
        "run_conjugation": lambda: cj.run_conjugation(g, orbit0, alpha, n_values=n_values),
        "conjugate_cli": conjugate_job,
        "verify": verify_job,
        "julia": lambda: dyn.julia_inclusion_check(f, q, alpha, n_samples=200, seed=7),
        "growth": lambda: dyn.elliptic_growth_constant(elliptic, 0.6, n_grid=8, n_angles=16),
    }


def measure(repeats: int, fixtures: list[str]) -> dict:
    return {name: {layer: timed_us(fn, repeats) for layer, fn in fixture_jobs(name).items()}
            for name in fixtures}


def summary(lines: list[dict]) -> str:
    """Markdown table: per fixture and layer, the median over each label's lines (lines without layers,
    such as the pair records of a ``BENCH_<pr>.json``, left out)."""
    lines = [rec for rec in lines if "layers" in rec]
    labels = list(dict.fromkeys(rec["label"] for rec in lines))
    if len(labels) != 2:
        raise SystemExit(f"--summary needs lines of exactly two labels, found {labels}")
    out = [f"| fixture | layer | {labels[0]} µs | {labels[1]} µs | change |", "|---|---|---|---|---|"]
    fixtures = lines[0]["layers"]
    for name in fixtures:
        for layer in fixtures[name]:
            a, b = (statistics.median(rec["layers"][name][layer] for rec in lines if rec["label"] == lab)
                    for lab in labels)
            out.append(f"| {name} | {layer} | {a:.4g} | {b:.4g} | {100.0 * (b - a) / a:+.1f}% |")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--fixtures", help="comma list (default: every bundled fixture)")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", help="append one JSON line to this file")
    ap.add_argument("--summary", help="print the two-label table of a file of --out lines")
    args = ap.parse_args(argv)
    if args.summary:
        print(summary([json.loads(s) for s in Path(args.summary).read_text().splitlines() if s.strip()]))
        return 0
    import siegel_dynamics
    from siegel_dynamics.cli import FIXTURES

    layers = measure(args.repeats, args.fixtures.split(",") if args.fixtures else FIXTURES)
    print("| fixture | " + " | ".join(LAYERS) + " |\n|---|" + "---|" * len(LAYERS))
    for name, row in layers.items():
        print(f"| {name} | " + " | ".join(f"{row[layer]:.4g}" for layer in LAYERS) + " |")
    if args.out:
        record = {"label": args.label, "tree": str(Path(siegel_dynamics.__file__).parent),
                  "python": sys.version.split()[0], "numpy": np.__version__,
                  "repeats": args.repeats, "unit": "us", "layers": layers}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
