"""Command-line interface: classify, orbit, conjugate, verify.

Reports are JSON with deterministic byte layout (sorted keys, canonical
separators); `main` starts every report with the command, the resolved
configuration, the numeric policy and (except for classify) the seed.  Seed
precedence: --seed flag, then config file, then the SIEGEL_DYNAMICS_SEED
environment variable, then 0; a seed is a non-negative integer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import conjugation as cj
from . import dynamics as dyn
from . import geometry as geo
from . import maps as mp
from . import serialize as ser
from .errors import InvalidDescriptor, SiegelDynamicsError
from .policy import DEFAULT_POLICY

FIXTURES = ("quadpol", "lifted2z", "diaglinear", "elliptic")
FIXTURE_DIR = Path(__file__).parent / "fixtures"  # the bundled fixtures, beside this module


def _parse_complex(s: str) -> complex:
    s = s.replace(" ", "")  # Python's form, or with a final i for j: 1+2i, -0.5i, inf
    return complex(s[:-1] + "j" if s.endswith("i") else s)


def _parse_start(s: str, dim: int = 2) -> geo.SiegelPoint:
    """Parse z_re,z_im[,w_re,w_im...]; missing tangential coordinates are 0."""
    vals = [float(x) for x in s.split(",")]
    if len(vals) % 2 == 1:
        vals.append(0.0)
    cs = [complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    while len(cs) < dim:
        cs.append(0.0 + 0.0j)
    return geo.SiegelPoint(cs[0], tuple(cs[1:]))


def _resolve_seed(args, config: dict) -> int:
    """The first seed given, a non-negative integer (in a config, a JSON one, not a bool)."""
    if args.seed is not None:
        where, seed = "--seed", args.seed
    elif "seed" in config:
        where, seed = f"config {args.config}", config["seed"]
    else:
        where, seed = "SIEGEL_DYNAMICS_SEED", os.environ.get("SIEGEL_DYNAMICS_SEED") or "0"
        with contextlib.suppress(ValueError):  # text that is no integer stays a str, refused below
            seed = int(seed)
    if type(seed) is not int:
        raise ValueError(f"{where}: seed {json.dumps(seed)} is not an integer")
    if seed < 0:
        raise ValueError(f"{where}: seed {seed} is negative")
    return seed


def _load_config(args) -> dict:
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} is not a JSON object")
    return config


def _load_map(args) -> mp.MapDescriptor:
    if args.map:
        path = args.map
        if not os.path.exists(path) and path in FIXTURES:
            path = str(fixture_path(path))
        return ser.load_descriptor(path)
    if args.A is not None:
        return mp.QuadraticSiegel(args.A, _parse_complex(args.B or "0"),
                                  _parse_complex(args.C or "0"))
    raise InvalidDescriptor("no map given: use --map FILE or --A/--B/--C")


def _public_config(args, config: dict) -> dict:
    keep = {}
    for key in ("map", "A", "B", "C", "start", "a", "n", "tol", "seed", "format",
                "fixtures", "n_conj", "samples"):
        val = getattr(args, key, None)
        if val is not None:
            keep[key] = val
    if config:
        keep["config_file"] = config
    return keep


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def _emit(report: dict, args, table: str = "") -> None:
    """Write report.json under --out, if given, then print the table and the
    report: a failing --out leaves stdout empty."""
    text = ser.dumps_canonical(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(table + text)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args, head: dict) -> int:
    report = mp.classify(_load_map(args))
    _emit(head | {"report": report.as_dict()}, args)
    return 0 if report.is_self_map else 2


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def _boundary_text(q: geo.BoundaryPoint) -> str:
    return "infinity" if q.at_infinity else "(" + ", ".join(f"{c:.6g}" for c in q.v.coords) + ")"


def cmd_orbit(args, head: dict) -> int:
    f = _load_map(args)
    start = _parse_start(args.start, f.dim)
    if args.backward:
        orbit = dyn.backward_orbit(f, start, args.a, args.n)
        orbit_json = ser.backward_orbit_to_json(orbit)
        summary = (f"backward orbit: {len(orbit.points)} points, q = {_boundary_text(orbit.limit)}, "
                   f"alpha ~ {orbit.multiplier_estimate:.9g}, "
                   f"Koranyi M = {orbit.koranyi_certificate:.6g}")
    else:
        orbit = dyn.forward_orbit(f, start, args.n, args.tol)
        orbit_json = ser.forward_orbit_to_json(orbit)
        dw_txt = (_boundary_text(orbit.dw_estimate) if orbit.dw_estimate is not None
                  else "undetermined" if orbit.interior_limit is None else "interior fixed point")
        summary = f"forward orbit: {len(orbit.points)} points, DW = {dw_txt}"
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.format in ("json", "both"):
        with open(os.path.join(out, "orbit.json"), "w", encoding="utf-8") as fh:
            fh.write(ser.dumps_canonical(head | {"orbit": orbit_json}))
    if args.format in ("csv", "both"):
        with open(os.path.join(out, "orbit.csv"), "w", encoding="utf-8") as fh:
            fh.write(ser.orbit_to_csv(orbit.points, orbit.steps))
    print(summary)
    return 0


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def cmd_conjugate(args, head: dict) -> int:
    f = _load_map(args)
    start = _parse_start(args.start or "1,0", f.dim)
    orbit = dyn.backward_orbit(f, start, args.a, args.n)
    alpha = orbit.multiplier_estimate
    g, orbit0, _chart = cj.recenter_orbit_at_zero(f, orbit)
    n_values = tuple(range(1, min(len(orbit0.points) - 1, args.n_conj + 1)))
    run = cj.run_conjugation(g, orbit0, alpha, n_values=n_values)
    report = head | {
        "alpha": ser.sig17(alpha),
        "variant": "expandable" if run.omega is not None else "basic",
        "L": run.L,
        "residuals": [ser.sig17(r) for r in run.residuals],
        "interp_errors": [ser.sig17(e) for e in run.interpolation.errors],
        "grid": [ser.siegel_point_to_json(p) for p in run.grid],
        "psi": [[ser.siegel_point_to_json(a), ser.siegel_point_to_json(b)]
                for a, b in run.psi_samples],
    }
    table = " n   residual\n" + "".join(f"{n:3d}  {r:.3e}\n" for n, r in zip(run.n_values, run.residuals))
    _emit(report, args, table)
    return 0 if run.residuals[-1] < args.tol else 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks(fixture_dir: Path, seed: int, samples: int):
    """Yield (name, passed, detail) tuples; raises on unreadable fixtures."""
    rng = np.random.default_rng(seed)
    maps_by_name = {name: ser.load_descriptor(str(fixture_dir / f"{name}.json")) for name in FIXTURES}

    def halves(rows: geo.SiegelRows) -> tuple[geo.SiegelRows, geo.SiegelRows]:
        return rows.take(slice(samples)), rows.take(slice(samples, None))

    # metric consistency through the Cayley transform; the worst gap is Python's
    # max over the pairs in order, as the per-point loops took it
    pq = dyn._pair_samples(rng, samples)
    d_ball = geo.dist_ball_rows(*np.split(geo.siegel_to_ball_rows(pq), 2))
    gap = max([0.0, *np.abs(geo.dist_siegel(*halves(pq)) - d_ball).tolist()])
    yield "metric_consistency", gap < 1e-12, ser.sig17(gap)

    # automorphism isometry
    auto = geo.SiegelAutomorphism((
        geo.Dilation(2.5),
        geo.Translation(0.7, (0.3 - 0.2j,)),
        geo.Rotation((complex(math.cos(1.0), math.sin(1.0)),),),
        geo.Inversion(),
    ))
    pq = dyn._pair_samples(rng, samples)
    d_auto = geo.dist_siegel(*halves(geo.apply_automorphism(auto, pq)))
    gap = max([0.0, *np.abs(geo.dist_siegel(*halves(pq)) - d_auto).tolist()])
    yield "automorphism_isometry", gap < 1e-12, ser.sig17(gap)

    # norm-ratio bound (1-||W||)/(1-||Z||) <= (1+d)/(1-d||Z||) on pairs of dim 1..3: every pair's
    # dimension is drawn first, then per dimension the Z batch and the W batch (`_pair_samples`'s variates
    # as whole columns, Re w and Im w row by row, then U(0.2, 1) scales); one batch of Siegel points gives
    # ball points of dim 3, w and ball +0.0 from the row's dimension on (no bit of a norm or distance moves)
    counts = np.bincount(rng.integers(1, 4, size=samples), minlength=4)[1:].tolist()
    batches = [(np.full(m, dim), rng.standard_normal(m * dim), rng.standard_normal(m * dim), rng.random(m),
                rng.standard_normal(m), rng.random(m)) for dim, m in enumerate(counts, 1) for _ in "ZW"]
    dims, re, im, u, y, scale = map(np.concatenate, zip(*batches[0::2], *batches[1::2]))
    inside, w = np.arange(3) < dims[:, None], np.zeros((2, 2 * samples, 3))
    w[:, inside] = re, im
    p = dyn._siegel_samples([10.0 ** e for e in (-2.0 + 4.0 * u).tolist()], *w, 0.5, y)
    ball = geo.siegel_to_ball_rows(p)[:, :3] * (0.2 + 0.8 * scale)[:, None]
    ball[~inside] = 0.0
    zb, wb = np.split(ball, 2)
    d = geo.dist_ball_rows(zb, wb)
    zn, wn = (geo.ball_norm_rows(geo.ComplexRows.columns(b)) for b in (zb, wb))
    lhs = (1.0 - wn) / (1.0 - zn)
    rhs = (1.0 + d) / (1.0 - d * zn)
    violations = int(np.count_nonzero(lhs > rhs * (1.0 + 1e-10)))
    yield "distance_ratio_bound", violations == 0, str(violations)

    # Julia-type inclusions on the quadratic and diagonal fixtures, on one draw per map dimension
    quadpol, diag = maps_by_name["quadpol"], maps_by_name["diaglinear"]
    reports = dyn._julia_reports((quadpol, diag), ((mp.ORIGIN2, 2.0), (geo.INFINITY, 0.5)), samples, seed)
    total_viol = sum(rep.violations for rep in reports)
    yield "julia_inclusions", total_viol == 0, str(total_viol)

    # backward orbit of the quadratic fixture: exactness, decay, asymptotics.  d(f(Z_{k+1}), Z_k) is one
    # batch; the first k where it fails, or a point fails, is checked alone, as a loop meets it first
    orbit = dyn.backward_orbit(quadpol, geo.SiegelPoint(1.0, (0.0,)), 0.34, 40)
    pts, tol, rows = orbit.points, DEFAULT_POLICY.orbit_tol, geo.SiegelRows.of(orbit.points)
    d, _ = dyn._until_failure(lambda m: geo.dist_siegel(mp.evaluate(quadpol, rows.take(slice(1, m + 1))),
                                                        rows.take(slice(m))).tolist(), len(pts) - 1)
    k = next((k for k, x in enumerate(d) if not x < tol), len(d))
    exact = k == len(pts) - 1 or geo.dist_siegel(mp.evaluate(quadpol, pts[k + 1]), pts[k]) < tol
    yield "backward_exactness", exact, f"{len(orbit.points)} points"
    decay = dyn.verify_defect_decay(orbit, 0.5)
    yield "defect_decay", decay.ok, ser.sig17(decay.min_margin)
    asym = dyn.orbit_asymptotics(orbit, geo.SiegelAutomorphism())
    yield "asymptotics", all(asym.limits_ok.values()) and asym.special, str(asym.limits_ok)
    sandwich = 1.0 / 0.5 <= orbit.multiplier_estimate <= (1.0 + 0.34) / (1.0 - 0.34) + 1e-9
    yield "multiplier_sandwich", sandwich, ser.sig17(orbit.multiplier_estimate)

    # conjugation residual on the quadratic fixture
    g, orbit0, _ = cj.recenter_orbit_at_zero(quadpol, orbit)
    res = cj.conjugation_residual(g, orbit0, 10, cj.default_grid(2), 2.0)
    yield "conjugation_residual", res <= 1e-12, ser.sig17(res)


def cmd_verify(args, head: dict) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    fixture_dir = Path(args.fixtures) if args.fixtures else fixture_path("quadpol").parent
    results = []
    try:
        for name, ok, detail in _verify_checks(fixture_dir, head["seed"], args.samples):
            results.append({"check": name, "pass": bool(ok), "detail": detail})
    except (InvalidDescriptor, OSError) as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return 4
    all_pass = all(r["pass"] for r in results)
    _emit(head | {"results": results, "pass": all_pass}, args)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegel-dynamics",
        description="Iteration of holomorphic self-maps of the unit ball and Siegel domain")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--map", help="map descriptor JSON file or bundled fixture name")
    common.add_argument("--config", help="JSON config file (flags take precedence)")
    common.add_argument("--out", help="output directory")
    quadratic = argparse.ArgumentParser(add_help=False, parents=[common])
    quadratic.add_argument("--A", type=float)
    quadratic.add_argument("--B", type=str)
    quadratic.add_argument("--C", type=str)
    seeded = argparse.ArgumentParser(add_help=False)  # classify takes no seed
    seeded.add_argument("--seed", type=int, default=None)

    p_cls = sub.add_parser("classify", parents=[quadratic], help="classify a quadratic self-map")
    p_cls.set_defaults(func=cmd_classify)

    p_orb = sub.add_parser("orbit", parents=[quadratic, seeded], help="compute a forward or backward orbit")
    group = p_orb.add_mutually_exclusive_group()
    group.add_argument("--forward", action="store_true")
    group.add_argument("--backward", action="store_true")
    p_orb.add_argument("--start", required=True,
                       help="z_re,z_im[,w_re,w_im...]")
    p_orb.add_argument("--a", type=float, default=0.34, help="backward step bound")
    p_orb.add_argument("--n", type=int, default=40)
    p_orb.add_argument("--tol", type=float, default=1e-9)
    p_orb.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p_orb.set_defaults(func=cmd_orbit)

    p_cnj = sub.add_parser("conjugate", parents=[quadratic, seeded],
                           help="conjugate a map to its linear model at a BRFP")
    p_cnj.add_argument("--start", help="backward-orbit seed z_re,z_im[,w...]")
    p_cnj.add_argument("--a", type=float, default=0.34)
    p_cnj.add_argument("--n", type=int, default=40)
    p_cnj.add_argument("--n-conj", dest="n_conj", type=int, default=15)
    p_cnj.add_argument("--tol", type=float, default=1e-3)
    p_cnj.set_defaults(func=cmd_conjugate)

    p_ver = sub.add_parser("verify", parents=[common, seeded], help="run the invariant verification suite")
    p_ver.add_argument("--fixtures", help="directory with fixture descriptors")
    p_ver.add_argument("--samples", type=int, default=2000)
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state."""
    return build_parser()


def _glue_values(argv: list[str]) -> list[str]:
    """`--B -0.5i` as `--B=-0.5i`: argparse takes a value such as -0.5i, -1e-3 or -inf for an option."""
    out: list[str] = []
    for a in argv:
        if out and out[-1] in ("--A", "--B", "--C") and a.startswith("-") and not a.startswith("--"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command; package, OS and value errors print one `error:` line and exit 1."""
    args = _parser().parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _load_config(args)
        head = {"command": args.command, "config": _public_config(args, config),
                "policy": DEFAULT_POLICY.as_dict()}
        if args.command != "classify":
            head["seed"] = _resolve_seed(args, config)
        return args.func(args, head)
    except (SiegelDynamicsError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
