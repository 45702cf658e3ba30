"""Command-line interface: classify, orbit, conjugate, verify.

Reports are JSON with deterministic byte layout (sorted keys, canonical
separators); every report embeds the resolved configuration, the numeric
policy, and the seed.  Seed precedence: --seed flag, then config file, then
the SIEGEL_DYNAMICS_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
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
from .errors import ConstructionFailed, InvalidDescriptor, SiegelDynamicsError
from .policy import DEFAULT_POLICY

FIXTURES = ("quadpol", "lifted2z", "diaglinear", "elliptic")


def _parse_complex(s: str) -> complex:
    return complex(s.replace(" ", "").replace("i", "j"))


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
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("SIEGEL_DYNAMICS_SEED")
    return int(env) if env else 0


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_map(args) -> mp.MapDescriptor:
    if getattr(args, "map", None):
        path = args.map
        if not os.path.exists(path) and path in FIXTURES:
            path = str(fixture_path(path))
        return ser.load_descriptor(path)
    if getattr(args, "A", None) is not None:
        return mp.QuadraticSiegel(args.A, _parse_complex(args.B or "0"),
                                  _parse_complex(args.C or "0"))
    raise InvalidDescriptor("no map given: use --map FILE or --A/--B/--C")


def fixture_path(name: str) -> Path:
    return Path(str(importlib.resources.files("siegel_dynamics") / "fixtures" / f"{name}.json"))


def _emit(report: dict, args) -> None:
    text = ser.dumps_canonical(report)
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    try:
        config = _load_config(args)
        f = _load_map(args)
        report = mp.classify(f)
    except (SiegelDynamicsError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = {"command": "classify", "config": _public_config(args, config),
           "policy": DEFAULT_POLICY.as_dict(), "report": report.as_dict()}
    _emit(out, args)
    return 0 if report.is_self_map else 2


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def cmd_orbit(args) -> int:
    try:
        config = _load_config(args)
        seed = _resolve_seed(args, config)
        f = _load_map(args)
        start = _parse_start(args.start, f.dim)
        if args.backward:
            orbit = dyn.backward_orbit(f, start, args.a, args.n)
            orbit_json = ser.backward_orbit_to_json(orbit)
            csv_text = ser.orbit_to_csv(orbit.points, orbit.steps)
            limit_txt = "infinity" if orbit.at_infinity else (
                "(" + ", ".join(f"{c:.6g}" for c in orbit.limit.v.coords) + ")")
            summary = (f"backward orbit: {len(orbit.points)} points, q = {limit_txt}, "
                       f"alpha ~ {orbit.multiplier_estimate:.9g}, "
                       f"Koranyi M = {orbit.koranyi_certificate:.6g}")
        else:
            orbit = dyn.forward_orbit(f, start, args.n, args.tol)
            orbit_json = ser.forward_orbit_to_json(orbit)
            csv_text = ser.orbit_to_csv(orbit.points, orbit.steps)
            if orbit.dw_estimate is None and orbit.interior_limit is None:
                dw_txt = "undetermined"
            elif orbit.dw_estimate is None:
                dw_txt = "interior fixed point"
            elif orbit.dw_estimate.at_infinity:
                dw_txt = "infinity"
            else:
                dw_txt = "(" + ", ".join(f"{c:.6g}" for c in orbit.dw_estimate.v.coords) + ")"
            summary = f"forward orbit: {len(orbit.points)} points, DW = {dw_txt}"
    except (SiegelDynamicsError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = {"command": "orbit", "config": _public_config(args, config),
              "policy": DEFAULT_POLICY.as_dict(), "seed": seed, "orbit": orbit_json}
    print(summary)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.format in ("json", "both"):
        with open(os.path.join(out, "orbit.json"), "w", encoding="utf-8") as fh:
            fh.write(ser.dumps_canonical(report))
    if args.format in ("csv", "both"):
        with open(os.path.join(out, "orbit.csv"), "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------

def cmd_conjugate(args) -> int:
    try:
        config = _load_config(args)
        seed = _resolve_seed(args, config)
        f = _load_map(args)
        start = _parse_start(args.start or "1,0", f.dim)
        orbit = dyn.backward_orbit(f, start, args.a, args.n)
        alpha = orbit.multiplier_estimate
        g, orbit0, _chart = cj.recenter_orbit_at_zero(f, orbit)
        variant, L, omega = "basic", 0, None
        try:
            exp = mp.expandable_decompose(f.base if isinstance(f, mp.Conjugated) else f)
            if exp.L > 0:
                variant, L, omega = "expandable", exp.L, exp.omega
        except InvalidDescriptor:
            pass
        n_values = tuple(range(1, min(len(orbit0.points) - 1, args.n_conj + 1)))
        run = cj.run_conjugation(g, orbit0, alpha, variant, L, omega, n_values=n_values)
    except ConstructionFailed as err:
        print(f"construction failed: {err}", file=sys.stderr)
        return 3
    except (SiegelDynamicsError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(" n   residual")
    for n, r in zip(run.n_values, run.residuals):
        print(f"{n:3d}  {r:.3e}")
    report = {
        "command": "conjugate",
        "config": _public_config(args, config),
        "policy": DEFAULT_POLICY.as_dict(),
        "seed": seed,
        "alpha": ser.sig17(alpha),
        "variant": run.variant,
        "L": run.L,
        "residuals": [ser.sig17(r) for r in run.residuals],
        "interp_errors": [ser.sig17(e) for e in run.interpolation.errors],
        "grid": [ser.siegel_point_to_json(p) for p in run.grid],
        "psi": [[ser.siegel_point_to_json(a), ser.siegel_point_to_json(b)]
                for a, b in run.psi_samples],
    }
    _emit(report, args)
    return 0 if run.residuals[-1] < args.tol else 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

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


def _verify_checks(fixture_dir: Path, seed: int, samples: int):
    """Yield (name, passed, detail) tuples; raises on unreadable fixtures."""
    rng = np.random.default_rng(seed)
    maps_by_name = {}
    for name in FIXTURES:
        path = fixture_dir / f"{name}.json"
        maps_by_name[name] = ser.load_descriptor(str(path))

    def draw(k: int) -> tuple:
        """One sampled Siegel point's variates, a scalar call each (the metric and isometry
        sections report sampled gaps, so they keep this stream): Re w, Im w ~ N(0, 1)^k,
        log10 t ~ U(-2, 2) as -2 + 4 random() (numpy's uniform), Im z ~ N(0, 1)."""
        re = [rng.standard_normal() for _ in range(k)]
        im = [rng.standard_normal() for _ in range(k)]
        return 10.0 ** (-2.0 + 4.0 * rng.random()), re, im, rng.standard_normal()

    def pairs() -> tuple[geo.SiegelRows, geo.SiegelRows]:
        t, re, im, y = zip(*[draw(1) for _ in range(2 * samples)])
        return tuple(dyn._siegel_samples(t[i::2], re[i::2], im[i::2], 0.5, y[i::2]) for i in (0, 1))

    def ball_batch(m: int, dim: int) -> np.ndarray:
        """m ball points of dim coordinates, cut from Siegel points of dim + 1 and
        scaled by U(0.2, 1): `draw`'s variates as whole columns, then the scales;
        padded with zeros to dim 3, which change no bit of a norm or distance."""
        re, im = rng.standard_normal((m, dim)), rng.standard_normal((m, dim))
        t = [10.0 ** e for e in (-2.0 + 4.0 * rng.random(m)).tolist()]
        p = dyn._siegel_samples(t, re, im, 0.5, rng.standard_normal(m))
        out = np.zeros((m, 3), complex)
        out[:, :dim] = geo.siegel_to_ball_rows(p)[:, :dim] * (0.2 + 0.8 * rng.random(m))[:, None]
        return out

    # metric consistency through the Cayley transform; the worst gap is Python's
    # max over the pairs in order, as the per-point loops took it
    p, q = pairs()
    d_ball = geo.dist_ball_rows(geo.siegel_to_ball_rows(p), geo.siegel_to_ball_rows(q))
    gap = max([0.0, *np.abs(geo.dist_siegel(p, q) - d_ball).tolist()])
    yield "metric_consistency", gap < 1e-12, ser.sig17(gap)

    # automorphism isometry
    auto = geo.SiegelAutomorphism((
        geo.Dilation(2.5),
        geo.Translation(0.7, (0.3 - 0.2j,)),
        geo.Rotation((complex(math.cos(1.0), math.sin(1.0)),),),
        geo.Inversion(),
    ))
    p, q = pairs()
    d_auto = geo.dist_siegel(*(geo.apply_automorphism(auto, r) for r in (p, q)))
    gap = max([0.0, *np.abs(geo.dist_siegel(p, q) - d_auto).tolist()])
    yield "automorphism_isometry", gap < 1e-12, ser.sig17(gap)

    # norm-ratio bound (1-||W||)/(1-||Z||) <= (1+d)/(1-d||Z||) on pairs of dim 1..3:
    # every pair's dimension is drawn first, then per dimension the Z batch and the
    # W batch; padded to dim 3, all the pairs are measured at once
    batches = [ball_batch(m, dim) for dim, m in zip(*np.unique(rng.integers(1, 4, size=samples),
                                                               return_counts=True)) for _ in "ZW"]
    zb, wb = np.concatenate(batches[0::2]), np.concatenate(batches[1::2])
    d = geo.dist_ball_rows(zb, wb)
    zn, wn = (geo.ball_norm_rows(geo.ComplexRows.columns(b)) for b in (zb, wb))
    lhs = (1.0 - wn) / (1.0 - zn)
    rhs = (1.0 + d) / (1.0 - d * zn)
    violations = int(np.count_nonzero(lhs > rhs * (1.0 + 1e-10)))
    yield "distance_ratio_bound", violations == 0, str(violations)

    # Julia-type inclusions on the quadratic and diagonal fixtures
    quadpol = maps_by_name["quadpol"]
    diag = maps_by_name["diaglinear"]
    total_viol = 0
    for f, x, alpha in ((quadpol, mp.ORIGIN2, 2.0), (quadpol, geo.INFINITY, 0.5),
                        (diag, mp.ORIGIN2, 2.0), (diag, geo.INFINITY, 0.5)):
        rep = dyn.julia_inclusion_check(f, x, alpha, n_samples=samples, seed=seed)
        total_viol += rep.violations
    yield "julia_inclusions", total_viol == 0, str(total_viol)

    # backward orbit of the quadratic fixture: exactness, decay, asymptotics
    orbit = dyn.backward_orbit(quadpol, geo.SiegelPoint(1.0, (0.0,)), 0.34, 40)
    exact = all(geo.dist_siegel(mp.evaluate(quadpol, orbit.points[k + 1]), orbit.points[k])
                < DEFAULT_POLICY.orbit_tol for k in range(len(orbit.points) - 1))
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


def cmd_verify(args) -> int:
    try:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        config = _load_config(args)
        seed = _resolve_seed(args, config)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    fixture_dir = Path(args.fixtures) if args.fixtures else fixture_path("quadpol").parent
    results = []
    try:
        for name, ok, detail in _verify_checks(fixture_dir, seed, args.samples):
            results.append({"check": name, "pass": bool(ok), "detail": detail})
    except (InvalidDescriptor, OSError, json.JSONDecodeError) as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return 4
    all_pass = all(r["pass"] for r in results)
    report = {"command": "verify", "config": _public_config(args, config),
              "policy": DEFAULT_POLICY.as_dict(), "seed": seed,
              "results": results, "pass": all_pass}
    _emit(report, args)
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
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", help="JSON config file (flags take precedence)")
    common.add_argument("--out", help="output directory")
    quadratic = argparse.ArgumentParser(add_help=False, parents=[common])
    quadratic.add_argument("--A", type=float)
    quadratic.add_argument("--B", type=str)
    quadratic.add_argument("--C", type=str)

    p_cls = sub.add_parser("classify", parents=[quadratic], help="classify a quadratic self-map")
    p_cls.set_defaults(func=cmd_classify)

    p_orb = sub.add_parser("orbit", parents=[quadratic], help="compute a forward or backward orbit")
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

    p_cnj = sub.add_parser("conjugate", parents=[quadratic],
                           help="conjugate a map to its linear model at a BRFP")
    p_cnj.add_argument("--start", help="backward-orbit seed z_re,z_im[,w...]")
    p_cnj.add_argument("--a", type=float, default=0.34)
    p_cnj.add_argument("--n", type=int, default=40)
    p_cnj.add_argument("--n-conj", dest="n_conj", type=int, default=15)
    p_cnj.add_argument("--tol", type=float, default=1e-3)
    p_cnj.set_defaults(func=cmd_conjugate)

    p_ver = sub.add_parser("verify", parents=[common], help="run the invariant verification suite")
    p_ver.add_argument("--fixtures", help="directory with fixture descriptors")
    p_ver.add_argument("--samples", type=int, default=2000)
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
