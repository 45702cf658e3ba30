"""Acceptance suite: every test prints one PASS/FAIL line with its measured
figure of merit before asserting, so a single run documents all twelve
criteria at their pinned tolerances."""

import cmath
import math
import time

import numpy as np

from conftest import random_ball, random_siegel
from siegel_dynamics.cli import main
from siegel_dynamics.conjugation import (
    conjugation_residual,
    default_grid,
    psi_interpolation_check,
    recenter_orbit_at_zero,
    special_backward_construct,
)
from siegel_dynamics.dynamics import backward_orbit, multiplier_at_boundary
from siegel_dynamics.geometry import (
    BoundaryPoint,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
    dist_ball,
    dist_siegel,
    siegel_to_ball,
    Dilation,
    Inversion,
    Rotation,
    Translation,
)
from siegel_dynamics.dynamics import julia_inclusion_check, orbit_asymptotics
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneLinear,
    Lifted,
    QuadraticSiegel,
    evaluate,
    expandable_decompose,
    iterate,
    quadratic_iterate_closed,
)
from test_maps import random_self_map_triple

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
ELLIPTIC = BallProduct((BlaschkeDeg2(0.5), DiskLinear(0.5)))
ONE = SiegelPoint(1.0, (0.0,))
ZERO2 = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
INF = BoundaryPoint(at_infinity=True, model="siegel")


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def test_criterion_01_quadratic_backward_orbit_exact_steps():
    t0 = time.perf_counter()
    orb = backward_orbit(QUADPOL, ONE, 0.34, 40)
    elapsed = time.perf_counter() - t0
    coord_err = max(max(abs(p.z - 2.0 ** -k), abs(p.w[0]))
                    for k, p in enumerate(orb.points))
    step_err = max(abs(s - 1.0 / 3.0) for s in orb.steps)
    ok = coord_err < 1e-12 and step_err < 1e-12 and elapsed < 1.0
    report(1, ok, f"coord err {coord_err:.2e}, step err {step_err:.2e}, {elapsed:.3f}s")


def test_criterion_02_quadratic_multipliers_at_both_fixed_points():
    m0 = multiplier_at_boundary(QUADPOL, ZERO2)
    minf = multiplier_at_boundary(QUADPOL, INF)
    e0, einf = abs(m0 - 2.0), abs(minf - 0.5)
    ok = e0 < 1e-6 and einf < 1e-6
    report(2, ok, f"mult at 0 err {e0:.2e}, at infinity err {einf:.2e}")


def test_criterion_03_closed_iterate_matches_repeated_evaluation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        a, b, c = random_self_map_triple(rng)
        f = QuadraticSiegel(a, b, c)
        for _ in range(100):
            p = random_siegel(rng, t_hi=1.0)
            n = int(rng.integers(1, 21))
            q1 = quadratic_iterate_closed(f, n, p)
            q2 = iterate(f, n, p)
            denom = max(1.0, abs(q2.z), abs(q2.w[0]))
            worst = max(worst, (abs(q1.z - q2.z) + abs(q1.w[0] - q2.w[0])) / denom)
    ok = worst < 1e-10
    report(3, ok, f"max deviation {worst:.2e} over 20 triples x 100 points")


def test_criterion_04_quadratic_inverse_consistency():
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    while count < 1000:
        a, b, c = random_self_map_triple(rng)
        if abs(c) < 0.05:
            continue
        f = QuadraticSiegel(a, b, c)
        p = random_siegel(rng, t_hi=1.0)
        [(z, w)] = f.preimages(p)
        if not z.real - abs(w) ** 2 > 0.0:  # the preimage can leave the domain
            continue
        q = evaluate(f, SiegelPoint(z, (w,)))
        worst = max(worst, abs(q.z - p.z) + abs(q.w[0] - p.w[0]))
        count += 1
    ok = worst < 1e-12
    report(4, ok, f"max roundtrip error {worst:.2e} over 1000 points")


def test_criterion_05_julia_inclusions_zero_violations():
    diag = DiagonalLinear(2.0, (1.0,))
    total = 0
    for f, x, alpha in ((QUADPOL, ZERO2, 2.0), (QUADPOL, INF, 0.5),
                        (diag, ZERO2, 2.0), (diag, INF, 0.5)):
        total += julia_inclusion_check(f, x, alpha, n_samples=2500, seed=5).violations
    ok = total == 0
    report(5, ok, f"{total} violations over 10000 sampled horosphere points")


def test_criterion_06_norm_ratio_inequality():
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(10000):
        dim = int(rng.integers(1, 4))
        z = random_ball(rng, dim)
        w = random_ball(rng, dim)
        d = dist_ball(z, w)
        lhs = (1.0 - w.v.norm()) / (1.0 - z.v.norm())
        rhs = (1.0 + d) / (1.0 - d * z.v.norm())
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    report(6, ok, f"{violations} violations over 10000 ball pairs, N in {{1,2,3}}")


def test_criterion_07_metric_consistency_and_isometry():
    rng = np.random.default_rng(7)
    auto = SiegelAutomorphism((
        Dilation(1.7),
        Translation(0.4, (0.2 - 0.3j,)),
        Rotation((cmath.exp(0.9j),)),
        Inversion(),
    ))
    worst_metric = worst_iso = 0.0
    for _ in range(10000):
        p, q = random_siegel(rng), random_siegel(rng)
        d = dist_siegel(p, q)
        worst_metric = max(worst_metric,
                           abs(d - dist_ball(siegel_to_ball(p), siegel_to_ball(q))))
        worst_iso = max(worst_iso, abs(d - dist_siegel(
            apply_automorphism(auto, p), apply_automorphism(auto, q))))
    ok = worst_metric < 1e-12 and worst_iso < 1e-12
    report(7, ok, f"metric dev {worst_metric:.2e}, isometry dev {worst_iso:.2e}")


def test_criterion_08_backward_orbit_asymptotic_ratios():
    orb = backward_orbit(QUADPOL, ONE, 0.34, 40)
    rep = orbit_asymptotics(orb, SiegelAutomorphism())
    exact = (all(r == 1.0 for r in rep.re_ratio[5:])
             and all(r == 0.0 for r in rep.im_ratio[5:])
             and all(r == 0.0 for r in rep.w_ratio[5:])
             and all(r == 2.0 for r in rep.t_ratio[5:]))
    f = Lifted(HalfPlaneLinear(2.0))
    orb2 = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    _, orb20, _ = recenter_orbit_at_zero(f, orb2)
    rep2 = orbit_asymptotics(orb20, SiegelAutomorphism())
    t_err = max(abs(r - 2.0) for r in rep2.t_ratio[5:])
    ok = exact and t_err < 1e-9
    report(8, ok, f"quadratic ratios exact (1,0,0,2): {exact}, lifted t-ratio err {t_err:.2e}")


def test_criterion_09_conjugation_exactness():
    orb = backward_orbit(QUADPOL, ONE, 0.34, 40)
    g, orb0, _ = recenter_orbit_at_zero(QUADPOL, orb)
    grid = default_grid(2)
    res_q = max(conjugation_residual(g, orb0, n, grid, 2.0) for n in range(1, 16))
    interp = psi_interpolation_check(g, orb0, 20, 2.0, 10)
    interp_err = max(interp.errors)
    f = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(0.7j),))
    orb_d = backward_orbit(f, ONE, 0.34, 40)
    exp = expandable_decompose(f)
    res_d = max(conjugation_residual(f, orb_d, n, grid, 2.0) for n in range(1, 16))
    ok = res_q <= 1e-12 and res_d <= 1e-12 and exp.L == 1 and interp_err <= 1e-10
    report(9, ok, f"residuals {res_q:.2e} / {res_d:.2e}, interpolation err {interp_err:.2e}")


def test_criterion_10_elliptic_fixture_multiplier_and_special_steps():
    orb = backward_orbit(ELLIPTIC, SiegelPoint(3.0, (0.0,)), 0.5, 45)
    # independent 1-D oracle: b(z) = z(z+a)/(1+az) has b'(1) = 2/(1+a)
    oracle = 2.0 / (1.0 + 0.5)
    mult_err = abs(orb.multiplier_estimate - oracle)
    sp = special_backward_construct(ELLIPTIC, INF, oracle, 0.5, 60)
    step_err = abs(sp.steps[-1] - 1.0 / 7.0)
    ok = orb.at_infinity and mult_err < 1e-4 and step_err < 1e-4
    report(10, ok, f"multiplier err {mult_err:.2e} vs 4/3, special step err {step_err:.2e} vs 1/7")


def test_criterion_11_multiplier_sandwich_on_hyperbolic_orbits():
    from siegel_dynamics.dynamics import elliptic_growth_constant
    checked = 0
    failures = []
    cases = [
        (QUADPOL, ONE, 0.34, 2.0),
        (QuadraticSiegel(3.0, 0.5, 1.0), ONE, 0.55, 3.0),
        (DiagonalLinear(2.0, (1.0,)), ONE, 0.34, 2.0),
        (DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(0.3j),)), ONE, 0.34, 2.0),
        (Lifted(HalfPlaneLinear(2.0)), SiegelPoint(2.0, (1.0,)), 0.34, 2.0),
    ]
    for f, seed, a, c_inv in cases:
        orb = backward_orbit(f, seed, a, 40)
        lower = c_inv  # 1/c with the decay constant c = 1/alpha of the linear part
        upper = (1.0 + a) / (1.0 - a)
        checked += 1
        if not (lower - 1e-9 <= orb.multiplier_estimate <= upper + 1e-9):
            failures.append((type(f).__name__, orb.multiplier_estimate, lower, upper))
    # elliptic case: the contraction constant comes from the growth estimate
    growth = elliptic_growth_constant(ELLIPTIC, 0.95)
    orb = backward_orbit(ELLIPTIC, SiegelPoint(3.0, (0.0,)), 0.5, 45)
    lower, upper = 1.0 / growth.c, (1.0 + 0.5) / (1.0 - 0.5)
    checked += 1
    if not (lower - 1e-9 <= orb.multiplier_estimate <= upper + 1e-9):
        failures.append(("BallProduct", orb.multiplier_estimate, lower, upper))
    ok = not failures
    report(11, ok, f"{checked} hyperbolic orbits inside [1/c, (1+a)/(1-a)]; failures: {failures}")


def test_criterion_12_verify_command_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["verify", "--seed", "7", "--samples", "200", "--out", str(out1)])
    code2 = main(["verify", "--seed", "7", "--samples", "200", "--out", str(out2)])
    capsys.readouterr()
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report(12, ok, f"exit codes {code1}/{code2}, reports byte-identical: {b1 == b2}")
