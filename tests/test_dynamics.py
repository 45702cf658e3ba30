import math

import numpy as np
import pytest

from siegel_dynamics.errors import NoBackwardStep
from siegel_dynamics.dynamics import (
    BackwardOrbit,
    _newton_preimage,
    angular_ratio_diagnostics,
    backward_orbit,
    backward_step,
    elliptic_growth_constant,
    forward_orbit,
    julia_inclusion_check,
    multiplier_at_boundary,
    orbit_asymptotics,
    verify_defect_decay,
)
from siegel_dynamics.geometry import (
    BallPoint,
    BoundaryPoint,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    Translation,
    cayley_to_siegel,
    dist_siegel,
    defect,
    recentering_translation,
)
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneLinear,
    QuadraticSiegel,
    evaluate,
    lift_one_dim,
)

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
ELLIPTIC = BallProduct((BlaschkeDeg2(0.5), DiskLinear(0.5)))
ZERO2 = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
INF = BoundaryPoint(at_infinity=True, model="siegel")


# ---------------------------------------------------------------------------
# forward orbits
# ---------------------------------------------------------------------------

def test_forward_orbit_quadpol_to_infinity():
    orb = forward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 20)
    assert orb.converged and orb.dw_estimate.at_infinity
    # axis dynamics is exactly z -> 2z
    assert orb.points[3].z == 8.0


def test_forward_orbit_contracting_quadratic_to_zero():
    orb = forward_orbit(QuadraticSiegel(0.5, 0.25, 0.5), SiegelPoint(1.0, (0.3,)), 200)
    assert orb.converged
    assert not orb.dw_estimate.at_infinity
    assert all(abs(c) < 1e-4 for c in orb.dw_estimate.v.coords)


def test_forward_orbit_diagonal_to_zero():
    orb = forward_orbit(DiagonalLinear(0.5, (0.5,)), SiegelPoint(1.0, (0.0,)), 200)
    assert orb.points[4].z == 0.5 ** 4
    assert orb.converged and orb.dw_estimate.v.coords == (0.0, 0.0)


def test_forward_steps_non_increasing():
    orb = forward_orbit(QuadraticSiegel(0.5, 0.25, 0.5), SiegelPoint(2.0, (0.5,)), 100)
    for k in range(len(orb.steps) - 1):
        assert orb.steps[k + 1] <= orb.steps[k] + 1e-10


# ---------------------------------------------------------------------------
# boundary multiplier
# ---------------------------------------------------------------------------

def test_multiplier_quadpol_at_zero_and_infinity():
    assert abs(multiplier_at_boundary(QUADPOL, ZERO2, 0.5, 40) - 2.0) < 1e-6
    assert abs(multiplier_at_boundary(QUADPOL, INF, 0.5, 40) - 0.5) < 1e-6


def test_multiplier_linear_model_is_alpha():
    for alpha in (1.5, 2.0, 3.0):
        eta = DiagonalLinear(alpha, (math.sqrt(alpha),))
        assert abs(multiplier_at_boundary(eta, ZERO2, 0.5, 40) - alpha) < 1e-9


def test_multiplier_elliptic_fixture_matches_derivative_oracle():
    qb = BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    got = multiplier_at_boundary(ELLIPTIC, qb, 0.5, 40)
    assert abs(got - 4.0 / 3.0) < 1e-6


def test_multiplier_divergent_reported_infinite():
    # infinity is not a fixed point of the contracting diagonal map in the
    # multiplier sense with finite ratio limit: (z/2, w/2) halves defects
    f = DiagonalLinear(0.5, (0.5,))
    got = multiplier_at_boundary(f, ZERO2, 0.5, 40)
    assert abs(got - 0.5) < 1e-6  # attracting: multiplier below 1
    # at a vertex whose radial images stay interior the ratio diverges
    q_off = BoundaryPoint(v=CVector((0.0, 1.0)), model="ball")
    got2 = multiplier_at_boundary(ELLIPTIC, q_off, 0.5, 40)
    assert got2 > 10 or math.isinf(got2)


# ---------------------------------------------------------------------------
# backward steps and orbits
# ---------------------------------------------------------------------------

def test_backward_step_quadpol_axis():
    p = backward_step(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.4)
    assert p.coords == (0.5, 0.0)
    assert abs(dist_siegel(SiegelPoint(1.0, (0.0,)), p) - 1 / 3) < 1e-12


def test_backward_step_lifted_closed_form():
    f = lift_one_dim(HalfPlaneLinear(2.0))
    zn = SiegelPoint(3.0, (1.0,))
    p = backward_step(f, zn, 0.5)
    assert abs(p.z - (3.0 + 1.0) / 2) < 1e-12  # (z0 + w0^2)/2
    assert p.w[0] == 1.0


def test_backward_step_respects_step_bound():
    f = DiagonalLinear(2.0, (1.0,))
    zn = SiegelPoint(1.0, (0.1,))
    p = backward_step(f, zn, 0.4)
    assert p.z == 0.5 and p.w[0] == 0.1
    with pytest.raises(NoBackwardStep):
        backward_step(f, zn, 0.1)  # the only preimage is farther than 0.1


def test_newton_fallback_matches_closed_form():
    target = SiegelPoint(1.0, (0.05,))
    got = _newton_preimage(QUADPOL, target, target)
    img = evaluate(QUADPOL, got)
    assert abs(img.z - target.z) < 1e-9
    assert abs(img.w[0] - target.w[0]) < 1e-9


def test_backward_orbit_quadpol_axis():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    assert len(orb.points) == 41
    for k, p in enumerate(orb.points):
        assert p.z == 2.0 ** -k and p.w[0] == 0.0
    assert all(abs(s - 1 / 3) < 1e-12 for s in orb.steps)
    assert not orb.at_infinity
    assert all(abs(c) < 1e-9 for c in orb.limit.v.coords)
    assert abs(orb.multiplier_estimate - 2.0) < 1e-12


def test_backward_orbit_lifted_constant_step():
    f = lift_one_dim(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    for k, p in enumerate(orb.points):
        assert abs(p.z - (1.0 + 2.0 ** -k)) < 1e-12
        assert p.w[0] == 1.0
    assert all(abs(s - 1 / 3) < 1e-12 for s in orb.steps)
    assert abs(orb.limit.v.coords[0] - 1.0) < 1e-9
    assert abs(orb.limit.v.coords[1] - 1.0) < 1e-9


def test_backward_orbit_elliptic_fixture():
    p0 = cayley_to_siegel(BallPoint(CVector((0.5, 0.0))))
    orb = backward_orbit(ELLIPTIC, p0, 0.45, 60)
    assert orb.at_infinity
    assert abs(orb.multiplier_estimate - 4.0 / 3.0) < 1e-4


def test_backward_orbit_exactness_and_monotonicity():
    for f, seed, a in ((QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34),
                       (lift_one_dim(HalfPlaneLinear(2.0)), SiegelPoint(2.0, (1.0,)), 0.4)):
        orb = backward_orbit(f, seed, a, 30)
        for k in range(len(orb.points) - 1):
            img = evaluate(f, orb.points[k + 1])
            assert abs(img.z - orb.points[k].z) < 1e-10 * (1 + abs(orb.points[k].z))
            assert orb.steps[k] <= a * (1 + 1e-12)
            if k + 1 < len(orb.steps):
                assert orb.steps[k + 1] >= orb.steps[k] - 1e-10
        # finite-limit orbits have strictly decreasing defects
        for k in range(len(orb.defects) - 1):
            assert orb.defects[k + 1] < orb.defects[k]


def test_multiplier_sandwich_on_hyperbolic_orbits():
    cases = [
        (QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 0.5),
        (lift_one_dim(HalfPlaneLinear(2.0)), SiegelPoint(2.0, (1.0,)), 0.34, 0.5),
        (DiagonalLinear(2.0, (1.0,)), SiegelPoint(1.0, (0.0,)), 0.34, 0.5),
    ]
    for f, seed, a, c in cases:
        orb = backward_orbit(f, seed, a, 40)
        assert 1.0 / c <= orb.multiplier_estimate * (1 + 1e-9)
        assert orb.multiplier_estimate <= (1 + a) / (1 - a) + 1e-9


def test_koranyi_certificate_finite():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    assert math.isfinite(orb.koranyi_certificate)
    assert orb.koranyi_certificate >= 1.0


# ---------------------------------------------------------------------------
# defect decay
# ---------------------------------------------------------------------------

def test_defect_decay_quadpol_equality_branch():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 30)
    rep = verify_defect_decay(orb, 0.5)
    assert rep.ok and abs(rep.min_margin) < 1e-12


def test_defect_decay_loose_bound():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 20)
    assert verify_defect_decay(orb, 0.99).ok


def test_defect_decay_negative_control():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 20)
    corrupted = BackwardOrbit(
        points=orb.points, steps=orb.steps,
        defects=tuple(reversed(orb.defects)),
        step_bound=orb.step_bound, limit=orb.limit,
        multiplier_estimate=orb.multiplier_estimate,
        koranyi_certificate=orb.koranyi_certificate,
        at_infinity=orb.at_infinity)
    assert not verify_defect_decay(corrupted, 0.5).ok


# ---------------------------------------------------------------------------
# Julia-type inclusions
# ---------------------------------------------------------------------------

def test_julia_quadpol_both_fixed_points():
    assert julia_inclusion_check(QUADPOL, ZERO2, 2.0, 2000, seed=1).violations == 0
    assert julia_inclusion_check(QUADPOL, INF, 0.5, 2000, seed=2).violations == 0


def test_julia_diagonal_and_identity():
    diag = DiagonalLinear(2.0, (1.0,))
    assert julia_inclusion_check(diag, ZERO2, 2.0, 2000, seed=3).violations == 0
    assert julia_inclusion_check(diag, INF, 0.5, 2000, seed=4).violations == 0
    ident = DiagonalLinear(1.0, (1.0,))
    rep = julia_inclusion_check(ident, INF, 1.0, 500, seed=5)
    assert rep.violations == 0
    assert abs(rep.max_quotient_ratio - 1.0) < 1e-12  # inclusion exact


@pytest.mark.parametrize("n_samples", [0, -5])
def test_julia_check_needs_a_sample(n_samples):
    # a report on no sampled point would read as a pass
    with pytest.raises(ValueError, match="n_samples"):
        julia_inclusion_check(QUADPOL, ZERO2, 2.0, n_samples, seed=1)


@pytest.mark.parametrize("alpha", [0.0, -2.0, float("nan")])
def test_julia_check_needs_a_positive_multiplier(alpha):
    # alpha = 0 used to raise a raw ZeroDivisionError, a negative alpha to pass
    with pytest.raises(ValueError, match="alpha"):
        julia_inclusion_check(QUADPOL, ZERO2, alpha, 10, seed=1)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotics_quadpol_exact():
    orb = backward_orbit(QUADPOL, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    rep = orbit_asymptotics(orb, SiegelAutomorphism())
    assert all(r == 1.0 for r in rep.re_ratio)
    assert all(r == 0.0 for r in rep.im_ratio)
    assert all(r == 0.0 for r in rep.w_ratio)
    assert all(r == 2.0 for r in rep.t_ratio)
    assert all(rep.limits_ok.values()) and rep.special


def test_asymptotics_recentered_curve_point():
    # seed the conjugated orbit near the fixed-curve point (r^2, i r)
    r = 0.8
    q = BoundaryPoint(v=CVector((r * r, 1j * r)), model="siegel")
    h = recentering_translation(q)
    from siegel_dynamics.geometry import apply_automorphism, invert_automorphism
    seed = apply_automorphism(invert_automorphism(h), SiegelPoint(1.0, (0.0,)))
    orb = backward_orbit(QUADPOL, seed, 0.34, 40)
    rep = orbit_asymptotics(orb, h)
    assert all(abs(x - 1.0) < 1e-9 for x in rep.re_ratio)
    assert all(abs(x) < 1e-9 for x in rep.im_ratio)
    assert all(abs(x) < 1e-9 for x in rep.w_ratio)
    assert all(abs(x - 2.0) < 1e-9 for x in rep.t_ratio)


def test_asymptotics_lifted_t_ratio():
    f = lift_one_dim(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    h = recentering_translation(orb.limit)
    rep = orbit_asymptotics(orb, h)
    for n in range(5, len(rep.t_ratio)):
        assert abs(rep.t_ratio[n] - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# elliptic growth constant
# ---------------------------------------------------------------------------

def test_elliptic_growth_scalar_half_map():
    f = BallProduct((DiskLinear(0.5), DiskLinear(0.5)))
    r0 = 0.5
    rep = elliptic_growth_constant(f, r0)
    assert not rep.flagged
    assert abs(rep.c - (1 - r0) / (1 - r0 / 2)) < 1e-12


def test_elliptic_growth_fixture_contracts():
    rep = elliptic_growth_constant(ELLIPTIC, 0.5)
    assert not rep.flagged and rep.c < 1.0
    # denser grid as oracle: estimates agree to sampling resolution
    dense = elliptic_growth_constant(ELLIPTIC, 0.5, n_grid=64, n_angles=96)
    assert abs(rep.c - dense.c) < 0.05


def test_elliptic_growth_rotation_flagged():
    rot = BallProduct((DiskLinear(1.0), DiskLinear(1j)))
    rep = elliptic_growth_constant(rot, 0.5)
    assert rep.flagged


@pytest.mark.parametrize("grid", [{"n_grid": 0}, {"n_angles": 0}, {"n_grid": -1},
                                  {"n_angles": -3}])
def test_elliptic_growth_needs_a_grid(grid):
    # an empty grid has no point to take M(r) from
    with pytest.raises(ValueError, match="n_grid and n_angles"):
        elliptic_growth_constant(ELLIPTIC, 0.5, **grid)


def test_elliptic_growth_flag_is_a_bool():
    rep = elliptic_growth_constant(ELLIPTIC, 0.5, n_grid=4, n_angles=8)
    assert type(rep.flagged) is bool and rep.flagged is False
    assert type(rep.c) is float


# ---------------------------------------------------------------------------
# angular diagnostics
# ---------------------------------------------------------------------------

def test_angular_quadpol_radial_at_zero():
    samples = [SiegelPoint(2.0 ** -k, (0.0,)) for k in range(1, 25)]
    rep = angular_ratio_diagnostics(QUADPOL, ZERO2, samples)
    assert rep.bounded and not rep.rejected
    assert abs(rep.radial_limit - 2.0) < 1e-6
    assert all(t < 1e-12 for t in rep.tangential_ratios)


def test_angular_identity_and_linear_model():
    ident = DiagonalLinear(1.0, (1.0,))
    samples = [SiegelPoint(2.0 ** -k, (0.0,)) for k in range(1, 20)]
    rep = angular_ratio_diagnostics(ident, ZERO2, samples)
    assert all(abs(r - 1.0) < 1e-12 for r in rep.radial_ratios)
    eta = DiagonalLinear(3.0, (math.sqrt(3.0),))
    deep = [SiegelPoint(2.0 ** -k, (0.0,)) for k in range(1, 31)]
    rep2 = angular_ratio_diagnostics(eta, ZERO2, deep)
    assert abs(rep2.radial_limit - 3.0) < 1e-6


def test_angular_rejects_samples_outside_region():
    # strongly tangential points fall outside a narrow Koranyi region
    samples = [SiegelPoint(2.0 ** -k + 1j * 50.0, (0.0,)) for k in range(1, 10)]
    rep = angular_ratio_diagnostics(QUADPOL, ZERO2, samples, amplitude=2.0)
    assert rep.rejected
