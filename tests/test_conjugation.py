import cmath
import math

import numpy as np
import pytest

from siegel_dynamics.conjugation import (
    build_tau,
    conjugation_residual,
    default_grid,
    eta_model,
    gn_diagnostic,
    project_first,
    psi_approx,
    psi_interpolation_check,
    recenter_orbit_at_zero,
    run_conjugation,
    special_backward_construct,
    tau_limit_diagnostics,
)
from siegel_dynamics.dynamics import backward_orbit, multiplier_at_boundary
from siegel_dynamics.errors import ConstructionFailed
from siegel_dynamics.geometry import (
    BoundaryPoint,
    CVector,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    apply_automorphism,
    dist_siegel,
)
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneLinear,
    QuadraticSiegel,
    expandable_decompose,
    lift_one_dim,
)

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
ELLIPTIC = BallProduct((BlaschkeDeg2(0.5), DiskLinear(0.5)))
ZERO2 = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
ONE = SiegelPoint(1.0, (0.0,))


def quadpol_orbit(n=40):
    return backward_orbit(QUADPOL, ONE, 0.34, n)


# ---------------------------------------------------------------------------
# tau_n
# ---------------------------------------------------------------------------

def test_tau_quadpol_is_pure_dilation():
    orb = quadpol_orbit()
    for n in (0, 3, 10):
        tau = build_tau(orb, n)
        p = apply_automorphism(tau, SiegelPoint(3.0, (0.5,)))
        assert p.z == 2.0 ** -n * 3.0
        assert abs(p.w[0] - 2.0 ** (-n / 2) * 0.5) < 1e-15
    assert build_tau(orb, 0).chain == ()  # Z_0 = (1, 0): identity


def test_tau_base_point_property_all_orbits():
    f_lift = lift_one_dim(HalfPlaneLinear(2.0))
    for f, seed in ((QUADPOL, ONE), (f_lift, SiegelPoint(2.0, (1.0,)))):
        orb = backward_orbit(f, seed, 0.4, 30)
        for n in range(len(orb.points)):
            p = apply_automorphism(build_tau(orb, n), ONE)
            assert dist_siegel(p, orb.points[n]) < 1e-12


def test_tau_expandable_adds_rotation():
    orb = quadpol_orbit(10)
    th = 0.6
    tau = build_tau(orb, 3, "expandable", (cmath.exp(1j * th),))
    assert isinstance(tau.chain[-1], Rotation)
    p = apply_automorphism(tau, SiegelPoint(2.0, (1.0,)))
    assert abs(p.w[0] - 2.0 ** -1.5 * cmath.exp(-3j * th)) < 1e-14


def test_tau_index_out_of_range():
    orb = quadpol_orbit(5)
    with pytest.raises(IndexError):
        build_tau(orb, 99)


def test_tau_limit_diagnostics_quadpol_exact():
    orb = quadpol_orbit(20)
    grid = default_grid(2)
    rep = tau_limit_diagnostics(orb, 2.0, 2, grid)
    assert max(rep.eta_errors) < 1e-12
    assert max(rep.identity_errors) < 1e-12


def test_tau_limit_diagnostics_k0_identity():
    orb = quadpol_orbit(10)
    rep = tau_limit_diagnostics(orb, 2.0, 0, default_grid(2))
    assert max(rep.eta_errors) < 1e-12


def test_tau_limit_diagnostics_lifted_decreasing():
    f = lift_one_dim(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 30)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    rep = tau_limit_diagnostics(orb0, 2.0, 1, default_grid(2))
    assert rep.eta_errors[-1] < 1e-10
    assert rep.identity_errors[-1] < 1e-10
    assert rep.eta_errors[-1] <= rep.eta_errors[5] + 1e-12


# ---------------------------------------------------------------------------
# psi approximants and residuals
# ---------------------------------------------------------------------------

def test_psi_quadpol_is_projection():
    orb = quadpol_orbit(30)
    grid = default_grid(2)
    for n in (2, 10, 20):
        for z, val in psi_approx(QUADPOL, orb, n, grid):
            assert dist_siegel(val, project_first(z, 0)) < 1e-12


def test_psi_diagonal_l0_is_projection():
    f = DiagonalLinear(2.0, (1.0,))
    orb = backward_orbit(f, ONE, 0.34, 30)
    for z, val in psi_approx(f, orb, 10, default_grid(2)):
        assert dist_siegel(val, project_first(z, 0)) < 1e-12


def test_psi_diagonal_expandable_is_identity():
    th = 1.1
    f = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(1j * th),))
    orb = backward_orbit(f, ONE, 0.34, 30)
    exp = expandable_decompose(f)
    assert exp.L == 1
    for z, val in psi_approx(f, orb, 12, default_grid(2), L=1,
                             variant="expandable", omega=exp.omega):
        assert dist_siegel(val, z) < 1e-12


def test_residual_quadpol_zero():
    orb = quadpol_orbit(30)
    grid = default_grid(2)
    for n in (1, 5, 10, 20):
        assert conjugation_residual(QUADPOL, orb, n, grid, 2.0) <= 1e-12


def test_residual_diagonal_expandable_zero():
    th = 0.4
    f = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(1j * th),))
    orb = backward_orbit(f, ONE, 0.34, 30)
    exp = expandable_decompose(f)
    res = conjugation_residual(f, orb, 10, default_grid(2), 2.0, L=1,
                               variant="expandable", omega=exp.omega)
    assert res <= 1e-12


def test_residual_elliptic_fixture_decreases():
    orb = special_backward_construct(
        ELLIPTIC, BoundaryPoint(v=CVector((1.0, 0.0)), model="ball"),
        4.0 / 3.0, 0.5, 45)
    g, orb0, _ = recenter_orbit_at_zero(ELLIPTIC, orbit=orb)
    grid = default_grid(2)
    res = [conjugation_residual(g, orb0, n, grid, 4.0 / 3.0) for n in (5, 15, 30)]
    assert res[2] < res[0]
    assert res[2] < 1e-3


def test_expandable_l0_matches_basic():
    # all tangential eigenvalues below sqrt(alpha): expandable with L = 0
    # reproduces the basic run exactly
    f = DiagonalLinear(2.0, (1.0,))
    orb = backward_orbit(f, ONE, 0.34, 20)
    grid = default_grid(2)
    basic = psi_approx(f, orb, 8, grid, L=0, variant="basic")
    expd = psi_approx(f, orb, 8, grid, L=0, variant="expandable", omega=(1.0 + 0j,))
    for (z1, v1), (z2, v2) in zip(basic, expd):
        assert v1.coords == v2.coords


def test_eta_model_properties():
    eta = eta_model(2.0, 2)
    p = apply_automorphism(eta, SiegelPoint(1.5, (0.3,)))
    assert p.z == 3.0 and abs(p.w[0] - math.sqrt(2.0) * 0.3) < 1e-15
    # eta is the linear model: its multiplier at 0 is alpha exactly
    f = DiagonalLinear(2.0, (math.sqrt(2.0),))
    assert abs(multiplier_at_boundary(f, ZERO2) - 2.0) < 1e-9
    # p_L and eta^{-1} are diagonal, hence commute
    inv = eta_model(2.0, 2, -1)
    for z in default_grid(2):
        a = project_first(apply_automorphism(inv, z), 0)
        b = apply_automorphism(inv, project_first(z, 0))
        assert a.coords == b.coords


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolation_quadpol_exact():
    orb = quadpol_orbit(40)
    rep = psi_interpolation_check(QUADPOL, orb, 20, 2.0, 10)
    assert len(rep.errors) == 11
    assert max(rep.errors) <= 1e-12


def test_interpolation_base_point():
    orb = quadpol_orbit(10)
    rep = psi_interpolation_check(QUADPOL, orb, 4, 2.0, 0)
    assert rep.errors[0] <= 1e-12  # psi_n(1, 0) = Z_0


def test_interpolation_lifted_improves_with_n():
    f = lift_one_dim(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    e_small = psi_interpolation_check(g, orb0, 6, 2.0, 3).errors
    e_large = psi_interpolation_check(g, orb0, 24, 2.0, 3).errors
    assert max(e_large) <= max(e_small) + 1e-12
    assert max(e_large) < 1e-8


def test_gn_diagnostic_quadpol():
    orb = quadpol_orbit(20)
    assert gn_diagnostic(QUADPOL, orb, 8, default_grid(2), 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def test_run_conjugation_quadpol():
    orb = quadpol_orbit(25)
    run = run_conjugation(QUADPOL, orb, 2.0, n_values=tuple(range(1, 21)))
    assert max(run.residuals) <= 1e-12
    assert max(run.interpolation.errors) <= 1e-10
    assert len(run.psi_samples) == len(run.grid)


# ---------------------------------------------------------------------------
# special backward sequences
# ---------------------------------------------------------------------------

def test_special_construct_quadpol():
    orb = special_backward_construct(QUADPOL, ZERO2, 2.0, 0.5, 40)
    assert not orb.at_infinity
    assert abs(orb.steps[-1] - 1.0 / 3.0) < 1e-9
    assert abs(orb.multiplier_estimate - 2.0) < 1e-9


def test_special_construct_diagonal():
    f = DiagonalLinear(2.0, (1.0,))
    orb = special_backward_construct(f, ZERO2, 2.0, 0.5, 30)
    for p in orb.points:
        assert abs(p.w[0]) < 1e-15
    assert abs(orb.steps[-1] - 1.0 / 3.0) < 1e-9


def test_special_construct_elliptic_steps_to_one_seventh():
    q = BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    orb = special_backward_construct(ELLIPTIC, q, 4.0 / 3.0, 0.5, 60)
    assert orb.at_infinity
    assert abs(orb.steps[-1] - 1.0 / 7.0) < 1e-4
    assert abs(orb.multiplier_estimate - 4.0 / 3.0) < 1e-6


def test_special_construct_rejects_attracting():
    with pytest.raises(ConstructionFailed):
        special_backward_construct(QUADPOL, ZERO2, 0.5, 0.5, 10)


def test_run_conjugation_needs_an_n():
    g, orbit0, _ = recenter_orbit_at_zero(QUADPOL, quadpol_orbit())
    with pytest.raises(ValueError, match="n_values"):
        run_conjugation(g, orbit0, 2.0, n_values=())
