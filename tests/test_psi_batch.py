"""The psi sweep's first rows: tau_n of every depth in one pass per kind of
chain, and f^n in closed form for all depths at once, bit for bit against
the plain formulas, with the per-depth loop's error when a sweep fails.
"""

import cmath
import math

import pytest

from siegel_dynamics import conjugation, geometry, maps
from siegel_dynamics.conjugation import (
    build_tau,
    default_grid,
    psi_approx,
    recenter_orbit_at_zero,
    run_conjugation,
)
from siegel_dynamics.dynamics import BackwardOrbit, backward_orbit
from siegel_dynamics.geometry import BoundaryPoint, CVector, SiegelPoint, SiegelRows, apply_automorphism
from siegel_dynamics.maps import DiagonalLinear, QuadraticSiegel, quadratic_iterate_closed
from test_psi_equivalence import TWINS, bits, outcome, ref_psi, ref_residual

ROT = cmath.exp(0.7j)


def synthetic_orbit(points) -> BackwardOrbit:
    points = tuple(points)
    return BackwardOrbit(points=points, steps=(0.0,) * (len(points) - 1), defects=tuple(p.t for p in points),
                         step_bound=0.34, limit=BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel"),
                         multiplier_estimate=2.0, koranyi_certificate=1.0, at_infinity=False)


def mixed_orbit(n=13) -> BackwardOrbit:
    """Z_k = (2^-k, 0) at even k, off the axis at odd k, with t_0 = t_5 = 1: tau_0 is the
    identity, tau_5 a translation, tau_k a dilation at other even k and a dilation and a
    translation at other odd k."""
    pts = []
    for k in range(n):
        s = 2.0 ** -k
        pts.append(SiegelPoint(s, (0j,)) if k % 2 == 0 else
                   SiegelPoint(complex(s + 0.01 * s, 0.3 * s), (complex(0.1, -0.05) * math.sqrt(s),)))
    pts[5] = SiegelPoint(complex(1.25, 0.3), (0.5 + 0j,))  # t = 1.25 - 0.25 = 1 exactly
    return synthetic_orbit(pts)


def chain_kinds(orbit, n_values, omega):
    return {tuple(type(p).__name__ for p in build_tau(orbit, n, omega).chain) for n in n_values}


CASES = {  # each map's psi takes its variant from the map: the basic one, or p_L keeps w with Omega
    "diagonal": DiagonalLinear(2.0, (1.0,)),
    # expandable at 0 (|C|^2 = A), and with B != 0, so f^n's B S_n w^2 meets the kept w;
    # not a self-map, which the synthetic orbit does not need
    "quadratic": QuadraticSiegel(2.0, 0.3 - 0.2j, math.sqrt(2.0) * ROT.conjugate()),
    "expandable": DiagonalLinear(2.0, (math.sqrt(2.0) * ROT,)),
}
N_VALUES = (0, 3, 1, 12, 2, 5, 7, 8)


@pytest.mark.parametrize("case", sorted(CASES))
def test_depths_whose_chains_differ_in_kind_keep_their_bits(case):
    f = CASES[case]
    mask, omega = conjugation._variant(f)
    orbit = mixed_orbit()
    kinds = chain_kinds(orbit, N_VALUES, omega)
    # tau_0 is the identity (t_0 = 1, Z_0 on the axis, Omega^0 = 1), and tau_5 and tau_2 have
    # chains of one length but of different kinds
    assert len(kinds) == 4 and () in kinds and sum("Translation" in k for k in kinds) == 2
    assert len(build_tau(orbit, 5, omega).chain) == len(build_tau(orbit, 2, omega).chain)
    grid = default_grid(2) + TWINS
    for last in (12, 0, 5):
        n_values = tuple(n for n in N_VALUES if n != last) + (last,)
        run = run_conjugation(f, orbit, 2.0, grid, n_values)
        assert bits(run.residuals) == tuple(
            bits(ref_residual(f, orbit, n, grid, 2.0, mask, omega)) for n in n_values)
        assert bits([v for _, v in run.psi_samples]) == bits(
            [ref_psi(f, orbit, last, z, mask, omega) for z in grid])


@pytest.mark.parametrize("case", sorted(CASES))
def test_signed_zero_twins_keep_their_own_psi_in_the_batch(case):
    # at n = 0 the sign of a zero survives tau_0, and where p_L keeps w also p_L
    f = CASES[case]
    mask, omega = conjugation._variant(f)
    orbit = mixed_orbit()
    ref = [bits(ref_psi(f, orbit, 0, z, mask, omega)) for z in TWINS]
    assert ref[0] != ref[1] and ref[5] != ref[6]
    for n in (0, 1, 2):
        assert [bits(v) for _, v in psi_approx(f, orbit, n, TWINS)] == [
            bits(ref_psi(f, orbit, n, z, mask, omega)) for z in TWINS]


def per_depth_error(f, orbit, points, depths, mask):
    """What the per-depth loop raised: for each depth, deepest first, tau_n of every
    distinct projected point, then f^n of each in closed form."""
    distinct = list({bits(conjugation.project(z, mask)): conjugation.project(z, mask)
                     for z in points}.values())
    for n in sorted(depths, reverse=True):
        starts = [apply_automorphism(build_tau(orbit, n), p) for p in distinct]
        [quadratic_iterate_closed(f, n, p) for p in starts]


def residual_points(grid, alpha):
    eta = conjugation.eta_model(alpha, 2)
    return [apply_automorphism(eta, z) for z in grid] + grid


LEAVES = QuadraticSiegel(0.5, 2.0, 1.0)  # not a self-map: psi_n of points with large w leaves the domain
WIDE = default_grid(2) + [SiegelPoint(0.82, (0.9j,)), SiegelPoint(1.5, (1.2j,))]


def sweep_residuals(f, orbit, grid, n_values, mask):
    """The residual sweep with p_L's mask given: LEAVES's own variant is the basic one,
    and only a p_L that keeps w takes its psi_n out of the domain."""
    return conjugation._residual_sweep(f, orbit, n_values, grid, 2.0, mask, None)[0]


@pytest.mark.parametrize("f, grid, mask, message", [
    (QuadraticSiegel(1e30, 0j, 1.0), default_grid(2), (False,), "A^12"),  # A^n overflows from n = 11
    (LEAVES, WIDE, (True,), "Siegel domain"),
], ids=["overflow", "leaves_domain"])
def test_a_failing_sweep_raises_what_the_per_depth_loop_raised(f, grid, mask, message):
    orbit = backward_orbit(QuadraticSiegel(2.0, 0j, 1.0), SiegelPoint(1.0, (0.0,)), 0.34, 40)
    for n_values in ((12,), (1, 5, 12), tuple(range(1, 13)), (3, 12, 1)):
        want = outcome(per_depth_error, f, orbit, residual_points(grid, 2.0), n_values, mask)
        assert want[:2] == ("raised", "InvalidPoint") and message in want[2]
        assert outcome(sweep_residuals, f, orbit, grid, n_values, mask) == want
    if not any(mask):  # the map's own variant: run_conjugation raises the same
        assert outcome(run_conjugation, f, orbit, 2.0, grid, (1, 5, 12)) == want


def test_a_bad_dilation_at_a_shallow_depth_does_not_hide_a_deeper_failure():
    # tau_3 cannot be built (1/t_3 is inf), and f^12 leaves the domain: the per-depth
    # loop meets depth 12 first, so the batch raises its error, not tau_3's
    pts = [SiegelPoint(2.0 ** -k, (0j,)) for k in range(14)]
    pts[3] = SiegelPoint(1e-310, (0j,))
    orbit = synthetic_orbit(pts)
    for n_values in ((3, 12), (1, 2, 3, 4, 12), (3,), (2, 3)):
        want = outcome(per_depth_error, LEAVES, orbit, residual_points(WIDE, 2.0), n_values, (True,))
        assert want[:2] == ("raised", "InvalidPoint")
        assert ("dilation" in want[2]) is (max(n_values) == 3)
        assert outcome(sweep_residuals, LEAVES, orbit, WIDE, n_values, (True,)) == want


@pytest.mark.parametrize("case", ["diagonal", "quadratic", "axis_diagonal", "axis_quadratic"])
def test_one_pass_per_kind_of_chain_and_one_tau_per_depth(case, monkeypatch):
    # a sweep builds tau_n once per depth, applies the stacked taus to rows once per kind
    # of chain, applies eta to the grid as rows once, and takes f^n in closed form in
    # one pass: a return to per-depth passes shows in these counts
    n_values = tuple(range(1, 13))
    if case.startswith("axis"):
        f = QuadraticSiegel(2.0, 1.0, 1.0) if case == "axis_quadratic" else DiagonalLinear(2.0, (1.0,))
        orbit = recenter_orbit_at_zero(f, backward_orbit(f, SiegelPoint(5.0, (0j,)), 0.34, 40))[1]
        kinds = 1
    else:
        f, orbit, kinds = CASES[case], mixed_orbit(), 3
    assert len(chain_kinds(orbit, n_values, conjugation._variant(f)[1])) == kinds
    counts, built = {"tau": 0, "eta": 0, "power": 0}, []
    apply_chain, apply_auto, evaluate = conjugation._apply_chain, conjugation.apply_automorphism, QuadraticSiegel.evaluate

    def tau_pass(chain, z, w):
        counts["tau"] += 1
        return apply_chain(chain, z, w)

    def eta_rows(a, p):
        counts["eta"] += isinstance(p, SiegelRows)
        return apply_auto(a, p)

    def power(g, p):
        counts["power"] += g is not f  # f^n: stacked for the residual sweep, f^12 for the interpolation
        return evaluate(g, p)

    monkeypatch.setattr(conjugation, "_apply_chain", tau_pass)
    monkeypatch.setattr(conjugation, "apply_automorphism", eta_rows)
    monkeypatch.setattr(QuadraticSiegel, "evaluate", power)
    monkeypatch.setattr(conjugation, "build_tau", lambda *a: built.append(a[1]) or build_tau(*a))
    monkeypatch.setattr(maps, "quadratic_iterate_closed", None)  # no longer called per depth
    run_conjugation(f, orbit, 2.0, default_grid(2), n_values)
    assert built == list(range(12, 0, -1)) + [12]  # the residual sweep's depths, then the interpolation's
    assert counts == {"tau": kinds + 1, "eta": 1, "power": 2 if isinstance(f, QuadraticSiegel) else 0}


def test_recentering_at_zero_keeps_the_orbit():
    f = QuadraticSiegel(2.0, 1.0, 1.0)
    orbit = backward_orbit(f, SiegelPoint(5.0, (0j,)), 0.34, 40)
    assert orbit.limit.v.coords == (0j, 0j)
    g, moved, chart = recenter_orbit_at_zero(f, orbit)
    assert g is f and chart.chain == ()
    assert moved.points == orbit.points and moved.defects == orbit.defects
    assert bits(moved.points) == bits(orbit.points)
    assert [d.hex() for d in moved.defects] == [d.hex() for d in orbit.defects]
    assert moved.limit == orbit.limit and not moved.at_infinity


def test_stacked_parameters_keep_each_blocks_bits():
    # each block of rows moves as its own automorphism, or its own f^n, moves each of its points
    autos = [geometry.SiegelAutomorphism((geometry.Dilation(t), geometry.Translation(y, (w,)),
                                          geometry.Rotation((r,))))
             for t, y, w, r in ((2.0, 0.3, 0.1 - 0.2j, ROT), (0.25, -0.0, -0.0 + 0.5j, 1j),
                                (1e-8, -4.0, 1e-3 + 0j, ROT.conjugate()))]
    pts = TWINS + default_grid(2)[:7]
    rows = SiegelRows.of(pts * len(autos))
    chain = [geometry.stack_parameters(prims, len(pts)) for prims in zip(*(a.chain for a in autos))]
    moved = SiegelRows(*geometry._apply_chain(chain, rows.z, rows.w))
    assert bits([moved.point(i) for i in range(len(moved.t))]) == bits(
        [apply_automorphism(a, p) for a in autos for p in pts])
    f, depths = QuadraticSiegel(2.0, 0.3 - 0.2j, 1.1), (12, 5, 1)
    powers = geometry.stack_parameters([maps.quadratic_power(f, n) for n in depths], len(pts))
    rows = powers.evaluate(SiegelRows.of(pts * len(depths)))
    assert bits([rows.point(i) for i in range(len(rows.t))]) == bits(
        [quadratic_iterate_closed(f, n, p) for n in depths for p in pts])
