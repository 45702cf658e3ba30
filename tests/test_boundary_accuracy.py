"""Accuracy toward the boundary, ahead of the fixes that ROADMAP items 1 and 3
plan.  Each test is a strict xfail that cites its item: it fails on the
(z, w) representation and the ball-coordinate `BallProduct` of today and must
pass, and lose its mark, once the item lands.
"""

import math

import mpmath
import numpy as np
import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics import serialize as ser
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.geometry import SiegelPoint, dist_siegel

MAPS = {name: ser.load_descriptor(str(fixture_path(name))) for name in FIXTURES}


def mp_dist_siegel(a: SiegelPoint, b: SiegelPoint):
    """60-digit pseudo-hyperbolic distance between the exact coordinates."""
    with mpmath.workdps(60):
        za, zb = mpmath.mpc(a.z.real, a.z.imag), mpmath.mpc(b.z.real, b.z.imag)
        wa = [mpmath.mpc(c.real, c.imag) for c in a.w]
        wb = [mpmath.mpc(c.real, c.imag) for c in b.w]
        ta = za.real - sum(abs(c) ** 2 for c in wa)
        tb = zb.real - sum(abs(c) ** 2 for c in wb)
        s = za + mpmath.conj(zb) - 2 * sum(x * mpmath.conj(y) for x, y in zip(wa, wb))
        return mpmath.sqrt(1 - 4 * ta * tb / abs(s) ** 2)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: 4 t_a t_b and |s|^2 underflow "
                                       "below t ~ 1e-162 (InvalidPoint at t ~ 1e-200)")
def test_dist_siegel_matches_mpmath_for_t_down_to_1e_300():
    # fixed pairs dilated to defect scale t: (t z, sqrt(t) w) keeps every distance
    bases = [((1.09 + 0.5j, 0.3), (2.25 - 0.3j, 0.1 + 0.2j)),
             ((1.0, 0.0), (2.0, 0.0)),
             ((0.5 + 3.0j, 0.6j), (0.9 + 2.5j, 0.5 + 0.1j))]
    worst = 0.0
    for t in np.logspace(-300, 3, 62).tolist():
        for (z0, w0), (z1, w1) in bases:
            a = SiegelPoint(t * z0, (math.sqrt(t) * w0,))
            b = SiegelPoint(t * z1, (math.sqrt(t) * w1,))
            ref = mp_dist_siegel(a, b)
            worst = max(worst, float(abs(dist_siegel(a, b) - ref) / ref))
    assert worst <= 1e-13


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the axis orbit reaches t ~ 1e-162 "
                                       "at n = 538 and raises InvalidPoint from dist_siegel")
def test_quadpol_axis_orbit_reaches_n_1000():
    orbit = dyn.backward_orbit(MAPS["quadpol"], SiegelPoint(1.0, (0j,)), 0.34, 1000)
    assert len(orbit.points) == 1001
    assert abs(orbit.multiplier_estimate - 2.0) <= 2e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: near the boundary curve (r^2, i r), "
                                       "t = Re z - ||w||^2 is lost to the ulp of ||w||^2 and "
                                       "the orbit stops after ~50 steps")
def test_quadpol_near_curve_orbit_keeps_alpha_2():
    start = SiegelPoint(complex(0.5 ** 2 + 0.1), (0.5j,))
    orbit = dyn.backward_orbit(MAPS["quadpol"], start, 0.34, 100)
    assert len(orbit.points) == 101
    assert abs(orbit.multiplier_estimate - 2.0) <= 2e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: BallProduct goes through ball "
                                       "coordinates, where 1 - z_b rounds away; the defects "
                                       "freeze near 9e15 and alpha comes out 1.0")
def test_elliptic_orbit_toward_infinity_keeps_alpha_4_3():
    orbit = dyn.backward_orbit(MAPS["elliptic"], SiegelPoint(5.0, (0j,)), 0.34, 500)
    assert len(orbit.points) == 501
    assert abs(orbit.multiplier_estimate - 4.0 / 3.0) <= 4.0 / 3.0 * 1e-12
