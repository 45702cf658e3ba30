"""Accuracy toward the boundary, against mpmath or the exact multiplier.

The metric and the axis orbit hold over the whole double range.  The tests
still marked strict xfail cite the ROADMAP item that fixes them: they fail on
the (z, w) representation and the ball-coordinate `BallProduct` of today and
must pass, and lose their mark, once the item lands.
"""

import math

import mpmath
import numpy as np
import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics import serialize as ser
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.geometry import (
    INFINITY,
    BoundaryPoint,
    CVector,
    SiegelPoint,
    SiegelRows,
    dist_siegel,
    julia_quotient,
)

from conftest import accuracy_ledger

MAPS = {name: ser.load_descriptor(str(fixture_path(name))) for name in FIXTURES}


def test_dist_siegel_matches_mpmath_for_t_down_to_1e_300():
    # fixed pairs dilated to defect scale t: (t z, sqrt(t) w) keeps every distance;
    # t runs from 1e-300 up to 1e300, where |s|^2 alone would overflow
    bases = [((1.09 + 0.5j, 0.3), (2.25 - 0.3j, 0.1 + 0.2j)),
             ((1.0, 0.0), (2.0, 0.0)),
             ((0.5 + 3.0j, 0.6j), (0.9 + 2.5j, 0.5 + 0.1j))]
    worst = 0.0
    for t in np.logspace(-300, 3, 62).tolist() + np.logspace(10, 300, 30).tolist():
        for (z0, w0), (z1, w1) in bases:
            a = SiegelPoint(t * z0, (math.sqrt(t) * w0,))
            b = SiegelPoint(t * z1, (math.sqrt(t) * w1,))
            ref = accuracy_ledger.mp_dist_siegel(a, b)
            worst = max(worst, float(abs(dist_siegel(a, b) - ref) / ref))
    assert worst <= 1e-13


def mp_julia_quotient(p: SiegelPoint, q: BoundaryPoint):
    """|1 - (Z, q)|^2 / (1 - ||Z||^2) of the exact ball image Z of p, at 800 digits
    (1 - ||Z||^2 = 4t/|z + 1|^2 is about 4/|z| below, and 4e-700 at t = 1e-300,
    |z| = 1e200)."""
    with mpmath.workdps(800):
        coords = [mpmath.mpc(c.real, c.imag) for c in p.coords]
        zb = [(coords[0] - 1) / (coords[0] + 1)] + [2 * c / (coords[0] + 1) for c in coords[1:]]
        qc = [mpmath.mpc(c.real, c.imag) for c in q.v.coords]
        if q.model == "siegel":
            qc = [(qc[0] - 1) / (qc[0] + 1)] + [2 * c / (qc[0] + 1) for c in qc[1:]]
        s = 1 - sum(a * mpmath.conj(b) for a, b in zip(zb, qc))
        return abs(s) ** 2 / (1 - sum(abs(a) ** 2 for a in zb))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_julia_quotient_far_from_unit_scale_matches_mpmath(scale):
    # |s|^2 alone would overflow at both finite vertices
    vertices = [BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel"),
                BoundaryPoint(v=CVector((-1.0, 0.0)), model="ball"),
                BoundaryPoint(v=CVector((complex(0.25, -1.5), 0.5)), model="siegel"),
                BoundaryPoint(v=CVector((0.6, 0.8j)), model="ball")]
    points = [SiegelPoint(scale, (0j,)),
              SiegelPoint(complex(scale, 0.3 * scale), (0.2 * math.sqrt(scale),)),
              SiegelPoint(complex(0.5 * scale, -scale), (0.5j * math.sqrt(scale),))]
    for q in vertices:
        for p in points:
            got, ref = julia_quotient(p, q), mp_julia_quotient(p, q)
            assert math.isfinite(got)
            assert float(abs(got - ref) / ref) <= 1e-13, (q, p)


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


@pytest.mark.filterwarnings("error")
def test_julia_quotient_at_the_ball_image_of_infinity_stays_finite():
    # at t = 1e-300 and |z| = 1e200, |1 - (Z, q)|^2 (4e-400) and the gap
    # 4t/|z + 1|^2 (4e-700) both underflow, but the quotient is 1/t, as at infinity
    p = SiegelPoint(complex(1e-300, 1e200), (0j,))
    q = BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    got = julia_quotient(p, q)
    for ref in (julia_quotient(p, INFINITY), mp_julia_quotient(p, q)):
        assert float(abs(got - ref) / ref) <= 1e-15
    assert julia_quotient(SiegelRows.of([p]), q).tolist() == [got]
