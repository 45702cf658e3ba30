"""A backward orbit's finite limit is its last point's boundary projection.

The projection (i Im z + ||w||^2, w) lies on Re z = ||w||^2 exactly, so its
defect is 0.0 and `BoundaryPoint` cannot refuse it.  The earlier rule, the
mean of the last five projections, is off the boundary unless their w agree,
and raised `InvalidPoint("Siegel boundary point with nonzero defect")` for
short orbits far from the boundary.  The sweep below is a seeded slice of
the theorem's property sweep: random self-maps of all five families from
random starts.
"""

import math

import numpy as np

from siegel_dynamics import geometry as geo
from siegel_dynamics import maps as mp
from siegel_dynamics.dynamics import backward_orbit
from siegel_dynamics.errors import InvalidPoint, SiegelDynamicsError


def limit_defect(q: geo.BoundaryPoint) -> float:
    return q.v.coords[0].real - geo.sq_norm(q.v.coords[1:])


def test_a_short_orbit_far_from_the_boundary_gets_a_boundary_limit():
    # six steps, then no preimage within the bound
    f = mp.QuadraticSiegel(1.3250871021951218, 0.06458104097434116 + 0.2768392246401919j,
                           0.7894072705089847 + 0.011694357891871433j)
    z0 = geo.SiegelPoint(19.591499564676777 + 2.124061236868265j,
                         (-0.22323972944415324 - 0.04018547610344168j,))
    orbit = backward_orbit(f, z0, 0.34, 40)
    assert len(orbit.points) == 7 and not orbit.at_infinity
    assert limit_defect(orbit.limit) == 0.0
    assert orbit.limit.v.coords == geo.boundary_projection(orbit.points[-1]).coords


def sweep_cases(rng, n):
    """(map, start): self-maps of the five families in turn, `Conjugated` over one of the
    other four; starts at t ~ 10^U(-2, 2) above their w, w of scale 0.1, 1 or 3."""

    def rc(s):
        return complex(rng.normal(0, s), rng.normal(0, s))

    def phase():
        return complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))

    def family(kind, dim):
        if kind == 0:  # A - |B| >= |C|^2
            a = rng.uniform(0.2, 3.0)
            b = a * rng.random()
            return mp.QuadraticSiegel(a, b * phase(), math.sqrt((a - b) * rng.random()) * phase())
        if kind == 1:  # c >= 1, as `Lifted` asks
            c = rng.uniform(1.0, 3.0)
            return mp.Lifted(mp.HalfPlaneAffine(c, rng.normal()) if rng.random() < 0.5
                             else mp.HalfPlaneLinear(c))
        if kind == 2:
            a = rng.uniform(0.2, 3.0)
            return mp.DiagonalLinear(a, tuple(math.sqrt(a) * rng.random() * phase() for _ in range(dim - 1)))
        if kind == 3:
            return mp.BallProduct((mp.BlaschkeDeg2(rng.uniform(0.05, 0.95)),)
                                  + tuple(mp.DiskLinear(0.9 * rng.random() * phase()) for _ in range(dim - 1)))
        chain = [(geo.Inversion(),), (geo.Translation(rng.normal(), tuple(rc(0.3) for _ in range(dim - 1))),),
                 (geo.Dilation(10 ** rng.uniform(-1, 1)), geo.Inversion())][rng.integers(3)]
        base = rng.integers(4) if dim == 2 else rng.choice([2, 3])  # the families of this dimension
        return mp.Conjugated(family(base, dim), geo.SiegelAutomorphism(chain))

    for i in range(n):
        kind = i % 5
        dim = 2 if kind < 2 else int(rng.integers(1, 4))
        w = tuple(rc(rng.choice([0.1, 1.0, 3.0])) for _ in range(dim - 1))
        yield family(kind, dim), geo.SiegelPoint(complex(10 ** rng.uniform(-2, 2) + geo.sq_norm(w),
                                                         rng.normal()), w)


def test_sweep_raises_no_invalid_point_and_every_finite_limit_is_on_the_boundary():
    finite = infinite = refused = 0
    for f, z0 in sweep_cases(np.random.default_rng(29), 2000):
        try:
            orbit = backward_orbit(f, z0, 0.34, 40)
        except SiegelDynamicsError as err:
            assert not isinstance(err, InvalidPoint), (f, z0, err)
            refused += 1
            continue
        if orbit.at_infinity:
            infinite += 1
        else:
            assert limit_defect(orbit.limit) == 0.0, (f, z0)
            finite += 1
    # the slice reaches every outcome: finite limits, infinity and typed refusals
    assert finite >= 20 and infinite >= 10 and refused >= 1000
