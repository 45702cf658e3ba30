"""Backward orbits that reach a point their step maps to itself, bit for bit.

`backward_orbit` stops calling `backward_step` once a step is exactly 0 and
gives back its point's bits, and appends the remaining copies of that point
and step.  The reference below is the per-step loop it replaces: n calls of
`backward_step`, then the same analysis.  Orbits are compared by `float.hex`
(`orbit_bits`), so a copy with another zero's sign, or a point that moves by
less than the metric resolves, would show.
"""

from dataclasses import dataclass

import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics.errors import NoBackwardStep, OrbitTooShort
from siegel_dynamics.geometry import (
    INFINITY, BoundaryPoint, SiegelPoint, SiegelRows, boundary_projection, koranyi_ratio)
from siegel_dynamics.maps import DiagonalLinear, QuadraticSiegel
from test_orbit_parity import MAPS, orbit_bits


def loop_orbit(f, z0: SiegelPoint, a: float, n: int) -> dyn.BackwardOrbit:
    """The per-step loop: up to n calls of `backward_step`, then `backward_orbit`'s analysis."""
    points, steps, stop = [z0], [], ""
    for _ in range(n):
        try:
            points.append(dyn.backward_step(f, points[-1], a, steps))
        except NoBackwardStep as err:
            stop = f"; {err}"
            break
    if len(points) < 3:
        raise OrbitTooShort(f"backward orbit too short to analyze: {len(steps)} of {n} steps{stop}")
    rows = SiegelRows.of(points)
    defects = tuple(rows.t.tolist())
    to_infinity = defects[-1] > defects[0]
    if to_infinity:
        limit = INFINITY
        alpha = dyn._tail_median(defects[1:], defects[:-1])
    else:
        limit = BoundaryPoint(v=boundary_projection(points[-1]), model="siegel")
        alpha = dyn._tail_median(defects[:-1], defects[1:])
    cert = max(koranyi_ratio(rows, limit).tolist())
    return dyn.BackwardOrbit(tuple(points), tuple(steps), defects, a, limit, alpha, cert, to_infinity)


def first_repeat(orbit) -> int | None:
    """The number k of the first step that is 0.0 and gives back its point's bits."""
    bits = [[(c.real.hex(), c.imag.hex()) for c in p.coords] for p in orbit.points]
    return next((k for k in range(1, len(bits)) if orbit.steps[k - 1] == 0.0 and bits[k] == bits[k - 1]), None)


@pytest.fixture
def calls(monkeypatch):
    """The number of `backward_step` calls so far, through a counting wrapper on `dynamics.backward_step`."""
    count = [0]
    step = dyn.backward_step

    def counting(*args, **kwargs):
        count[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(dyn, "backward_step", counting)
    return count


def calls_of(count, orbit_fn, *args):
    count[0] = 0
    bits = orbit_bits(orbit_fn, *args)
    return bits, count[0]


ELLIPTIC_STARTS = [SiegelPoint(1.0, (0j,)), SiegelPoint(2.0, (0j,)), SiegelPoint(5.0, (0j,)),
                   SiegelPoint(9.9, (0j,)), SiegelPoint(2.0, (0.3 + 0.1j,))]


@pytest.mark.parametrize("n", [40, 500, 2000])
@pytest.mark.parametrize("z0", ELLIPTIC_STARTS, ids=lambda p: f"{p.z.real:g},{p.w[0]}")
def test_elliptic_orbits_keep_the_loops_bits(calls, z0, n):
    want, loop_calls = calls_of(calls, loop_orbit, MAPS["elliptic"], z0, 0.34, n)
    got, orbit_calls = calls_of(calls, dyn.backward_orbit, MAPS["elliptic"], z0, 0.34, n)
    assert got == want
    if want[0] == "raised":  # (2, 0.3 + 0.1i): one step, then none within the bound
        assert orbit_calls == loop_calls == 2
    else:
        k = first_repeat(loop_orbit(MAPS["elliptic"], z0, 0.34, n))
        assert orbit_calls == (loop_calls if k is None else k)


def test_calls_stop_at_the_first_repeat(calls):
    # elliptic toward infinity freezes at Siegel (2^53 - 1, 0) (D3); D4's interior fixed point from step 1
    for f, z0, n, k in [(MAPS["elliptic"], SiegelPoint(5.0, (0j,)), 2000, 122),
                        (MAPS["elliptic"], SiegelPoint(5.0, (0j,)), 40, None),
                        (MAPS["elliptic_at_zero"], SiegelPoint(0.7, (0j,)), 500, 127),
                        (MAPS["elliptic"], SiegelPoint(1.0, (0j,)), 40, 1)]:
        assert first_repeat(loop_orbit(f, z0, 0.34, n)) == k
        _, count = calls_of(calls, dyn.backward_orbit, f, z0, 0.34, n)
        assert count == (k or n)
    assert dyn.backward_orbit(MAPS["elliptic"], SiegelPoint(5.0, (0j,)), 0.34, 2000).points[-1].z == 2.0 ** 53 - 1


@pytest.mark.parametrize("z0, n, k", [(SiegelPoint(1.0, (0j,)), 40, 1), (SiegelPoint(5.0, (0j,)), 500, 122)],
                         ids=["D4_1,0_n40", "D3_5,0_n500"])
def test_a_padded_tail_has_every_points_defect_and_ratio(z0, n, k):
    # the copies after the first repeat are analysed once, as the last stepped row: the defects and
    # the certificate are still those of every point of the orbit
    orbit = dyn.backward_orbit(MAPS["elliptic"], z0, 0.34, n)
    assert first_repeat(orbit) == k and len(orbit.points) == n + 1
    assert [t.hex() for t in orbit.defects] == [p.t.hex() for p in orbit.points]
    cert = max(koranyi_ratio(SiegelRows.of(orbit.points), orbit.limit).tolist())
    assert orbit.koranyi_certificate.hex() == cert.hex()


@pytest.mark.parametrize("f", [MAPS["elliptic_at_zero"], DiagonalLinear(1.0, (1.0,)), QuadraticSiegel(1.0, 0.0, 1.0)],
                         ids=["elliptic_at_zero", "diag_identity", "quad_identity"])
@pytest.mark.parametrize("n", [40, 500])
def test_conjugated_and_identity_maps_keep_the_loops_bits(calls, f, n):
    z0 = SiegelPoint(0.7, (0j,)) if f is MAPS["elliptic_at_zero"] else SiegelPoint(2.0, (0.5j,))
    want, _ = calls_of(calls, loop_orbit, f, z0, 0.34, n)
    got, count = calls_of(calls, dyn.backward_orbit, f, z0, 0.34, n)
    assert got == want
    if f is not MAPS["elliptic_at_zero"]:  # the identity's only preimage is the point itself
        assert count == 1 and set(want[1]) == {(0.0).hex()}


@pytest.mark.parametrize("name", ["quadpol", "lifted2z", "diaglinear"])
@pytest.mark.parametrize("z0", [SiegelPoint(0.7, (0j,)), SiegelPoint(5.0, (0j,))], ids=["0.7", "5"])
def test_polynomial_axis_orbits_take_every_step(calls, name, z0):
    want, _ = calls_of(calls, loop_orbit, MAPS[name], z0, 0.34, 500)
    got, count = calls_of(calls, dyn.backward_orbit, MAPS[name], z0, 0.34, 500)
    assert got == want and count == 500


# ---------------------------------------------------------------------------
# steps of exactly 0 between points whose bits differ
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignFlip:
    """Dimension 2; the one preimage of (z, w) is (z, -w): from w = 0j it alternates 0j and -0j."""

    dim = 2

    def preimages(self, p):
        return [(p.z, -p.w[0])]


@dataclass(frozen=True)
class Creep:
    """Dimension 2; the one preimage of (z, w) is (z + 1e-300i, w), at distance 0.0 from it."""

    dim = 2

    def preimages(self, p):
        return [(p.z + 1e-300j, p.w[0])]


@pytest.mark.parametrize("f", [SignFlip(), Creep()], ids=["sign_flip", "creep"])
def test_a_zero_step_to_other_bits_does_not_stop_the_steps(calls, f):
    z0 = SiegelPoint(2.0, (0j,))
    want, _ = calls_of(calls, loop_orbit, f, z0, 0.34, 40)
    got, count = calls_of(calls, dyn.backward_orbit, f, z0, 0.34, 40)
    assert got == want and count == 40
    orbit = dyn.backward_orbit(f, z0, 0.34, 40)
    assert set(orbit.steps) == {0.0} and first_repeat(orbit) is None
    if isinstance(f, SignFlip):
        assert [p.w[0].real.hex() for p in orbit.points[:3]] == ["0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]
    else:
        assert len({p.z for p in orbit.points}) == 41
