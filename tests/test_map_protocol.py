"""A map family defined only here: one class with the four protocol members
(`dim`, `evaluate`, `preimages`, `fixed_point_set`) is enough for the module
functions of `maps`, the backward solver and `Conjugated`."""

from dataclasses import dataclass

import pytest

from siegel_dynamics import maps
from siegel_dynamics.dynamics import backward_orbit
from siegel_dynamics.geometry import (
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    Translation,
    apply_automorphism,
    invert_automorphism,
)


@dataclass(frozen=True)
class DoubleZ:
    """(z, w) |-> (2z, w) on H^2: repelling at the boundary point 0 with alpha = 2."""

    dim = 2

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        return SiegelPoint(2.0 * p.z, p.w)

    def preimages(self, p: SiegelPoint) -> list[CVector]:
        return [CVector((p.z / 2.0,) + p.w)]

    def fixed_point_set(self) -> maps.FixedPointSet:
        return maps.FixedPointSet("origin_infinity")


F = DoubleZ()
BY = SiegelAutomorphism((Translation(0.5, (0.1 - 0.2j,)),))
P = SiegelPoint(1.0 + 0.5j, (0.3 + 0.1j,))


def test_module_functions_delegate_to_the_family():
    assert maps.evaluate(F, P) == SiegelPoint(2.0 + 1.0j, (0.3 + 0.1j,))
    assert maps.iterate(F, 3, P) == SiegelPoint(8.0 + 4.0j, (0.3 + 0.1j,))
    assert maps.preimage_candidates(F, P) == [CVector((0.5 + 0.25j, 0.3 + 0.1j))]
    assert maps.known_brfp_set(F).kind == "origin_infinity"


def test_backward_orbit_of_the_new_family():
    orbit = backward_orbit(F, SiegelPoint(1.0, (0.0,)), 0.34, 20)
    assert len(orbit.points) == 21
    assert [p.z for p in orbit.points] == [2.0 ** -k for k in range(21)]
    assert all(abs(s - 1.0 / 3.0) < 1e-12 for s in orbit.steps)
    assert orbit.multiplier_estimate == pytest.approx(2.0, abs=1e-12)
    assert not orbit.at_infinity


def test_conjugated_wraps_the_new_family():
    g = maps.Conjugated(F, BY)
    assert g.dim == 2
    direct = apply_automorphism(BY, F.evaluate(apply_automorphism(invert_automorphism(BY), P)))
    assert maps.evaluate(g, P) == direct
    cands = maps.preimage_candidates(g, P)
    assert len(cands) == 1
    img = maps.evaluate(g, SiegelPoint(cands[0].coords[0], cands[0].coords[1:]))
    assert abs(img.z - P.z) < 1e-14 and abs(img.w[0] - P.w[0]) < 1e-14
    assert maps.known_brfp_set(g).kind == "origin_infinity"
    start = apply_automorphism(BY, SiegelPoint(1.0, (0.0,)))
    orbit = backward_orbit(g, start, 0.34, 20)
    assert len(orbit.points) == 21
    assert orbit.multiplier_estimate == pytest.approx(2.0, abs=1e-9)
