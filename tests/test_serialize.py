"""Descriptors and automorphisms survive JSON text unchanged, N = 1 included."""

import cmath
import json

import pytest

from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.geometry import (
    Dilation,
    Inversion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    Translation,
)
from siegel_dynamics.maps import Conjugated, DiagonalLinear, QuadraticSiegel
from siegel_dynamics.serialize import (
    automorphism_from_json,
    automorphism_to_json,
    descriptor_from_json,
    descriptor_to_json,
    load_descriptor,
)

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
DESCRIPTORS = {name: load_descriptor(str(fixture_path(name))) for name in FIXTURES} | {
    "conjugated_by_inversion": Conjugated(QUADPOL, SiegelAutomorphism((Inversion(),))),
    "conjugated_by_translation": Conjugated(
        QUADPOL, SiegelAutomorphism((Translation(0.5, (0.1 - 0.2j,)),))),
    "diagonal_n1": DiagonalLinear(2.0),
}
PRIMITIVES = {
    "translation_n1": Translation(0.5),
    "translation": Translation(-0.25, (0.1 - 0.2j,)),
    "dilation": Dilation(2.5),
    "rotation": Rotation((cmath.exp(1j),)),
    "linear_diag_n1": LinearDiag(4.0, ()),
    "linear_diag": LinearDiag(4.0, (2j,)),
    "inversion": Inversion(),
}


def through_text(d: dict) -> dict:
    return json.loads(json.dumps(d))


@pytest.mark.parametrize("name", DESCRIPTORS)
def test_descriptor_round_trip(name):
    f = DESCRIPTORS[name]
    assert descriptor_from_json(through_text(descriptor_to_json(f))) == f


@pytest.mark.parametrize("name", PRIMITIVES)
def test_automorphism_round_trip(name):
    prim = PRIMITIVES[name]
    a = SiegelAutomorphism((prim,))
    assert a.chain == (prim,)
    assert automorphism_from_json(through_text(automorphism_to_json(a))) == a


def test_automorphism_chain_round_trip_n1():
    a = SiegelAutomorphism((Translation(0.5), Dilation(2.5), LinearDiag(4.0, ()), Inversion()))
    assert automorphism_from_json(through_text(automorphism_to_json(a))) == a
