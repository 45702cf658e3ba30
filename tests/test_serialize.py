"""Descriptors and automorphisms survive JSON text unchanged, N = 1 included."""

import cmath
import dataclasses
import json

import pytest

from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.errors import InvalidDescriptor
from siegel_dynamics.geometry import (
    Dilation,
    Inversion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    Translation,
)
from siegel_dynamics.maps import Conjugated, DiagonalLinear, QuadraticSiegel
from siegel_dynamics.policy import DEFAULT_POLICY
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


@pytest.mark.parametrize("d, message", [
    ({"family": "lifted", "phi": {"kind": "inversion"}}, "unknown one-dim map kind 'inversion'"),
    ({"family": "conjugated", "base": {"family": "diagonal", "alpha": 2.0},
      "by": {"chain": [{"kind": "blaschke2", "a": 0.5}]}}, "unknown primitive kind 'blaschke2'"),
], ids=["primitive_as_phi", "one_dim_map_in_chain"])
def test_kind_is_looked_up_where_it_stands(d, message):
    with pytest.raises(InvalidDescriptor, match=message):
        descriptor_from_json(d)


def test_policy_as_dict_is_asdict_key_for_key():
    # every report header prints it; a plain dict of the fields, in field order, and a new one each call
    got = DEFAULT_POLICY.as_dict()
    assert list(got.items()) == list(dataclasses.asdict(DEFAULT_POLICY).items())
    assert [type(v) for v in got.values()] == [type(getattr(DEFAULT_POLICY, k)) for k in got]
    got["orbit_tol"] = 0.0
    assert DEFAULT_POLICY.as_dict()["orbit_tol"] == DEFAULT_POLICY.orbit_tol == 1e-10
