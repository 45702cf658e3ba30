"""The plain-Python scalar core: parity with the numpy formulas it replaced,
input validation of the point constructors, and a guard that the per-point
path calls no numpy array function."""

import math
import operator
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dynamics import dynamics, geometry, maps
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.errors import DimensionMismatch, InvalidPoint
from siegel_dynamics.geometry import (
    BallPoint,
    CVector,
    Dilation,
    Inversion,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    Translation,
    _cdiv,
    herm,
    sq_norm,
)
from siegel_dynamics.policy import DEFAULT_POLICY
from siegel_dynamics.serialize import load_descriptor

MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0]), MAGNITUDE, MAGNITUDE.map(operator.neg))
COMPLEX = st.builds(complex, COMPONENT, COMPONENT)
MODERATE = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(min_value=-1e100, max_value=1e100).filter(lambda x: abs(x) > 1e-100))
VECTOR = st.lists(st.builds(complex, MODERATE, MODERATE), min_size=1, max_size=3)


def bits(c: complex) -> bytes:
    return struct.pack("<dd", c.real, c.imag)


# ---------------------------------------------------------------------------
# _cdiv reproduces numpy's complex division
# ---------------------------------------------------------------------------

@settings(max_examples=1000)
@given(COMPLEX, COMPLEX.filter(lambda b: b != 0))
def test_cdiv_matches_numpy_bit_for_bit(a, b):
    with np.errstate(all="ignore"):
        scalar = complex(np.complex128(a) / np.complex128(b))
        array = complex((np.array([a]) / b)[0])
    got = _cdiv(a, b)
    assert bits(got) == bits(scalar) == bits(array)


@pytest.mark.parametrize("b", [2.5, -2.5, 2.5j, -2.5j, complex(0.0, 3.0), complex(-0.0, 3.0),
                               complex(3.0, -0.0), complex(-3.0, 0.0), 1e-300, 1e300j])
@pytest.mark.parametrize("a", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                               1 + 2j, complex(-1e300, 1e-300)])
def test_cdiv_signed_zeros_and_axis_divisors(a, b):
    with np.errstate(all="ignore"):
        want = complex(np.complex128(a) / np.complex128(b))
    assert bits(_cdiv(a, b)) == bits(want)


# ---------------------------------------------------------------------------
# sq_norm and herm agree with the numpy formulas
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(VECTOR)
def test_sq_norm_matches_numpy_formula(u):
    # numpy's SIMD |z| rounds differently from CPython's hypot: at most 4 ulp
    # per term (measured: 4 for one term, 5 for sums of two or three)
    want = float(np.sum(np.abs(np.array(u)) ** 2))
    assert abs(sq_norm(tuple(u)) - want) <= 4 * len(u) * math.ulp(want)


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.builds(complex, MODERATE, MODERATE), min_size=n, max_size=n),
    st.lists(st.builds(complex, MODERATE, MODERATE), min_size=n, max_size=n))))
def test_herm_matches_numpy_formula(uv):
    u, v = uv
    want = complex(np.sum(np.array(u) * np.conj(np.array(v))))
    got = herm(tuple(u), tuple(v))
    # the products may cancel, so the ulp is taken at the size of the terms
    scale = math.ulp(sum(abs(a) * abs(b) for a, b in zip(u, v)))
    assert abs(got.real - want.real) <= 4 * scale
    assert abs(got.imag - want.imag) <= 4 * scale


def test_herm_rejects_unequal_lengths():
    with pytest.raises(DimensionMismatch):
        herm((1.0, 2.0), (1.0,))
    with pytest.raises(DimensionMismatch):
        herm(np.array([1.0]), [1.0, 0.0])


# ---------------------------------------------------------------------------
# constructors validate tuples, lists and arrays alike
# ---------------------------------------------------------------------------

CONTAINERS = [tuple, list, np.array]


@pytest.mark.parametrize("box", CONTAINERS)
def test_cvector_rejects_non_finite_and_empty(box):
    for bad in ([math.nan, 1.0], [1.0, complex(0.0, math.inf)], [-math.inf]):
        with pytest.raises(InvalidPoint):
            CVector(box(bad))
    with pytest.raises(InvalidPoint):
        CVector(box([]))
    assert CVector(box([0.5, 1j])).coords == (0.5 + 0j, 1j)


@pytest.mark.parametrize("box", CONTAINERS)
def test_ballpoint_rejects_outside_and_non_finite(box):
    for bad in ([0.8, 0.7], [1.0, 0.0], [math.nan, 0.0], [0.1, math.inf]):
        with pytest.raises(InvalidPoint):
            BallPoint(box(bad))
    assert BallPoint(box([0.5, 0.5j])).v.coords == (0.5 + 0j, 0.5j)


@pytest.mark.parametrize("box", CONTAINERS)
def test_siegelpoint_rejects_outside_and_non_finite(box):
    for z, w in ((1.0, [1.0]), (0.5, [0.8j]), (1.0, [math.inf]), (-1.0, [0.0])):
        with pytest.raises(InvalidPoint):
            SiegelPoint(z, box(w))
    for z in (complex(math.nan, 0.0), complex(2.0, math.inf)):
        with pytest.raises(InvalidPoint):
            SiegelPoint(z, box([0.0]))
    p = SiegelPoint(2.0, box([0.5 + 0.5j]))
    assert p.w == (0.5 + 0.5j,) and type(p.w[0]) is complex


@pytest.mark.parametrize("box", CONTAINERS)
def test_siegelpoint_rejects_nan_tangential_coordinate(box):
    for w in ([math.nan], [complex(0.0, math.nan)], [0.1, complex(math.nan, 0.2)]):
        with pytest.raises(InvalidPoint, match="NaN tangential coordinate"):
            SiegelPoint(5.0, box(w))


# ---------------------------------------------------------------------------
# the per-point path is numpy-free
# ---------------------------------------------------------------------------

def test_scalar_path_calls_no_numpy_array_function(monkeypatch):
    fixtures = {name: load_descriptor(str(fixture_path(name))) for name in FIXTURES}
    chain = SiegelAutomorphism((
        Dilation(2.5),
        Translation(0.7, (0.3 - 0.2j,)),
        Rotation((complex(math.cos(1.0), math.sin(1.0)),)),
        Inversion(),
    ))
    numpy_dir = os.path.dirname(np.__file__)
    calls = []

    def profile(frame, event, arg):
        # every Python function in numpy's package, and every builtin numpy exports
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and (getattr(arg, "__module__", None) or "").startswith("numpy"):
            calls.append(arg.__name__)

    def recorded(ufunc):
        def call(*args, **kwargs):
            calls.append(ufunc.__name__)
            return ufunc(*args, **kwargs)
        return call

    # a ufunc call raises no profile event, so np.<ufunc> records itself
    for name, obj in vars(np).items():
        if isinstance(obj, np.ufunc):
            monkeypatch.setattr(np, name, recorded(obj))

    p = SiegelPoint(1.3 + 0.2j, (0.3 - 0.1j,))
    q = SiegelPoint(0.9 - 0.4j, (0.2 + 0.1j,))
    sys.setprofile(profile)
    try:
        d = geometry.dist_siegel(p, q)
        moved = geometry.dist_siegel(geometry.apply_automorphism(chain, p),
                                     geometry.apply_automorphism(chain, q))
        for name in FIXTURES:
            maps.evaluate(fixtures[name], p)
        steps = [(name, zn, maps.evaluate(f, dynamics.backward_step(f, zn, 0.5)))
                 for name, f in fixtures.items()
                 for zn in (SiegelPoint(1.0, (0.0,)), SiegelPoint(5.0, (0.0,)))]
    finally:
        sys.setprofile(None)
    assert calls == [], f"numpy called on the scalar path: {sorted(set(calls))}"
    assert d > 0.0 and abs(moved - d) < 1e-12
    for name, zn, back in steps:
        if zn.z == 1.0:  # the elliptic fixture's fixed point; every family returns it exactly
            assert back == zn, name
        else:
            assert geometry.dist_siegel(back, zn) < DEFAULT_POLICY.orbit_tol, name
