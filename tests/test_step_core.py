"""A backward step's scalar core against the rules it keeps.

`backward_step` keeps a running best; its reference below is the earlier rule,
the list of admissible (step, point) pairs and `min` keyed on (step, t).
`SiegelPoint` sets its fields itself and then runs `__post_init__`; the tests
pin the dataclass contract that the generated constructor gave, and compare
each point and error with the earlier constructor, which converted z and every
w first (a tuple of exact `complex` is now kept as given).  The Cayley
helpers divide several numerators by one divisor with Smith's branch, ratio
and scale prepared once (`geometry._cdivs`); the reference is the earlier
per-call `_cdiv` formula.  Floats are compared by `float.hex`.
"""

import cmath
import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics import geometry as geo
from siegel_dynamics import maps
from siegel_dynamics import serialize as ser
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.errors import InvalidPoint, NoBackwardStep
from siegel_dynamics.geometry import ComplexRows, SiegelPoint, _ball_coords, _cdiv, _cdivs, _siegel_coords
from siegel_dynamics.policy import DEFAULT_POLICY

MAPS = {name: ser.load_descriptor(str(fixture_path(name))) for name in FIXTURES}


# ---------------------------------------------------------------------------
# references: the earlier rules
# ---------------------------------------------------------------------------

def ref_backward_step(f, zn: SiegelPoint, a: float, steps: list[float] | None = None) -> SiegelPoint:
    """The admissible list and min(key=(step, t)): the first of equal keys wins."""
    if not 0.0 < a < 1.0:
        raise ValueError("step bound a must lie in (0, 1)")
    bound = a * (1.0 + DEFAULT_POLICY.validity_tol)
    admissible: list[tuple[float, SiegelPoint]] = []
    nearest = math.inf
    for c in maps.preimage_candidates(f, zn):
        try:
            p = SiegelPoint(c[0], c[1:])
        except InvalidPoint:
            continue
        d = geo.dist_siegel(zn, p)
        if d <= bound:
            admissible.append((d, p))
        elif d < nearest:
            nearest = d
    if not admissible:
        near = f" (nearest at step {nearest:.3g})" if nearest < math.inf else ""
        raise NoBackwardStep(f"no in-domain preimage within step bound {a}{near}")
    d, p = admissible[0] if len(admissible) == 1 else min(admissible, key=lambda c: (c[0], c[1].t))
    if steps is not None:
        steps.append(d)
    return p


def ref_cdiv(a: complex, b: complex) -> complex:
    """The earlier scalar `_cdiv`: numpy's complex division, prepared on every call."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


def ref_siegel_coords(v):
    d = 1.0 - v[0]
    return (ref_cdiv(1.0 + v[0], d),) + tuple(ref_cdiv(c, d) for c in v[1:])


def ref_ball_coords(z, w):
    d = z + 1.0
    return ((z - 1.0) / d,) + tuple(ref_cdiv(2.0 * c, d) for c in w)


def cbits(c: complex) -> tuple[str, str]:
    return c.real.hex(), c.imag.hex()


def step_outcome(step, f, zn, a):
    """The chosen point's z, w and t and the recorded step as hex, or the error raised."""
    steps: list[float] = []
    try:
        p = step(f, zn, a, steps)
    except Exception as err:  # both sides must raise the same thing
        return "raised", type(err).__name__, str(err)
    return [cbits(c) for c in p.coords], p.t.hex(), [s.hex() for s in steps]


# ---------------------------------------------------------------------------
# backward_step on a stub family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stub:
    """A family of dimension 2 whose preimages are the given coordinate tuples, in order."""

    candidates: tuple
    dim = 2

    def preimages(self, p):
        return list(self.candidates)


ZN = SiegelPoint(1.0, (0j,))
# on the axis, d((1, 0), (t, 0)) = |1 - t| / (1 + t): t = 2 and t = 1/2 both lie at 1/3
FAR, NEAR = (2.0 + 0j, 0j), (0.5 + 0j, 0j)
# (1 +- 0.5i, 0) and (1 + 0.3^2, +-0.3): the same step and the same t, other points
TWINS = [((1.0 + 0.5j, 0j), (1.0 - 0.5j, 0j)), ((1.09 + 0j, 0.3 + 0j), (1.09 + 0j, -0.3 + 0j))]
OUTSIDE = [(-1.0 + 0j, 0j), (0.5 + 0j, 1.0 + 0j), (complex(math.nan, 0.0), 0j), (1.0 + 0j, complex(math.nan, 0.0)),
           (complex(math.inf, 0.0), 0j)]


def test_equal_steps_go_to_the_smaller_defect():
    far, near = SiegelPoint(FAR[0], FAR[1:]), SiegelPoint(NEAR[0], NEAR[1:])
    assert geo.dist_siegel(ZN, far) == geo.dist_siegel(ZN, near) and near.t < far.t
    for cands, t in (((FAR, NEAR), 0.5), ((NEAR, FAR), 0.5), ((FAR, NEAR, FAR), 0.5),
                     ((FAR, (1.3 + 0j, 0j), NEAR), 1.3)):  # a smaller step wins before any defect
        got = step_outcome(dyn.backward_step, Stub(cands), ZN, 0.34)
        assert got == step_outcome(ref_backward_step, Stub(cands), ZN, 0.34)
        assert got[1] == t.hex()


@pytest.mark.parametrize("first, second", TWINS)
def test_exact_key_twins_keep_the_first(first, second):
    p, q = SiegelPoint(first[0], first[1:]), SiegelPoint(second[0], second[1:])
    assert (geo.dist_siegel(ZN, p), p.t) == (geo.dist_siegel(ZN, q), q.t) and p != q
    for cands in ((first, second), (second, first), (first, second, first)):
        f = Stub(cands)
        got = dyn.backward_step(f, ZN, 0.9)
        assert got == SiegelPoint(cands[0][0], cands[0][1:])
        assert step_outcome(dyn.backward_step, f, ZN, 0.9) == step_outcome(ref_backward_step, f, ZN, 0.9)


def test_out_of_domain_candidates_are_skipped():
    for cands in (tuple(OUTSIDE) + (NEAR,), (NEAR,) + tuple(OUTSIDE), OUTSIDE[:2] + [FAR] + OUTSIDE[2:] + [NEAR]):
        got = step_outcome(dyn.backward_step, Stub(tuple(cands)), ZN, 0.34)
        assert got == step_outcome(ref_backward_step, Stub(tuple(cands)), ZN, 0.34)
        assert got[1] == (0.5).hex()


@pytest.mark.parametrize("cands, near", [
    (((4.0 + 0j, 0j), (9.0 + 0j, 0j)), " (nearest at step 0.6)"),  # steps 3/5 and 4/5
    (((9.0 + 0j, 0j), (4.0 + 0j, 0j)) + tuple(OUTSIDE), " (nearest at step 0.6)"),
    (tuple(OUTSIDE), ""),
    ((), ""),
])
def test_nothing_within_the_bound_names_the_nearest_step(cands, near):
    got = step_outcome(dyn.backward_step, Stub(cands), ZN, 0.34)
    assert got == step_outcome(ref_backward_step, Stub(cands), ZN, 0.34)
    assert got == ("raised", "NoBackwardStep", f"no in-domain preimage within step bound 0.34{near}")


def test_random_candidate_lists_match_the_reference():
    rng = np.random.default_rng(24)
    pool = [FAR, NEAR, *OUTSIDE, *(c for pair in TWINS for c in pair)]
    for _ in range(200):
        w = complex(rng.normal(), rng.normal()) * 0.4
        pool.append((complex(abs(w) ** 2 + 10 ** rng.uniform(-1, 1), rng.normal()), w))
    for _ in range(400):
        cands = tuple(pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 6)))
        c = pool[-1 - rng.integers(0, 200)]  # a step from one of the random points, or from ZN
        zn = ZN if rng.random() < 0.5 else SiegelPoint(c[0], c[1:])
        for a in (0.2, 0.34, 0.9):
            assert step_outcome(dyn.backward_step, Stub(cands), zn, a) == step_outcome(ref_backward_step,
                                                                                      Stub(cands), zn, a)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_steps_match_the_reference(name):
    rng = np.random.default_rng(7)
    f = MAPS[name]
    for _ in range(100):
        w = complex(rng.normal(), rng.normal()) * (0.3 if rng.random() < 0.5 else 0.0)
        zn = SiegelPoint(10 ** rng.uniform(-1, 1) + abs(w) ** 2 + 1j * rng.normal(), (w,))
        for a in (0.2, 0.34, 0.9):
            assert step_outcome(dyn.backward_step, f, zn, a) == step_outcome(ref_backward_step, f, zn, a)


# ---------------------------------------------------------------------------
# the SiegelPoint contract
# ---------------------------------------------------------------------------

def test_siegel_point_arguments():
    p = SiegelPoint(2.0, (0.5j,))
    assert SiegelPoint(z=2.0, w=(0.5j,)) == SiegelPoint(w=[0.5j], z=2) == p
    assert SiegelPoint(z=3.0).w == () and SiegelPoint(3.0).dim == 1
    for w in (0.5j, [0.5j], (0.5j,)):  # a scalar, a list or a tuple
        q = SiegelPoint(2.0, w)
        assert q.w == (0.5j,) and type(q.w) is tuple and type(q.w[0]) is complex
    r = SiegelPoint(3, 1)  # ints become complex
    assert (r.z, r.w, r.t) == (3 + 0j, (1 + 0j,), 2.0) and type(r.z) is complex and type(r.t) is float
    assert p.t == 2.0 - 0.25 and p.coords == (2 + 0j, 0.5j)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.z = 1.0
    with pytest.raises(TypeError):
        SiegelPoint(2.0, (0.5j,), 1.0)  # t is not an argument
    with pytest.raises(TypeError):
        SiegelPoint()


def test_siegel_point_replace_computes_t_anew():
    p = SiegelPoint(2.0 + 1j, (0.5j,))
    q = dataclasses.replace(p, z=3.0)
    assert q == SiegelPoint(3.0, (0.5j,)) and q.t == 3.0 - 0.25
    r = dataclasses.replace(p, w=[0.1])
    assert r.w == (0.1 + 0j,) and r.t.hex() == (2.0 - 0.1 * 0.1).hex()
    with pytest.raises(InvalidPoint, match="not in the Siegel domain"):
        dataclasses.replace(p, w=(2.0,))


def test_siegel_point_eq_hash_and_repr_ignore_t():
    p, q = SiegelPoint(2.0, (0.5j,)), SiegelPoint(2.0, (0.5j,))
    q.__dict__["t"] = 99.0  # a t that disagrees: == and hash read z and w only
    assert p == q and hash(p) == hash(q) == hash((2 + 0j, (0.5j,)))
    assert repr(q) == repr(p) == "SiegelPoint(z=(2+0j), w=(0.5j,))"
    assert p != SiegelPoint(2.0, (-0.5j,))
    assert [f.name for f in dataclasses.fields(SiegelPoint)] == ["z", "w", "t"]
    assert [(f.init, f.compare, f.repr) for f in dataclasses.fields(SiegelPoint)][2] == (False, False, False)


@pytest.mark.parametrize("z, w, error, message", [
    (complex(math.inf, 0.0), (0j,), InvalidPoint, "non-finite z"),
    (complex(1.0, math.nan), (), InvalidPoint, "non-finite z"),
    (1.0, (complex(0.0, math.nan),), InvalidPoint, "NaN tangential coordinate"),
    (0.5, (1.0,), InvalidPoint, "defect -0.5 <= 0: not in the Siegel domain"),
    (0.0, (), InvalidPoint, "defect 0.0 <= 0: not in the Siegel domain"),
    (1.0, ("x",), ValueError, "complex() arg is a malformed string"),
])
def test_siegel_point_error_texts(z, w, error, message):
    with pytest.raises(error) as info:
        SiegelPoint(z, w)
    assert str(info.value) == message


def test_one_post_init_per_point(monkeypatch):
    calls = []
    original = SiegelPoint.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(SiegelPoint, "__post_init__", counting)
    SiegelPoint(2.0, (0.5j,))
    dataclasses.replace(SiegelPoint(2.0), z=3.0)
    assert len(calls) == 3
    with pytest.raises(InvalidPoint):
        SiegelPoint(-1.0)
    assert len(calls) == 4
    z0 = SiegelPoint(0.7, (0j,))
    calls.clear()
    orbit = dyn.backward_orbit(MAPS["quadpol"], z0, 0.34, 40)
    assert len(orbit.points) == 41 and len(calls) == 40  # one candidate a step, no other point


def ref_point(z, w) -> tuple[complex, tuple, float]:
    """The earlier constructor: every input converted, then z checked, then t summed."""
    z = complex(z)
    try:
        w = tuple(map(complex, w))
    except TypeError:
        w = (complex(w),)
    if not cmath.isfinite(z):
        raise InvalidPoint("non-finite z")
    t = z.real - geo.sq_norm(w)
    if not t > 0.0:
        raise InvalidPoint("NaN tangential coordinate" if t != t else f"defect {t} <= 0: not in the Siegel domain")
    return z, w, t


Pair = namedtuple("Pair", "u v")
HUGE = complex(1e308, 1e308)  # abs() overflows
CONSTRUCTOR_CASES = [
    (2.5 + 0.1j, (0.3 + 0.2j,)), (2.0, (0.1j, 0.2 + 0j)), (3 + 0j, ()), (1e-300 + 1j, (1e-160j,)),
    (2.0, (np.complex128(0.3 + 0.1j),)), (np.complex128(2.0 + 1j), (0.3j,)), (2.0, (np.float64(0.5),)),
    (2, (1,)), (2.0, (True, 0j)), (2.0, [0.5j, 0.25]), (2.0, 0.5j), (3, 1), (2.0, np.float64(0.2)),
    (2.0, Pair(0.5j, 0.25 + 0j)), (2.0, (0.5j, 0.25)), (2.0, (0.25, 0.5j)), (9.0, "12"),
    (math.nan, (0j,)), (complex(1.0, math.inf), (0.5j,)), (math.inf, (math.nan,)), (math.nan, ["x"]),
    (math.nan, (HUGE,)), (1.0, (complex(0.0, math.nan),)), (1.0, (complex(math.inf, 0.0),)),
    (1.0, (complex(math.nan, math.inf),)), (1.0, (HUGE,)), (1.0, (0j, HUGE, "x")), (1.0, (HUGE, 1.0)),
    (0.5, (1 + 0j,)), (1.0, (1 + 0j,)), (-0.0, ()), (0.0, (0j,)), (-1.0 + 0j, (0j,)),
    (1.0, None), (1.0, ("x",)), (1.0, "x"), (None, (0j,)), ("2", (0j,)),
]


@pytest.mark.parametrize("z, w", CONSTRUCTOR_CASES)
def test_constructor_matches_the_converting_reference(z, w):
    # a tuple of exact complex is kept and summed in one loop; every result and error is the reference's
    try:
        want = ref_point(z, w)
    except Exception as err:  # noqa: BLE001 - the type and the text are what is compared
        with pytest.raises(type(err)) as info:
            SiegelPoint(z, w)
        assert type(info.value) is type(err) and str(info.value) == str(err)
        return
    p = SiegelPoint(z, w)
    assert type(p.z) is complex and type(p.w) is tuple and type(p.t) is float
    assert all(type(c) is complex for c in p.w)
    got = (p.z, p.w, p.t)
    assert [x.hex() for c in (got[0], *got[1]) for x in (c.real, c.imag)] == \
        [x.hex() for c in (want[0], *want[1]) for x in (c.real, c.imag)]
    assert p.t.hex() == want[2].hex()
    if type(w) is tuple and all(type(c) is complex for c in w):
        assert p.w is w  # kept, not copied


# ---------------------------------------------------------------------------
# the prepared scalar division
# ---------------------------------------------------------------------------

ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
AXIS_DIVISORS = [2.5, -2.5, 2.5j, -2.5j, complex(0.0, 3.0), complex(-0.0, 3.0), complex(3.0, -0.0),
                 complex(-3.0, 0.0), 1e-300, 1e300j, 1 + 1j, -1 + 1j, 1 - 1j, 5]


def random_complexes(rng, n):
    return [complex(x, y) for x, y in zip(rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n),
                                         rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n))]


def test_prepared_division_matches_cdiv_formula():
    rng = np.random.default_rng(2024)
    numerators = ZEROS + [1 + 2j, complex(-1e300, 1e-300), complex(math.inf, 1.0)] + random_complexes(rng, 40)
    signed = [complex(x, y) for x in (0.0, -0.0, 2.0) for y in (0.0, -0.0, -2.0) if x or y]  # b != 0
    for b in AXIS_DIVISORS + signed + random_complexes(rng, 200):
        want = [cbits(ref_cdiv(a, b)) for a in numerators]
        assert [cbits(c) for c in _cdivs(numerators, b)] == want
        assert [cbits(_cdiv(a, b)) for a in numerators] == want
        assert _cdivs([], b) == ()


def test_cayley_helpers_match_per_coordinate_division():
    rng = np.random.default_rng(99)
    for dim in (1, 2, 3):
        for _ in range(300):
            v = tuple(c * 0.9 / max(1.0, abs(c)) for c in random_complexes(rng, dim))
            if rng.random() < 0.2:  # signed zeros in every coordinate but the first
                v = v[:1] + tuple(ZEROS[i] for i in rng.integers(0, 4, dim - 1))
            assert [cbits(c) for c in _siegel_coords(v)] == [cbits(c) for c in ref_siegel_coords(v)]
            z, w = v[0] * 1e3, v[1:]
            assert [cbits(c) for c in _ball_coords(z, w)] == [cbits(c) for c in ref_ball_coords(z, w)]


def test_rows_divide_by_one_divisor_as_points_do():
    rng = np.random.default_rng(5)
    v = [tuple(c * 0.5 for c in random_complexes(rng, 3)) for _ in range(50)]
    cols = tuple(ComplexRows(np.array([p[j].real for p in v]), np.array([p[j].imag for p in v]))
                 for j in range(3))
    rows = _siegel_coords(cols)
    for i, p in enumerate(v):
        assert [cbits(c[i]) for c in rows] == [cbits(c) for c in ref_siegel_coords(p)]
