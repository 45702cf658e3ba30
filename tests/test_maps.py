import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dynamics.errors import InvalidDescriptor, InvalidPoint
from siegel_dynamics.geometry import (
    BallPoint,
    CVector,
    SiegelPoint,
    Translation,
    SiegelAutomorphism,
    cayley_to_siegel,
    defect,
    dist_siegel,
    siegel_to_ball,
)
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    Conjugated,
    DiagonalLinear,
    DiskLinear,
    FixedPointSet,
    HalfPlaneAffine,
    HalfPlaneLinear,
    Lifted,
    QuadraticSiegel,
    classify,
    classify_quadratic,
    evaluate,
    expandable_decompose,
    iterate,
    preimage_candidates,
    quadratic_iterate_closed,
    quadratic_power,
)

from conftest import random_siegel

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
ELLIPTIC = BallProduct((BlaschkeDeg2(0.5), DiskLinear(0.5)))


def random_self_map_triple(rng):
    a = rng.uniform(0.3, 3.0)
    c_mag = rng.uniform(0.0, math.sqrt(a) * 0.95)
    b_mag = rng.uniform(0.0, a - c_mag ** 2)
    b = b_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    c = c_mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return a, b, c


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_quadratic_example():
    assert evaluate(QUADPOL, SiegelPoint(2.0, (1.0,))).coords == (5.0, 1.0)


def test_evaluate_lifted_example():
    f = Lifted(HalfPlaneLinear(2.0))  # f(z, w) = (2z - w^2, w)
    assert evaluate(f, SiegelPoint(2.0, (1.0,))).coords == (3.0, 1.0)


def test_evaluate_diagonal_example():
    f = DiagonalLinear(2.0, (math.sqrt(2.0),))
    assert evaluate(f, SiegelPoint(1.0, (0.0,))).coords == (2.0, 0.0)


def test_self_map_closure_random():
    rng = np.random.default_rng(21)
    fams = [QUADPOL, Lifted(HalfPlaneLinear(2.0)),
            DiagonalLinear(2.0, (1.0,)), ELLIPTIC,
            QuadraticSiegel(0.5, 0.25, 0.5)]
    for _ in range(1000):
        f = fams[rng.integers(len(fams))]
        p = random_siegel(rng)
        q = evaluate(f, p)  # constructor enforces validity
        assert defect(q) > 0


def test_conjugated_evaluation_matches_composition():
    rng = np.random.default_rng(22)
    by = SiegelAutomorphism((Translation(0.5, (0.2 + 0.1j,)),))
    g = Conjugated(QUADPOL, by)
    from siegel_dynamics.geometry import apply_automorphism, invert_automorphism
    for _ in range(100):
        p = random_siegel(rng)
        direct = apply_automorphism(by, evaluate(QUADPOL, apply_automorphism(invert_automorphism(by), p)))
        got = evaluate(g, p)
        assert abs(got.z - direct.z) < 1e-12 * (1 + abs(direct.z))


# ---------------------------------------------------------------------------
# quadratic closed forms
# ---------------------------------------------------------------------------

def test_quadratic_inverse_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        p = random_siegel(rng)
        [(z, w)] = QUADPOL.preimages(p)
        img_z = QUADPOL.A * z + QUADPOL.B * w * w
        img_w = QUADPOL.C * w
        assert abs(img_z - p.z) < 1e-12 * (1 + abs(p.z))
        assert abs(img_w - p.w[0]) < 1e-12


def test_quadratic_inverse_iterate_chain():
    # forward: (1.5, 1) -> (4, 1) -> (9, 1); inverse walks back
    p0 = SiegelPoint(1.5, (1.0,))
    p2 = iterate(QUADPOL, 2, p0)
    [(z, w)] = QUADPOL.preimages(p2)
    p1 = SiegelPoint(z, (w,))  # raises InvalidPoint outside the domain
    assert abs(p1.z - evaluate(QUADPOL, p0).z) < 1e-12


def test_quadratic_inverse_can_exit_domain():
    # preimage of (2.1, 1) under (2z + w^2, w) is (0.55, 1): defect < 0
    [(z, w)] = QUADPOL.preimages(SiegelPoint(2.1, (1.0,)))
    assert z.real - abs(w) ** 2 < 0
    with pytest.raises(InvalidPoint):
        SiegelPoint(z, (w,))


def test_quadratic_inverse_rejects_degenerate():
    # A = 0 or C = 0: f is not invertible, and there is no preimage to offer
    for f in (QuadraticSiegel(2.0, 0.0, 0.0), QuadraticSiegel(0.0, 0.0, 0.0)):
        assert f.preimages(SiegelPoint(1.0, (0.0,))) == []


def test_iterate_closed_known_value():
    # f^3(z, w) = (8z + 7w^2, w) for A=2, B=C=1
    got = quadratic_iterate_closed(QUADPOL, 3, SiegelPoint(2.0, (1.0,)))
    assert got.coords == (23.0, 1.0)


def test_iterate_closed_n0_is_identity():
    p = SiegelPoint(1.3 + 0.2j, (0.4,))
    assert quadratic_iterate_closed(QUADPOL, 0, p) is p


def test_iterate_closed_matches_repeated_random_triples():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a, b, c = random_self_map_triple(rng)
        f = QuadraticSiegel(a, b, c)
        for _ in range(10):
            p = random_siegel(rng, t_lo=-1, t_hi=1)
            for n in (1, 5, 13):
                closed = quadratic_iterate_closed(f, n, p)
                rep = iterate(f, n, p)
                scale = 1 + abs(rep.z)
                assert abs(closed.z - rep.z) < 1e-10 * scale
                assert abs(closed.w[0] - rep.w[0]) < 1e-10


def test_iterate_closed_resolvent_singularity():
    # A = C^2 exercises the geometric-sum branch (self-map forces B = 0)
    f = QuadraticSiegel(4.0, 0.0, -2.0)
    p = SiegelPoint(1.0 + 1j, (0.3,))
    closed = quadratic_iterate_closed(f, 6, p)
    rep = iterate(f, 6, p)
    assert abs(closed.z - rep.z) < 1e-10 * (1 + abs(rep.z))
    assert abs(closed.w[0] - rep.w[0]) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 10, 60, 300])
def test_iterate_closed_sum_exact_at_a_equal_c_squared(n):
    # A = C^2 = 4: S_n = n 4^(n-1), so f^n(2, 1) = (2 4^n + n 4^(n-1), 2^n) exactly
    # (B = 1 makes S_n visible; the descriptor need not be a self-map here)
    got = quadratic_iterate_closed(QuadraticSiegel(4.0, 1.0, 2.0), n, SiegelPoint(2.0, (1.0,)))
    assert got.z == complex(4 ** (n - 1) * (8 + n))
    assert got.w == (complex(2 ** n),)


@pytest.mark.parametrize("f, n", [
    (QuadraticSiegel(1e30, 0j, 1.0), 11),  # A^11 = 1e330
    (QuadraticSiegel(2.0, 0j, 1e200), 2),  # C^2 = 1e400
    (QuadraticSiegel(2.0, 1.0, 1.0), 1024),  # A^1024 = 2^1024
], ids=["A", "C", "deep"])
def test_power_beyond_the_double_range_is_a_typed_error(f, n):
    # f^(n - 1) is in range; f^n is the package's typed error, not CPython's OverflowError
    quadratic_power(f, n - 1)
    with pytest.raises(InvalidPoint, match=rf"^f\^{n} .*A\^{n} or C\^{n}"):
        quadratic_power(f, n)
    with pytest.raises(InvalidPoint, match=rf"^f\^{n} "):
        quadratic_iterate_closed(f, n, SiegelPoint(2.0, (1.0,)))


@pytest.mark.parametrize("n", [2, 10, 60, 300])
def test_iterate_closed_sum_accurate_near_a_equal_c_squared(n):
    # the quotient (A^n - C^2n)/(A - C^2) is off by 2e-11..2e-9 relative here
    A, C = 4.0, 2.0 * (1.0 + 1e-9)
    got = quadratic_iterate_closed(QuadraticSiegel(A, 1.0, C), n, SiegelPoint(2.0, (1.0,)))
    with mpmath.workprec(200):
        a, c = mpmath.mpf(A), mpmath.mpf(C)
        ref = 2 * a ** n + mpmath.fsum(a ** (n - 1 - j) * c ** (2 * j) for j in range(n))
        assert float(abs(got.z.real - ref) / ref) < 1e-14
    assert got.z.imag == 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_example_hyperbolic_curve():
    rep = classify_quadratic(2.0, 1.0, 1.0)
    assert rep.is_self_map and rep.type == "hyperbolic"
    assert rep.denjoy_wolff.at_infinity
    assert rep.multiplier_at_dw == 0.5
    assert rep.brfp_multiplier == 2.0
    assert rep.fixed_point_set.kind == "boundary_curve"
    # the curve is {(r^2, i r)}: check it is fixed by the defining formula
    for r in (0.3, 1.0, 2.5):
        z, w = rep.fixed_point_set.curve_point(r).coords
        assert abs(w - 1j * r) < 1e-12
        assert abs((2.0 * z + w * w) - z) < 1e-12
        assert abs(z.real - abs(w) ** 2) < 1e-12  # on the boundary


def test_classify_example_dw_at_zero():
    rep = classify_quadratic(0.5, 0.25, 0.5)
    assert rep.is_self_map and rep.type == "hyperbolic"
    assert rep.denjoy_wolff.v.coords == (0.0, 0.0)
    assert rep.multiplier_at_dw == 0.5


def test_classify_not_self_map():
    rep = classify_quadratic(1.0, 0.5, 1.0)
    assert not rep.is_self_map and rep.type == "not-self-map"


def test_classify_identity_and_degenerate():
    assert classify_quadratic(1.0, 0.0, 1.0).type == "identity"
    assert classify_quadratic(2.0, 0.0, 0.0).type == "degenerate-projection"
    assert classify_quadratic(1.0, 0.0, 0.5).type == "elliptic"


def test_classify_conjugation_covariance():
    # translation along the fixed curve conjugates the map to itself
    r = 0.8
    h = SiegelAutomorphism((Translation(0.0, (1j * r,)),))
    g = Conjugated(QUADPOL, h)
    rng = np.random.default_rng(25)
    for _ in range(100):
        p = random_siegel(rng)
        u, v = evaluate(g, p), evaluate(QUADPOL, p)
        assert abs(u.z - v.z) < 1e-10 * (1 + abs(v.z))
        assert abs(u.w[0] - v.w[0]) < 1e-12
    assert classify(g).brfp_multiplier == classify(QUADPOL).brfp_multiplier


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_COMPLEX = NON_FINITE + [complex(1.0, math.nan), complex(0.0, -math.inf)]
QUADRATIC = {"A": 2.0, "B": 0.5, "C": 1.0}
MAP_PARAMETERS = [
    (QuadraticSiegel, QUADRATIC, "A", NON_FINITE),
    (QuadraticSiegel, QUADRATIC, "B", NON_FINITE_COMPLEX),
    (QuadraticSiegel, QUADRATIC, "C", NON_FINITE_COMPLEX),
    (DiagonalLinear, {"alpha": 2.0, "lam": (1.0,)}, "alpha", NON_FINITE),
    (DiagonalLinear, {"alpha": 2.0, "lam": (1.0,)}, "lam", [(1.0, x) for x in NON_FINITE_COMPLEX]),
    (HalfPlaneLinear, {"c": 2.0}, "c", NON_FINITE),
    (HalfPlaneAffine, {"c": 2.0, "b": 0.5}, "c", NON_FINITE),
    (HalfPlaneAffine, {"c": 2.0, "b": 0.5}, "b", NON_FINITE),
    (DiskLinear, {"c": 0.5}, "c", NON_FINITE_COMPLEX),
]


@pytest.mark.parametrize("cls, good, name, bads", MAP_PARAMETERS,
                         ids=[f"{c.__name__}.{name}" for c, _, name, _ in MAP_PARAMETERS])
def test_map_constructors_reject_non_finite_parameters(cls, good, name, bads):
    cls(**good)
    for bad in bads:
        with pytest.raises(InvalidDescriptor, match=rf"\b{name} = "):
            cls(**(good | {name: bad}))


# ---------------------------------------------------------------------------
# lifted maps
# ---------------------------------------------------------------------------

def test_lift_rejects_wrong_model_and_contracting():
    with pytest.raises(InvalidDescriptor, match="^Lifted needs a half-plane map$"):
        Lifted(BlaschkeDeg2(0.5))
    # t' = c t + 2(c - 1)(Im w)^2: for c = 0.5 the point (1.1, i) would go to defect -0.95
    for phi in (HalfPlaneLinear(0.5), HalfPlaneAffine(0.5, 1.0)):
        with pytest.raises(InvalidDescriptor, match=r"^lift needs Denjoy-Wolff point at infinity \(c >= 1\)$"):
            Lifted(phi)
    # c = 1 is still a self-map: (z, w) |-> (z + i b, w)
    for phi, b in ((HalfPlaneLinear(1.0), 0.0), (HalfPlaneAffine(1.0, 0.5), 0.5)):
        assert evaluate(Lifted(phi), SiegelPoint(1.5, (1j,))) == SiegelPoint(1.5 + 1j * b, (1j,))


def test_lifted_fixed_curve_points():
    f = Lifted(HalfPlaneLinear(2.0))
    fps = f.fixed_point_set()
    assert fps.kind == "boundary_curve"
    for t in (0.5, 1.0, 2.0):
        z, w = fps.curve_point(t).coords
        assert abs(z - t * t) < 1e-12 and abs(w - t) < 1e-12
        # fixed: phi(z - w^2) + w^2 = 2(z - w^2) + w^2 = z when z = w^2
        assert abs(2.0 * (z - w * w) + w * w - z) < 1e-12


def test_lifted_identity_fixes_every_point():
    # c = 1, b = 0: phi is the identity, and so is its lift, as classify_quadratic reports it
    want = FixedPointSet("interior_line", "every point is fixed")
    assert classify_quadratic(1.0, 0j, 1.0).fixed_point_set == want
    for phi in (HalfPlaneLinear(1.0), HalfPlaneAffine(1.0, 0.0), HalfPlaneAffine(1.0, -0.0)):
        assert Lifted(phi).fixed_point_set() == want
        p = SiegelPoint(1.5 - 0.25j, (0.3 + 1j,))
        assert evaluate(Lifted(phi), p) == p


def test_lifted_translation_fixes_no_point():
    # c = 1, b != 0: the lift is (z, w) |-> (z + i b, w), which moves every point
    for b in (0.5, -2.0):
        assert Lifted(HalfPlaneAffine(1.0, b)).fixed_point_set() == FixedPointSet("none")


def test_lifted_iterates_closed_form():
    f = Lifted(HalfPlaneLinear(2.0))
    rng = np.random.default_rng(26)
    for _ in range(100):
        p = random_siegel(rng)
        n = int(rng.integers(1, 8))
        rep = iterate(f, n, p)
        w = p.w[0]
        closed = 2.0 ** n * (p.z - w * w) + w * w
        assert abs(rep.z - closed) < 1e-10 * (1 + abs(closed))
        assert rep.w[0] == w


def test_lifted_affine_brfp():
    phi = HalfPlaneAffine(3.0, 1.5)
    assert phi.brfp() == 1j * (-0.75)
    fps = Lifted(phi).fixed_point_set()
    z, w = fps.curve_point(0.6).coords
    # on the shifted curve (y0 i + t^2, t), the point is fixed
    u = z - w * w
    assert abs(3.0 * u + 1.5j - u) < 1e-12


def test_blaschke_boundary_data():
    b = BlaschkeDeg2(0.5)
    assert b.apply(1.0) == 1.0
    assert abs(b.boundary_derivative() - 4.0 / 3.0) < 1e-15
    # derivative oracle by the quotient rule at z = 1
    a = 0.5
    oracle = ((2 + a) * (1 + a) - (1 + a) * a) / (1 + a) ** 2
    assert abs(b.boundary_derivative() - oracle) < 1e-15
    for x in (0.2, 0.7, -0.3 + 0.4j):
        for xi in b.preimages(x):
            assert abs(b.apply(xi) - x) < 1e-12


def blaschke_root_errors(a: float, z: complex) -> list[tuple[float, float, float]]:
    """For each root xi of b(xi) = z: its distance to the nearest root of
    xi^2 + a (1 - z) xi - z = 0 at 50 digits (the given doubles taken exactly), that
    root's modulus, and the round trip |b(xi) - z| / |z| in double."""
    b = BlaschkeDeg2(a)
    got = b.preimages(z)
    with mpmath.workdps(50):
        p = mpmath.mpf(a) * (1 - mpmath.mpc(z.real, z.imag))
        s = mpmath.sqrt(p * p + 4 * mpmath.mpc(z.real, z.imag))
        ref = [(-p + s) / 2, (-p - s) / 2]
        gaps = [[float(abs(mpmath.mpc(xi.real, xi.imag) - r)) for r in ref] for xi in got]
    nearest = [min((0, 1), key=g.__getitem__) for g in gaps]
    assert sorted(nearest) == [0, 1]  # one root each
    return [(g[k], float(abs(ref[k])), abs(b.apply(xi) - z) / abs(z))
            for xi, g, k in zip(got, gaps, nearest)]


def test_blaschke_preimages_match_mpmath_to_1e_15():
    # 3,000 roots: a in (0.05, 0.95), z anywhere in the disk with 1 - |z| from 1e-12 to 1,
    # plus z just inside 1 (where p = a (1 - z) -> 0) and just inside -1
    rng = np.random.default_rng(19)
    zs = [cmath.rect(1.0 - 10.0 ** float(rng.uniform(-12.0, 0.0)), float(rng.uniform(-math.pi, math.pi)))
          for _ in range(1476)]
    zs += [complex(s * (1.0 - 10.0 ** -k)) for s in (1.0, -1.0) for k in range(1, 13)]
    worst = 0.0
    for z in zs:
        for gap, size, trip in blaschke_root_errors(float(rng.uniform(0.05, 0.95)), z):
            worst = max(worst, gap / size)
            assert trip < 1e-14  # b's own rounding, amplified by |b'| up to 2 / (1 - a)
    assert worst <= 1e-15


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_blaschke_preimages_at_a_double_root(a):
    # p^2 + 4z = 0 at z = ((a^2 - 2) + 2 sqrt(1 - a^2)) / a^2; rounding z leaves a
    # discriminant of a few ulps of p^2, so each root is only determined to about
    # sqrt(eps (|p|^2 + 4|z|)), but b(xi) = z still holds to 1e-15
    z = complex(((a * a - 2.0) + 2.0 * math.sqrt(1.0 - a * a)) / (a * a))
    cond = math.sqrt(2.0 ** -52 * (abs(a * (1.0 - z)) ** 2 + 4.0 * abs(z)))
    for gap, _, trip in blaschke_root_errors(a, z):
        assert gap < cond and trip < 1e-15


def test_blaschke_preimages_of_the_centre_are_minus_a_and_0():
    # the stationary start: Siegel (1, 0) is the ball's origin, whose preimages are -a and 0
    for a in (0.05, 0.5, 0.95):
        assert BlaschkeDeg2(a).preimages(0j) == [complex(-a), 0j]


# ---------------------------------------------------------------------------
# fixed-point sets and expandable structure
# ---------------------------------------------------------------------------

def test_known_brfp_sets():
    assert DiagonalLinear(2.0, (1.0,)).fixed_point_set().kind == "origin_infinity"
    fps = ELLIPTIC.fixed_point_set()
    assert fps.kind == "point"
    assert fps.data["ball_coords"] == (1.0, 0.0)
    assert abs(fps.data["multiplier"] - 4.0 / 3.0) < 1e-15


def test_expandable_decompose_examples():
    th = 0.9
    d1 = expandable_decompose(DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(1j * th),)))
    assert d1.alpha == 2.0 and d1.L == 1
    assert abs(d1.omega[0] - cmath.exp(1j * th)) < 1e-12
    d2 = expandable_decompose(DiagonalLinear(2.0, (1.0,)))
    assert d2.L == 0 and d2.omega == (1.0,)
    d3 = expandable_decompose(QUADPOL)
    assert d3.alpha == 2.0 and d3.tangential == (1.0,) and d3.L == 0
    with pytest.raises(InvalidDescriptor):
        expandable_decompose(ELLIPTIC)


# ---------------------------------------------------------------------------
# preimage candidates
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_preimage_candidates_forward_roundtrip(seed):
    rng = np.random.default_rng(seed)
    fams = [QUADPOL, Lifted(HalfPlaneLinear(2.0)), DiagonalLinear(2.0, (1.0,)), ELLIPTIC]
    f = fams[rng.integers(len(fams))]
    p = random_siegel(rng, t_lo=-1, t_hi=1)
    cands = preimage_candidates(f, p)
    assert type(cands) is list
    for c in cands:
        try:
            q = SiegelPoint(c[0], c[1:])
        except Exception:
            continue
        img = evaluate(f, q)
        assert abs(img.z - p.z) < 1e-8 * (1 + abs(p.z))
        assert abs(img.w[0] - p.w[0]) < 1e-8
