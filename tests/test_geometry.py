import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dynamics.errors import DimensionMismatch, InvalidPoint
from siegel_dynamics.geometry import (
    BallPoint,
    BoundaryPoint,
    CVector,
    Dilation,
    Horosphere,
    Inversion,
    KoranyiRegion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    Translation,
    apply_automorphism,
    boundary_projection,
    build_automorphism,
    cayley_to_siegel,
    cayley_to_siegel_alt,
    compose_automorphisms,
    defect,
    dist_ball,
    dist_siegel,
    horosphere_contains,
    hyperbolic_ball_extremes,
    invert_automorphism,
    julia_quotient,
    koranyi_contains,
    koranyi_ratio,
    one_minus_sq_ball_norm,
    recentering_translation,
    siegel_inversion,
    siegel_to_ball,
    sq_norm,
)

from conftest import accuracy_ledger, random_ball, random_siegel

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# point validity
# ---------------------------------------------------------------------------

def test_ball_point_rejects_norm_ge_one():
    with pytest.raises(InvalidPoint):
        BallPoint(CVector((1.0, 0.0)))
    with pytest.raises(InvalidPoint):
        BallPoint(CVector((0.8, 0.7)))


def test_siegel_point_rejects_nonpositive_defect():
    with pytest.raises(InvalidPoint):
        SiegelPoint(1.0, (1.0,))
    with pytest.raises(InvalidPoint):
        SiegelPoint(-0.1, ())


def test_siegel_point_converts_and_rejects_with_its_messages():
    assert SiegelPoint(2, 1).coords == (2 + 0j, 1 + 0j)  # an int w is one coordinate
    assert SiegelPoint(1.0, [0.5, 0.5j]).w == (0.5 + 0j, 0.5j)
    p = SiegelPoint(3, 0.5j)  # so is a scalar w
    assert (p.w, p.t) == ((0.5j,), 2.75) and type(p.z) is complex
    cases = [
        ((math.nan, (0j,)), "non-finite z"),
        ((complex(1.0, math.inf), (0j,)), "non-finite z"),
        ((math.inf, (math.nan,)), "non-finite z"),
        ((1.0, (complex(0.0, math.nan),)), "NaN tangential coordinate"),
        ((1.0, (math.inf,)), "defect -inf <= 0: not in the Siegel domain"),
        ((1.0, [1.0]), "defect 0.0 <= 0: not in the Siegel domain"),
        ((1.0 + 5j, (1.0, 1j)), "defect -1.0 <= 0: not in the Siegel domain"),
        ((-0.0, ()), "defect -0.0 <= 0: not in the Siegel domain"),
    ]
    for (z, w), message in cases:
        with pytest.raises(InvalidPoint) as err:
            SiegelPoint(z, w)
        assert type(err.value) is InvalidPoint and str(err.value) == message
    with pytest.raises(TypeError):
        SiegelPoint(1.0, None)
    with pytest.raises(ValueError):
        SiegelPoint(1.0, ["x"])


def test_quotients_at_a_ball_vertex_are_inf_where_the_gap_underflows():
    """1 - ||C^{-1}(p)||^2 = 4t/|z + 1|^2 underflows to 0 for t = 1e-300 at
    |z| = 1e200; the quotients there exceed the double range, as at the
    equivalent Siegel vertex (0, 0), which gives inf."""
    far = SiegelPoint(complex(1e-300, 1e200), (0j,))
    near = SiegelPoint(2.0 + 1j, (0.3j,))
    ball = BoundaryPoint(v=CVector((-1.0, 0.0)), model="ball")
    siegel = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
    assert one_minus_sq_ball_norm(far) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for quotient in (julia_quotient, koranyi_ratio):
            assert quotient(far, ball) == quotient(far, siegel) == math.inf
            rows = quotient(SiegelRows.of([far, near, far]), ball).tolist()
            assert rows[0] == rows[2] == math.inf and rows[1] == quotient(near, ball)
            assert math.isfinite(rows[1])


def test_boundary_point_validity():
    BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    BoundaryPoint(v=CVector((1.0 + 2j, 1.0)), model="siegel")
    BoundaryPoint(at_infinity=True, model="siegel")
    with pytest.raises(InvalidPoint):
        BoundaryPoint(v=CVector((0.5, 0.0)), model="ball")
    with pytest.raises(InvalidPoint):
        BoundaryPoint(v=CVector((2.0, 1.0)), model="siegel")
    with pytest.raises(InvalidPoint):
        BoundaryPoint(at_infinity=True, model="ball")


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def test_cayley_center_to_base_point():
    p = cayley_to_siegel(BallPoint(CVector((0.0, 0.0))))
    assert p.z == 1.0 and p.w == (0.0,)


def test_cayley_near_boundary_high_precision_oracle():
    # oracle: evaluate (1+z)/(1-z) at z = -1 + 1e-9 with 50-digit arithmetic
    x = -1.0 + 1e-9
    p = cayley_to_siegel(BallPoint(CVector((x, 0.0))))
    with mpmath.workdps(50):
        z = mpmath.mpf(x)
        expected = (1 + z) / (1 - z)
        assert abs(p.z - complex(expected)) < 1e-22
        assert abs(defect(p) - float(expected)) < 1e-22
    assert abs(p.z - 5e-10) < 1e-6 * 1e-9


def test_cayley_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = random_siegel(rng)
        q = cayley_to_siegel(siegel_to_ball(p))
        assert abs(q.z - p.z) <= 1e-12 * (1 + abs(p.z))
        assert abs(q.w[0] - p.w[0]) <= 1e-12 * (1 + abs(p.w[0]))


def test_siegel_to_ball_examples():
    assert siegel_to_ball(SiegelPoint(1.0, (0.0,))).v.coords == (0.0, 0.0)
    for t in (0.25, 0.5, 3.0):
        b = siegel_to_ball(SiegelPoint(t, (0.0,)))
        assert abs(b.v.coords[0] - (t - 1) / (t + 1)) < 1e-15
    assert siegel_to_ball(SiegelPoint(2.0, (1.0,))).v.norm() < 1.0


def test_one_minus_sq_ball_norm_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = random_siegel(rng)
        direct = 1.0 - sq_norm(siegel_to_ball(p).v.coords)
        assert abs(one_minus_sq_ball_norm(p) - direct) < 1e-12


def test_inversion_swaps_zero_and_infinity_isometrically():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p, q = random_siegel(rng), random_siegel(rng)
        sp, sq_ = siegel_inversion(p), siegel_inversion(q)
        assert abs(dist_siegel(sp, sq_) - dist_siegel(p, q)) < 1e-12
        back = siegel_inversion(sp)
        assert abs(back.z - p.z) < 1e-12 * (1 + abs(p.z))
    # defect transforms as t / |z|^2
    p = SiegelPoint(2.0 + 1j, (0.5,))
    assert abs(defect(siegel_inversion(p)) - defect(p) / abs(p.z) ** 2) < 1e-15


def test_alternative_cayley_sends_one_to_origin_side():
    # the composed convention maps the ball point approaching (1, 0) to
    # Siegel points approaching 0
    p = cayley_to_siegel_alt(BallPoint(CVector((0.999, 0.0))))
    assert abs(p.z) < 1e-2
    assert defect(p) > 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_dist_ball_to_origin_is_norm():
    rng = np.random.default_rng(4)
    zero = BallPoint(CVector((0.0, 0.0)))
    for _ in range(100):
        z = random_ball(rng)
        assert abs(dist_ball(z, zero) - z.v.norm()) < 1e-14


def test_dist_ball_symmetric_zero_iff_equal():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z, w = random_ball(rng), random_ball(rng)
        assert abs(dist_ball(z, w) - dist_ball(w, z)) < 1e-15
        assert dist_ball(z, z) == 0.0


def test_dist_siegel_known_value_one_third():
    assert abs(dist_siegel(SiegelPoint(1.0, (0.0,)), SiegelPoint(0.5, (0.0,))) - 1 / 3) < 1e-15


def test_dist_siegel_axis_formula():
    one = SiegelPoint(1.0, (0.0,))
    for t in (0.1, 0.25, 0.5, 0.9):
        assert abs(dist_siegel(one, SiegelPoint(t, (0.0,))) - (1 - t) / (1 + t)) < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e-200, 1e-171, 1e155, 1e300])
def test_dist_siegel_far_from_unit_scale_is_one_third(t):
    # |s|^2 = |z_a + conj(z_b)|^2 alone would leave the double range here;
    # d(t, 2t) = (2t - t) / (2t + t) for every t > 0
    assert abs(dist_siegel(SiegelPoint(t, (0.0,)), SiegelPoint(2.0 * t, (0.0,))) - 1 / 3) < 1e-15


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_siegel(SiegelPoint(1.0, (0.0,)), SiegelPoint(1.0, ()))
    with pytest.raises(DimensionMismatch):
        dist_ball(BallPoint(CVector((0.0,))), BallPoint(CVector((0.0, 0.0))))


def test_dist_ball_accurate_near_the_sphere():
    # Cayley images of Siegel points with Re z ~ 1e2..1e4 and t in [1, 10]:
    # 1 - ||Z||^2 ~ 4t / |z + 1|^2 is 1e-3..1e-8 while d stays moderate
    rng = np.random.default_rng(11)
    worst = 0.0
    for scale in (1e2, 1e3, 1e4):
        for _ in range(10):
            pts = [accuracy_ledger.cayley_image(rng, 2, lambda rng: scale * rng.uniform(0.9, 1.1))
                   for _ in range(2)]
            ref = accuracy_ledger.mp_dist_ball(*pts)
            worst = max(worst, float(abs(dist_ball(*pts) - ref) / ref))
    assert worst <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_metric_consistency_property(seed):
    rng = np.random.default_rng(seed)
    p, q = random_siegel(rng), random_siegel(rng)
    assert abs(dist_siegel(p, q) - dist_ball(siegel_to_ball(p), siegel_to_ball(q))) < 1e-12


# ---------------------------------------------------------------------------
# defect, horospheres, Koranyi regions, projection
# ---------------------------------------------------------------------------

def test_defect_examples():
    assert defect(SiegelPoint(2.0, (1.0,))) == 1.0
    assert defect(SiegelPoint(1.0, (0.0,))) == 1.0
    p = SiegelPoint(3.0 + 2j, (0.5 + 0.5j,))
    d = Dilation(4.0)
    z, w = d.apply(p.z, p.w)
    assert abs(defect(SiegelPoint(z, w)) - defect(p) / 4.0) < 1e-15


def test_siegel_point_stores_its_defect_outside_eq_hash_and_repr():
    rng = np.random.default_rng(8)
    for _ in range(500):
        w = tuple(complex(a, b) for a, b in rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3))
        z = complex(10.0 ** rng.uniform(-12, 3) + sq_norm(w), rng.normal())
        if not z.real - sq_norm(w) > 0.0:  # t rounded away next to ||w||^2
            continue
        p = SiegelPoint(z, w)
        assert p.t.hex() == (p.z.real - sq_norm(p.w)).hex() == defect(p).hex()
    p = SiegelPoint(3.0 + 2j, (0.5 + 0.5j,))
    assert repr(p) == "SiegelPoint(z=(3+2j), w=((0.5+0.5j),))"
    assert [f.name for f in dataclasses.fields(p) if f.compare] == ["z", "w"]
    assert hash(p) == hash((p.z, p.w)) and p == SiegelPoint(3.0 + 2j, (0.5 + 0.5j,))
    q = dataclasses.replace(p, w=(1.5j,))
    assert q.t == 3.0 - 2.25 and dataclasses.replace(q, z=4.0).t == 4.0 - 2.25
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.t = 1.0


def test_horosphere_membership_siegel():
    h = Horosphere(model="siegel_at_infinity", level=1.0)
    assert horosphere_contains(h, SiegelPoint(2.0, (0.0,)))
    assert not horosphere_contains(h, SiegelPoint(1.0, (0.0,)))  # open: boundary excluded


def test_horosphere_ball_siegel_correspondence():
    rng = np.random.default_rng(6)
    x = BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    hb = Horosphere(model="ball", center=x, radius=1.0)
    hs = Horosphere(model="siegel_at_infinity", level=1.0)
    for _ in range(1000):
        p = random_siegel(rng)
        assert horosphere_contains(hb, siegel_to_ball(p)) == horosphere_contains(hs, p)


def test_koranyi_membership():
    q = BoundaryPoint(v=CVector((1.0, 0.0)), model="ball")
    k = KoranyiRegion(vertex=q, amplitude=2.0)
    assert koranyi_contains(k, BallPoint(CVector((0.0, 0.0))))  # ratio 1 < 2
    for eps in (1e-2, 1e-5, 1e-9):
        assert koranyi_contains(k, BallPoint(CVector((1.0 - eps, 0.0))))
    with pytest.raises(InvalidPoint):
        KoranyiRegion(vertex=q, amplitude=1.0)


def test_koranyi_contains_backward_axis_sequence():
    q = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
    k = KoranyiRegion(vertex=q, amplitude=3.0)
    for n in range(1, 30):
        z = siegel_to_ball(SiegelPoint(2.0 ** -n, (0.0,)))
        assert koranyi_contains(k, z)


def test_boundary_projection():
    assert boundary_projection(SiegelPoint(1.0, (0.0,))).coords == (0.0, 0.0)
    pr = boundary_projection(SiegelPoint(2.0 + 3j, (1.0,)))
    assert pr.coords == (1.0 + 3j, 1.0)
    # image sits exactly on the boundary
    assert pr.coords[0].real == sq_norm(pr.coords[1:])


def test_julia_quotient_matches_ball_formula():
    rng = np.random.default_rng(8)
    qb = BoundaryPoint(v=CVector((0.0, 1.0)), model="ball")
    for _ in range(200):
        p = random_siegel(rng)
        zb = np.array(siegel_to_ball(p).v.coords)
        direct = abs(1 - (zb * np.array([0, 1.0]).conjugate()).sum()) ** 2 / (1 - sq_norm(zb))
        assert abs(julia_quotient(p, qb) - direct) < 1e-10 * max(1, direct)


def test_julia_quotient_at_infinity_is_inverse_defect():
    p = SiegelPoint(5.0 + 1j, (0.5,))
    q = BoundaryPoint(at_infinity=True, model="siegel")
    assert abs(julia_quotient(p, q) - 1.0 / defect(p)) < 1e-15


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _random_automorphism(rng):
    prims = [
        Dilation(10.0 ** rng.uniform(-1, 1)),
        Translation(rng.normal(), (rng.normal() + 1j * rng.normal(),)),
        Rotation((np.exp(1j * rng.uniform(0, 2 * np.pi)),)),
        LinearDiag(2.0, (math.sqrt(2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),)),
        Inversion(),
    ]
    rng.shuffle(prims)
    return SiegelAutomorphism(tuple(prims[: rng.integers(1, 5)]))


def test_build_automorphism_kinds():
    assert build_automorphism("dilation", t=1.0).chain == ()  # identity dropped
    a = build_automorphism("translation", y=0.5, w0=(1j,))
    assert isinstance(a.chain[0], Translation)
    with pytest.raises(InvalidPoint):
        build_automorphism("rotation", omega=(2.0,))
    with pytest.raises(InvalidPoint):
        build_automorphism("spiral")


def test_translation_recenters_fixed_curve_point():
    # w0 = i r moves the boundary point (r^2, i r) to the origin
    r = 0.7
    q = BoundaryPoint(v=CVector((r * r, 1j * r)), model="siegel")
    h = recentering_translation(q)
    z, w = q.v.coords[0], np.array([q.v.coords[1]])
    for prim in h.chain:
        z, w = prim.apply(z, w)
    assert abs(z) < 1e-15 and abs(w[0]) < 1e-15


def test_automorphism_inverse_pairs():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a = _random_automorphism(rng)
        p = random_siegel(rng)
        q = apply_automorphism(invert_automorphism(a), apply_automorphism(a, p))
        assert abs(q.z - p.z) < 1e-9 * (1 + abs(p.z))
        assert abs(q.w[0] - p.w[0]) < 1e-9 * (1 + abs(p.w[0]))


def test_compose_is_apply_after_apply():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a, b = _random_automorphism(rng), _random_automorphism(rng)
        p = random_siegel(rng)
        lhs = apply_automorphism(compose_automorphisms(a, b), p)
        rhs = apply_automorphism(a, apply_automorphism(b, p))
        assert abs(lhs.z - rhs.z) < 1e-10 * (1 + abs(rhs.z))


def test_invert_compose_group_law():
    rng = np.random.default_rng(11)
    a, b = _random_automorphism(rng), _random_automorphism(rng)
    lhs = invert_automorphism(compose_automorphisms(a, b))
    rhs = compose_automorphisms(invert_automorphism(b), invert_automorphism(a))
    for _ in range(50):
        p = random_siegel(rng)
        u, v = apply_automorphism(lhs, p), apply_automorphism(rhs, p)
        assert abs(u.z - v.z) < 1e-10 * (1 + abs(v.z))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_automorphism_isometry_property(seed):
    rng = np.random.default_rng(seed)
    a = _random_automorphism(rng)
    p, q = random_siegel(rng), random_siegel(rng)
    assert abs(dist_siegel(apply_automorphism(a, p), apply_automorphism(a, q))
               - dist_siegel(p, q)) < 1e-12


def test_translation_and_dilation_defect_behavior():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = random_siegel(rng)
        h = SiegelAutomorphism((Translation(rng.normal(), (rng.normal() + 1j * rng.normal(),)),))
        assert abs(defect(apply_automorphism(h, p)) - defect(p)) < 1e-12 * (1 + defect(p))
        t = 10.0 ** rng.uniform(-1, 1)
        d = SiegelAutomorphism((Dilation(t),))
        assert abs(defect(apply_automorphism(d, p)) - defect(p) / t) < 1e-12 * (1 + defect(p))


def test_tau_for_axis_orbit_is_diagonal():
    # orbit Z_n = (2^-n, 0): tau_n = inverse dilation only
    n = 5
    tau = SiegelAutomorphism((Dilation(2.0 ** n), Translation(0.0, (0.0,)))).chain
    p = apply_automorphism(SiegelAutomorphism(tau), SiegelPoint(1.0, (0.0,)))
    assert p.z == 2.0 ** -n


# ---------------------------------------------------------------------------
# hyperbolic ball extremes and the norm-ratio bound
# ---------------------------------------------------------------------------

def test_hyperbolic_ball_extremes_degenerate_cases():
    z = BallPoint(CVector((0.3, 0.4j)))
    assert hyperbolic_ball_extremes(BallPoint(CVector((0.0, 0.0))), 0.6) == (0.0, 0.6)
    lo, hi = hyperbolic_ball_extremes(z, 0.0)
    assert abs(lo - z.v.norm()) < 1e-15 and abs(hi - z.v.norm()) < 1e-15
    with pytest.raises(ValueError):
        hyperbolic_ball_extremes(z, 1.0)


def test_hyperbolic_ball_extremes_sampling():
    rng = np.random.default_rng(13)
    z = random_ball(rng)
    d = 0.55
    lo, hi = hyperbolic_ball_extremes(z, d)
    found = 0
    while found < 1000:
        w = random_ball(rng)
        if dist_ball(z, w) <= d:
            found += 1
            assert lo - 1e-12 <= w.v.norm() <= hi + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_norm_ratio_bound_property(seed, dim):
    rng = np.random.default_rng(seed)
    z, w = random_ball(rng, dim), random_ball(rng, dim)
    d = dist_ball(z, w)
    lhs = (1 - w.v.norm()) / (1 - z.v.norm())
    rhs = (1 + d) / (1 - d * z.v.norm())
    assert lhs <= rhs * (1 + 1e-10)
