"""Rows against single points, bit for bit.

The row functions of `geometry`, and each scalar formula given `SiegelRows` or
`ComplexRows` instead of one point (`_cdiv`, `dist_siegel`, `julia_quotient`,
`koranyi_ratio`, `apply_automorphism`, each family's `evaluate`, the disk
maps' `apply`), must
give each row the bits the formula gives that row as one point, and a batch
holding an out-of-domain row must raise what the scalar function raises for
the first such row.  Floats are compared by `float.hex`.
"""

import itertools
import math

import numpy as np
import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics import geometry as geo
from siegel_dynamics import serialize as ser
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.conjugation import recenter_orbit_at_zero
from siegel_dynamics.errors import DimensionMismatch
from siegel_dynamics.geometry import (
    BallPoint,
    BoundaryPoint,
    ComplexRows,
    CVector,
    SiegelPoint,
    SiegelRows,
)
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    Conjugated,
    DiagonalLinear,
    DiskLinear,
    QuadraticSiegel,
    evaluate,
    evaluate_ball,
)

# rows with inf or NaN make numpy warn where CPython stays silent
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MAPS = {name: ser.load_descriptor(str(fixture_path(name))) for name in FIXTURES}
SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-300, -2.5e-310, 1e300, math.inf, -math.inf, math.nan]


def cbits(c: complex) -> tuple[str, str]:
    return c.real.hex(), c.imag.hex()


def column_bits(col: ComplexRows) -> list:
    return [cbits(col[i]) for i in range(len(col.real))]


def rows_bits(p: SiegelRows) -> list:
    return [tuple(cbits(c) for c in p.point(i).coords) for i in range(len(p.t))]


def point_bits(p: SiegelPoint) -> tuple:
    return tuple(cbits(c) for c in p.coords)


def column(values) -> ComplexRows:
    v = np.array(values, dtype=complex)
    return ComplexRows(v.real.copy(), v.imag.copy())


def siegel_rows(points) -> SiegelRows:
    z, *w = ComplexRows.columns(np.array([p.coords for p in points]))
    return SiegelRows(z, w)


def outcome(fn, *args):
    """The result of fn, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # both sides must raise the same thing
        return "raised", type(err).__name__, str(err)


def first_error(fn, items):
    """What a per-point loop of fn over items raises first, or None."""
    for item in items:
        got = outcome(fn, item)
        if got[0] == "raised":
            return got
    return None


def random_complex(rng, n):
    """Generic values, signed zeros in either part, and extreme magnitudes."""
    re = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    im = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    re[::7], im[1::9] = 0.0, -0.0
    re[2::11], im[3::13] = -0.0, 0.0
    return np.array([complex(a, b) for a, b in zip(re, im)])


def siegel_sample(rng, n, dim, t_lo=-3.0, t_hi=3.0):
    """Points (t + ||w||^2 + iy, w) with log10 t ~ U(t_lo, t_hi); every fifth
    one has a signed zero in y or in w."""
    pts = []
    for i in range(n):
        w = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
        if i % 5 == 0 and dim > 1:
            w[0] = complex(w[0].real, -0.0)
        t = 10.0 ** rng.uniform(t_lo, t_hi)
        y = -0.0 if i % 5 == 1 else rng.normal() * 3.0
        pts.append(SiegelPoint(complex(t + geo.sq_norm(w), y), tuple(w)))
    return pts


# ---------------------------------------------------------------------------
# complex arithmetic
# ---------------------------------------------------------------------------

def test_operators_round_as_cpython_complex():
    rng = np.random.default_rng(1)
    special = [complex(x, y) for x in SPECIAL for y in SPECIAL]
    a = [complex(x) for x in random_complex(rng, 4000)] + special
    b = [complex(x) for x in random_complex(rng, 4000)] + special[::-1]
    ca, cb = column(a), column(b)
    scalars = [2.0, -0.0, 0.7, 1.0 + 0j, 0.3 - 0.2j, complex(-0.0, 1.0), math.inf]
    ops = [
        (lambda x, y: x + y, ca, cb, zip(a, b)),
        (lambda x, y: x - y, ca, cb, zip(a, b)),
        (lambda x, y: x * y, ca, cb, zip(a, b)),
    ]
    for fn, x, y, pairs in ops:
        assert column_bits(fn(x, y)) == [cbits(fn(p, q)) for p, q in pairs]
    for s in scalars:
        for fn in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            assert column_bits(fn(ca, s)) == [cbits(fn(p, s)) for p in a]
            assert column_bits(fn(s, ca)) == [cbits(fn(s, p)) for p in a]
    # division: every divisor but zero (CPython raises there, a row gets NaN)
    keep = [i for i, q in enumerate(b) if q != 0]
    assert column_bits(column([a[i] for i in keep]) / column([b[i] for i in keep])) == \
        [cbits(a[i] / b[i]) for i in keep]
    nonzero = [p for p in a if p != 0]
    for s in (1.0, 2.5, -0.0 + 3j, 0.7 - 0.1j):
        assert column_bits(s / column(nonzero)) == [cbits(s / p) for p in nonzero]
        assert column_bits(column(a) / s) == [cbits(p / s) for p in a]
    # abs is CPython's hypot; no row here overflows
    assert [x.hex() for x in abs(ca).tolist()] == [abs(p).hex() for p in a]
    assert column_bits(ca.conjugate()) == [cbits(p.conjugate()) for p in a]


def test_smith_reciprocal_matches_cdiv():
    rng = np.random.default_rng(2)
    a = [complex(x) for x in random_complex(rng, 3000)]
    b = [complex(x) for x in random_complex(rng, 3000)]
    b = [q if q != 0 else 1.5 - 0.5j for q in b]
    got = geo._cdiv(column(a), column(b))
    assert column_bits(got) == [cbits(geo._cdiv(p, q)) for p, q in zip(a, b)]
    for s in (2.0, math.sqrt(2.5), 0.3 + 4j):
        got = geo._cdiv(column(a), s)
        assert column_bits(got) == [cbits(geo._cdiv(p, s)) for p in a]


def quotient(fn, a, b) -> complex:
    """fn(a, b) for one row, or NaN in both parts where the scalar division raises ZeroDivisionError."""
    try:
        return fn(a, b)
    except ZeroDivisionError:
        return complex(math.nan, math.nan)


def cpython_div(a, b):
    return a / b


# divisor batches by the branch of Smith's method their rows take
REAL_BRANCH = [complex(3.0, -0.0), complex(-2.0, 2.0), complex(1e-300, -0.0), complex(5.0, -4.9),
               complex(-7e200, 1e-200), complex(math.inf, 1.0), complex(1.0, 0.0), complex(0.5, -0.5)]
IMAG_BRANCH = [complex(-0.0, 2.0), complex(0.0, -3.0), complex(1.0, -1.5), complex(-4.9, 5.0),
               complex(1e-200, 7e200), complex(1.0, -math.inf), complex(-1e-310, 2e-310)]
ODD_ROWS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(math.nan, 0.0),
            complex(0.0, math.nan), complex(math.inf, math.inf), complex(-math.inf, 0.0),
            complex(math.nan, math.inf)]
DIVISOR_BATCHES = {
    "real_branch": REAL_BRANCH * 3,
    "imag_branch": IMAG_BRANCH * 3,
    "one_real_row": REAL_BRANCH[3:4],
    "one_imag_row": IMAG_BRANCH[3:4],
    "mixed": REAL_BRANCH + IMAG_BRANCH,
    "mixed_odd": REAL_BRANCH + ODD_ROWS + IMAG_BRANCH,
    "real_and_odd": REAL_BRANCH + ODD_ROWS,
    "real_and_zeros": REAL_BRANCH + ODD_ROWS[:4],  # zero rows take the |Re b| >= |Im b| branch
}


SPECIAL_PAIRS = [complex(x, y) for x in SPECIAL for y in SPECIAL]


@pytest.mark.parametrize("batch", sorted(DIVISOR_BATCHES))
def test_division_rows_match_per_row_division(batch):
    # a row's quotient must not depend on the branches the other rows of its batch take
    b = DIVISOR_BATCHES[batch]
    rng = np.random.default_rng(6)
    for _ in range(40):
        a = [complex(x) for x in random_complex(rng, len(b))]
        a[::3] = [SPECIAL_PAIRS[i] for i in rng.integers(len(SPECIAL_PAIRS), size=len(a[::3]))]
        want = [cbits(quotient(cpython_div, p, q)) for p, q in zip(a, b)]
        assert column_bits(column(a) / column(b)) == want
        want = [cbits(quotient(geo._cdiv, p, q)) for p, q in zip(a, b)]
        assert column_bits(geo._cdiv(column(a), column(b))) == want
    for s in (1.0, -0.0, 2.5 - 0.5j, complex(-0.0, 3.0), math.inf, complex(0.0, math.nan)):
        assert column_bits(s / column(b)) == [cbits(quotient(cpython_div, s, q)) for q in b]


@pytest.mark.parametrize("s", [2.5, -0.0 + 3j, 0.7 - 0.1j, complex(0.1, -5.0), complex(-0.0, -0.0),
                               complex(math.inf, 2.0), complex(0.0, math.nan)])
def test_division_by_a_scalar_matches_per_row_division(s):
    # both branches of a scalar divisor, and divisors where the scalar division raises
    a = [complex(x) for x in random_complex(np.random.default_rng(7), 600)] + SPECIAL_PAIRS
    assert column_bits(column(a) / s) == [cbits(quotient(cpython_div, p, s)) for p in a]
    assert column_bits(geo._cdiv(column(a), s)) == [cbits(quotient(geo._cdiv, p, s)) for p in a]


@pytest.mark.parametrize("batch", ["real_branch", "imag_branch", "mixed_odd"])
def test_one_divisor_serves_several_numerators(batch):
    # one divisor object divided into in both modes, in turn, as the inverse
    # Cayley map, the Cayley map and the inversion divide z and each w by one d
    b = DIVISOR_BATCHES[batch]
    d = column(b)
    rng = np.random.default_rng(8)
    for k in range(6):
        a = [complex(x) for x in random_complex(rng, len(b))]
        if k % 2:
            got, fresh, fn = geo._cdiv(column(a), d), geo._cdiv(column(a), column(b)), geo._cdiv
        else:
            got, fresh, fn = column(a) / d, column(a) / column(b), cpython_div
        assert column_bits(got) == column_bits(fresh) == [cbits(quotient(fn, p, q)) for p, q in zip(a, b)]
        assert column_bits(a[0] / d) == [cbits(quotient(cpython_div, a[0], q)) for q in b]
    assert column_bits(d) == [cbits(q) for q in b]  # the divisor itself is left as it was


def test_herm_and_sq_norm_run_on_columns():
    rng = np.random.default_rng(3)
    u = [random_complex(rng, 500) for _ in range(3)]
    v = [random_complex(rng, 500) for _ in range(3)]
    cu, cv = tuple(map(column, u)), tuple(map(column, v))
    rows_u = list(zip(*[x.tolist() for x in u]))
    rows_v = list(zip(*[x.tolist() for x in v]))
    assert column_bits(geo.herm(cu, cv)) == [cbits(geo.herm(p, q)) for p, q in zip(rows_u, rows_v)]
    assert [x.hex() for x in geo.sq_norm(cu).tolist()] == [geo.sq_norm(p).hex() for p in rows_u]


# ---------------------------------------------------------------------------
# points and their checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_siegel_rows_hold_the_scalar_defects(dim):
    pts = siegel_sample(np.random.default_rng(10 + dim), 500, dim)
    rows = siegel_rows(pts)
    assert [t.hex() for t in rows.t.tolist()] == [geo.defect(p).hex() for p in pts]
    assert rows_bits(rows) == [point_bits(p) for p in pts]


BAD_ROWS = [
    (complex(-1.0, 0.0), (0.0,)),             # t < 0
    (complex(0.25, 1.0), (0.5,)),             # t == 0
    (complex(-0.0, 0.0), (-0.0,)),            # t == -0.0
    (complex(math.nan, 0.0), (0.1,)),         # non-finite z
    (complex(1.0, math.inf), (0.1,)),         # non-finite z, t finite
    (complex(math.inf, 0.0), (0.1,)),         # non-finite z, t = inf
    (complex(2.0, 0.0), (complex(math.nan, 0.0),)),   # NaN tangential coordinate
    (complex(2.0, 0.0), (complex(0.0, math.inf),)),   # t = -inf
]


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_siegel_rows_raise_the_first_bad_points_error(bad):
    good = [(complex(2.0 + i, 0.5), (0.3 + 0.1j,)) for i in range(6)]
    for k in (0, 3, 5):
        coords = good[:k] + [bad] + good[k:] + [(complex(-5.0, 0.0), (0.0,))]
        z = column([c[0] for c in coords])
        w = (column([c[1][0] for c in coords]),)
        want = first_error(lambda c: SiegelPoint(*c), coords)
        assert want is not None
        assert outcome(SiegelRows, z, w) == want


BAD_ALONE = BAD_ROWS + [
    (complex(-math.inf, 0.0), (0.1,)),                    # Re z = -inf, t = -inf
    (complex(1.0, math.nan), (0.1,)),                     # Im z NaN, t finite
    (complex(1.0, -math.inf), (0.1,)),                    # Im z = -inf, t finite
    (complex(2.0, 0.0), (complex(-math.inf, 0.0),)),      # infinite w, t = -inf
    (complex(math.inf, 0.0), (complex(0.0, math.inf),)),  # t = inf - inf, NaN
    (complex(math.nan, 0.0), (complex(math.inf, 0.0),)),  # t NaN from Re z and w
]


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("bad", BAD_ALONE)
def test_siegel_rows_check_the_scalar_check_at_the_first_a_middle_and_the_last_row(bad, at):
    # the rows' check reads 0 < t < inf and Im z finite: t <= Re z makes that the scalar
    # t > 0 and z finite, so the one bad row raises what SiegelPoint raises for it
    coords = [(complex(2.0 + i, 0.5), (0.3 + 0.1j,)) for i in range(6)]
    coords.insert(at, bad)
    want = outcome(lambda: SiegelPoint(*bad))
    assert want[0] == "raised" and first_error(lambda c: SiegelPoint(*c), coords) == want
    assert outcome(SiegelRows, column([c[0] for c in coords]), (column([c[1][0] for c in coords]),)) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_siegel_rows_check_the_scalar_check_on_special_values(dim):
    # batches of 1 to 6 rows, each coordinate part replaced by a special value with
    # probability 1/8: the rows raise what the first failing point raises, or pass with all
    rng, raised = np.random.default_rng(50 + dim), 0
    specials = SPECIAL + [1e200, 0.25]
    for _ in range(400):
        parts = rng.uniform(0.1, 1.0, size=(int(rng.integers(1, 7)), 2 * dim))
        parts[:, 0] += 2.0 * dim  # Re z above ||w||^2
        hit = rng.random(parts.shape) < 0.125
        parts[hit] = rng.choice(specials, size=int(hit.sum()))
        coords = [(complex(r[0], r[1]), tuple(complex(r[j], r[j + 1]) for j in range(2, 2 * dim, 2))) for r in parts]
        want = first_error(lambda c: SiegelPoint(*c), coords)
        cols = [column([c[0] for c in coords])] + [column([c[1][j] for c in coords]) for j in range(dim - 1)]
        got = outcome(SiegelRows, cols[0], tuple(cols[1:]))
        assert got == want if want is not None else got[0] == "ok"
        raised += want is not None
    assert 100 < raised < 300


def test_ball_norm_rows_match_ball_points():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(600, 3)) + 1j * rng.normal(size=(600, 3))
    v *= rng.uniform(0.0, 1.0, size=(600, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    v[::5] *= 1.0 - 1e-16  # within rounding of the sphere
    v[1::7, 1] = complex(-0.0, 0.0)
    got = geo.ball_norm_rows(ComplexRows.columns(v))
    assert [x.hex() for x in got.tolist()] == [BallPoint(CVector(r)).v.norm().hex() for r in v]


@pytest.mark.parametrize("bad", [(0.6, 0.8 + 1e-16j), (1.0, 0.0), (math.nan, 0.0),
                                 (0.1, complex(0.0, math.inf)), (0.5, -math.inf)])
def test_ball_norm_rows_raise_the_first_bad_points_error(bad):
    good = [(0.1 * i, 0.2j) for i in range(5)]
    for k in (0, 2, 5):
        coords = good[:k] + [bad] + good[k:] + [(2.0, 0.0)]
        want = first_error(lambda c: BallPoint(CVector(c)), coords)
        assert want is not None
        assert outcome(geo.ball_norm_rows, ComplexRows.columns(np.array(coords))) == want


# ---------------------------------------------------------------------------
# metric, Cayley map, Julia quotients
# ---------------------------------------------------------------------------

def pair_sample(rng, n, dim):
    """n pairs of dim-dimensional points: a third generic, a third near the
    boundary (t down to 1e-12), a third nearly equal."""
    a = siegel_sample(rng, n, dim)
    b = siegel_sample(rng, n, dim, -12.0, -6.0)
    pairs = []
    for i in range(n):
        if i % 3 == 0:
            pairs.append((a[i], siegel_sample(rng, 1, dim)[0]))
        elif i % 3 == 1:
            pairs.append((b[i], siegel_sample(rng, 1, dim, -12.0, 0.0)[0]))
        else:
            eps = 10.0 ** rng.uniform(-14, -7)
            z, w = a[i].z, a[i].w
            q = SiegelPoint(z * (1.0 + eps) + 1j * eps, tuple(c * (1.0 + eps / 3) for c in w))
            pairs.append((a[i], q))
    return pairs


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dist_siegel_rows_match_per_pair(dim):
    pairs = pair_sample(np.random.default_rng(20 + dim), 600, dim)
    want = [geo.dist_siegel(p, q) for p, q in pairs]
    assert sum(d < 1e-6 for d in want) >= 150  # nearly equal pairs are exercised
    got = geo.dist_siegel(siegel_rows([p for p, _ in pairs]), siegel_rows([q for _, q in pairs]))
    assert [x.hex() for x in got.tolist()] == [d.hex() for d in want]
    with pytest.raises(DimensionMismatch):
        geo.dist_siegel(siegel_rows(pairs[0][:1]), siegel_rows([SiegelPoint(2.0, (0j,) * dim)]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dist_siegel_rows_all_in_the_fallback_match_per_pair(dim):
    # every pair nearly equal (d < 1e-6, where 1 - 4 t_a t_b / |s|^2 would cancel)
    rng = np.random.default_rng(80 + dim)
    pairs = []
    for p in siegel_sample(rng, 400, dim):
        eps = 10.0 ** rng.uniform(-16, -12)
        pairs.append((p, SiegelPoint(p.z * (1.0 + eps) + 1j * eps, tuple(c * (1.0 + eps / 3) for c in p.w))))
    pairs = [pq for pq in pairs if geo.dist_siegel(*pq) < 1e-6]
    assert len(pairs) >= 350
    want = [geo.dist_siegel(p, q) for p, q in pairs]
    got = geo.dist_siegel(siegel_rows([p for p, _ in pairs]), siegel_rows([q for _, q in pairs]))
    assert [x.hex() for x in got.tolist()] == [d.hex() for d in want]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_siegel_to_ball_rows_match_per_point(dim):
    pts = siegel_sample(np.random.default_rng(30 + dim), 500, dim)
    got = geo.siegel_to_ball_rows(siegel_rows(pts))
    assert [tuple(cbits(c) for c in row) for row in got.tolist()] == \
        [tuple(cbits(c) for c in geo.siegel_to_ball(p).v.coords) for p in pts]


def test_siegel_to_ball_rows_raise_like_the_scalar_path():
    pts = [SiegelPoint(complex(1.0 + i, 0.0), (0.1j,)) for i in range(3)]
    pts.insert(2, SiegelPoint(complex(1e-3, 1e9), (0j,)))  # rounds onto the sphere
    want = first_error(geo.siegel_to_ball, pts)
    assert want is not None and want[1] == "InvalidPoint"
    assert outcome(geo.siegel_to_ball_rows, siegel_rows(pts)) == want


VERTICES = [
    geo.INFINITY,
    BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel"),
    BoundaryPoint(v=CVector((complex(0.25, -1.5), 0.5)), model="siegel"),
    BoundaryPoint(v=CVector((4.0, 2j))),
]
VERTEX_IDS = ["inf", "zero", "siegel", "siegel_4_2i"]


@pytest.mark.parametrize("q", VERTICES, ids=VERTEX_IDS)
def test_julia_quotient_rows_match_per_point(q):
    pts = siegel_sample(np.random.default_rng(40), 800, 2, -12.0, 4.0)
    got = geo.julia_quotient(siegel_rows(pts), q)
    assert [x.hex() for x in got.tolist()] == [geo.julia_quotient(p, q).hex() for p in pts]


@pytest.mark.parametrize("q", VERTICES, ids=VERTEX_IDS)
def test_koranyi_ratio_rows_match_per_point(q):
    pts = siegel_sample(np.random.default_rng(41), 800, 2, -12.0, 4.0)
    rows = SiegelRows.of(pts)
    assert rows_bits(rows) == rows_bits(siegel_rows(pts))
    assert [t.hex() for t in rows.t.tolist()] == [p.t.hex() for p in pts]
    gaps = geo.one_minus_sq_ball_norm(rows).tolist()
    assert [x.hex() for x in gaps] == [(4.0 * (p.t / abs(p.z + 1.0)) / abs(p.z + 1.0)).hex() for p in pts]
    got = geo.koranyi_ratio(rows, q)
    assert [x.hex() for x in got.tolist()] == [geo.koranyi_ratio(p, q).hex() for p in pts]


def test_squares_round_as_cpython_pow():
    # x * x (and np.power) differ from CPython's x ** 2 on about 1 in 1000
    # doubles; 20 000 rows catch a kernel that squares the wrong way
    rng = np.random.default_rng(5)
    n = 20000
    w = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-2, 2, size=n)
    z = 10.0 ** rng.uniform(-3, 3, size=n) + np.abs(w) ** 2 + 1j * rng.normal(size=n) * 10.0
    pts = [SiegelPoint(a, (b,)) for a, b in zip(z.tolist(), w.tolist())]
    # partners at d ~ 0.01..0.5
    eps = (10.0 ** rng.uniform(-2, -0.5, size=(n, 2))).tolist()
    near = [SiegelPoint(p.z * (1 + e) + 1j * e2 * p.z.real, (p.w[0] * (1 + e / 3),))
            for p, (e, e2) in zip(pts, eps)]
    got = geo.dist_siegel(siegel_rows(pts), siegel_rows(near))
    assert [x.hex() for x in got.tolist()] == [geo.dist_siegel(p, q).hex() for p, q in zip(pts, near)]
    for q in VERTICES[1:3]:
        got = geo.julia_quotient(siegel_rows(pts), q)
        assert [x.hex() for x in got.tolist()] == [geo.julia_quotient(p, q).hex() for p in pts]


# ---------------------------------------------------------------------------
# automorphisms and maps
# ---------------------------------------------------------------------------

PRIMITIVES = [
    geo.Translation(0.7, (0.3 - 0.2j,)),
    geo.Translation(-0.0, (complex(-0.0, 0.5),)),
    geo.Dilation(2.5),
    geo.Dilation(1e-7),
    geo.Rotation((complex(math.cos(1.0), math.sin(1.0)),)),
    geo.LinearDiag(4.0, (complex(0.0, -2.0),)),
    geo.Inversion(),
]
VERIFY_CHAIN = geo.SiegelAutomorphism((PRIMITIVES[2], PRIMITIVES[0], PRIMITIVES[4],
                                       PRIMITIVES[6]))


@pytest.mark.parametrize("auto", [geo.SiegelAutomorphism((p,)) for p in PRIMITIVES]
                         + [VERIFY_CHAIN], ids=[type(p).__name__ for p in PRIMITIVES] + ["chain"])
def test_apply_automorphism_rows_match_per_point(auto):
    pts = siegel_sample(np.random.default_rng(50), 600, 2, -8.0, 4.0)
    want = [outcome(geo.apply_automorphism, auto, p) for p in pts]
    assert all(w[0] == "ok" for w in want)
    got = geo.apply_automorphism(auto, siegel_rows(pts))
    assert rows_bits(got) == [point_bits(w[1]) for w in want]


FAMILIES = {
    **MAPS,
    "conjugated": Conjugated(MAPS["quadpol"], VERIFY_CHAIN),
    "conjugated_elliptic": Conjugated(MAPS["elliptic"], geo.SiegelAutomorphism((geo.Inversion(),))),
    "diag3": DiagonalLinear(3.0, (1.5j, -1.0)),
    "diag1": DiagonalLinear(0.5),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_evaluate_rows_match_per_point(name):
    f = FAMILIES[name]
    pts = siegel_sample(np.random.default_rng(60), 300, f.dim, -4.0, 3.0)
    got = evaluate(f, siegel_rows(pts))
    assert rows_bits(got) == [point_bits(evaluate(f, p)) for p in pts]


def test_elliptic_chart_rows_match_per_point_on_the_conjugate_orbit():
    # the chart `conjugate --map elliptic --start 5,0` sweeps, on its recentred
    # orbit: each row division has every row on the |Re b| >= |Im b| branch
    f = MAPS["elliptic"]
    g, orbit, _chart = recenter_orbit_at_zero(f, dyn.backward_orbit(f, SiegelPoint(5.0, (0j,)), 0.34, 40))
    pts = orbit.points
    assert isinstance(g, Conjugated) and len(pts) == 41
    assert rows_bits(evaluate(g, siegel_rows(pts))) == [point_bits(evaluate(g, p)) for p in pts]


@pytest.mark.parametrize("f", [QuadraticSiegel(0.5, 2.0, 1.0), DiagonalLinear(1.0, (1.0 + 1e-13,))],
                         ids=["quadratic", "diagonal"])
def test_evaluate_rows_raise_the_first_bad_images_error(f):
    # maps that are not self-maps send some points out of the domain
    pts = siegel_sample(np.random.default_rng(61), 400, 2, -14.0, 1.0)
    want = first_error(lambda p: evaluate(f, p), pts)
    assert want is not None and want[1] == "InvalidPoint"
    assert outcome(evaluate, f, siegel_rows(pts)) == want
    with pytest.raises(DimensionMismatch):
        evaluate(f, siegel_rows([SiegelPoint(2.0, (0.1, 0.2))]))


def ball_product_failures(f, n=20000):
    """Points near the sphere: those f maps, and those it fails on, by the
    step of the ball detour that fails."""
    rng = np.random.default_rng(90)
    good, bad = [], {}
    for _ in range(n):
        w = complex(rng.normal(), rng.normal()) * 10 ** rng.uniform(-1, 4)
        z = complex(10 ** rng.uniform(-12, 0) + abs(w) ** 2, rng.normal() * 10 ** rng.uniform(0, 6))
        if outcome(SiegelPoint, z, (w,))[0] == "raised":
            continue
        p = SiegelPoint(z, (w,))
        got = outcome(evaluate, f, p)
        if got[0] == "ok":
            good.append(p)
        elif outcome(geo.siegel_to_ball, p)[0] == "raised":
            bad.setdefault("into the ball", []).append(p)
        else:
            bad.setdefault("defect" if "defect" in got[2] else "image in the ball", []).append(p)
    return good, bad


@pytest.mark.parametrize("f", [BallProduct((DiskLinear(1j), DiskLinear(1j))),
                               BallProduct((BlaschkeDeg2(0.999), DiskLinear(1.0)))],
                         ids=["rotations", "blaschke"])
def test_ball_product_rows_raise_the_first_bad_rows_error(f):
    good, bad = ball_product_failures(f)
    assert len(bad) >= 2 and len(good) > 100
    assert rows_bits(evaluate(f, siegel_rows(good))) == [point_bits(evaluate(f, p)) for p in good]
    # many rows whose ball image rounds onto the sphere map back into the domain
    for p in [p for points in bad.values() for p in points[:100]]:
        assert outcome(evaluate, f, siegel_rows(good[:5] + [p])) == outcome(evaluate, f, p)
    # checking one step's rows at a time would raise an earlier step's error first
    for first, second in itertools.permutations([points[0] for points in bad.values()], 2):
        pts = good[:50] + [first] + good[50:60] + [second]
        want = first_error(lambda p: evaluate(f, p), pts)
        assert want == outcome(evaluate, f, first)
        assert outcome(evaluate, f, siegel_rows(pts)) == want


def test_conjugated_rows_raise_the_per_point_loops_error():
    # the elliptic fixture recentred at infinity, as `conjugate` runs it: the
    # first point fails inside the base map (its ball image rounds onto the
    # sphere), the second already in the chart (its defect there rounds to 0)
    g = Conjugated(MAPS["elliptic"], geo.SiegelAutomorphism((geo.Inversion(),)))
    first = SiegelPoint(1.0872783544808614e+17 - 0.0011598124681352145j,
                        (337.48356356675237 + 116.95918486700253j,))
    second = SiegelPoint(3.807338174239369 + 0.27462135033050644j,
                         (1.064440403248307 - 1.6353301813921095j,))
    assert outcome(evaluate, g, first) == ("raised", "InvalidPoint", "ball point with norm 1.0 >= 1")
    assert outcome(evaluate, g, second)[2].startswith("defect 0.0 <= 0")
    good = [SiegelPoint(3.0, (0.5,)), SiegelPoint(2.0 + 1j, (0.1j,))]
    for pts in ([first, second], [second, first], good + [first] + good + [second]):
        want = first_error(lambda p: evaluate(g, p), pts)
        assert outcome(evaluate, g, siegel_rows(pts)) == want
    assert rows_bits(evaluate(g, siegel_rows(good))) == [point_bits(evaluate(g, p)) for p in good]
    # consecutive failing points of a random near-boundary sample, as two-row batches
    rng, failing = np.random.default_rng(3), []
    for _ in range(6000):
        w = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-10, 10)
        z = complex(10.0 ** rng.uniform(-20, 20) + abs(w) ** 2, rng.normal() * 10.0 ** rng.uniform(-5, 20))
        if outcome(SiegelPoint, z, (w,))[0] == "ok" and outcome(evaluate, g, SiegelPoint(z, (w,)))[0] == "raised":
            failing.append(SiegelPoint(z, (w,)))
    pairs = [(a, b) for a, b in zip(failing, failing[1:])
             if outcome(evaluate, g, a) != outcome(evaluate, g, b)]
    assert len(pairs) >= 20
    for a, b in pairs:
        assert outcome(evaluate, g, siegel_rows([a, b])) == outcome(evaluate, g, a)


@pytest.mark.parametrize("g", [BlaschkeDeg2(0.5), BlaschkeDeg2(0.999), DiskLinear(0.5),
                               DiskLinear(-0.3 + 0.4j), DiskLinear(0j)])
def test_disk_maps_apply_rows_match_apply(g):
    rng = np.random.default_rng(70)
    z = list(rng.normal(size=800) + 1j * rng.normal(size=800))
    z = [complex(c) / (abs(c) + 0.01) for c in z]
    z += [complex(x, y) for x in SPECIAL for y in SPECIAL]  # NaN-producing rows too
    z = [c for c in z if outcome(g.apply, c)[0] == "ok"]
    assert column_bits(g.apply(column(z))) == [cbits(g.apply(c)) for c in z]


# ---------------------------------------------------------------------------
# the sampled checks
# ---------------------------------------------------------------------------

def test_julia_check_builds_no_point_per_sample(monkeypatch):
    calls = []
    original = SiegelPoint.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(SiegelPoint, "__post_init__", counting)
    counts = []
    for n in (50, 500):
        calls.clear()
        dyn.julia_inclusion_check(MAPS["quadpol"], geo.INFINITY, 0.5, n_samples=n, seed=3)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def per_point_growth(f, r0, n_grid, n_angles):
    """elliptic_growth_constant one grid vector at a time, with the phase
    offsets repeated over the coordinates."""
    dim = f.dim
    radii = np.linspace(r0, 1.0 - 1.0 / (2 * n_grid), n_grid)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    rng = np.random.default_rng(12345)
    mags = np.abs(rng.normal(size=(n_angles, dim)))
    mags /= np.linalg.norm(mags, axis=1, keepdims=True)
    mags = np.vstack([np.eye(dim), mags])
    offsets = thetas[np.arange(dim) % n_angles]
    m_vals, c = [], 0.0
    for r in radii:
        best = 0.0
        for d in range(len(mags)):
            for th in thetas[:: max(1, n_angles // 8)]:
                v = r * mags[d] * np.exp(1j * (th + offsets))
                best = max(best, evaluate_ball(f, BallPoint(CVector(tuple(v)))).v.norm())
        m_vals.append(best)
        c = max(c, (1.0 - r) / (1.0 - best))
    return c, [float(r) for r in radii], m_vals


@pytest.mark.parametrize("n_angles", [1, 2, 3, 5])
def test_growth_grid_with_fewer_angles_than_coordinates(n_angles):
    f = BallProduct((DiskLinear(0.6 + 0.3j), BlaschkeDeg2(0.5), DiskLinear(-0.45j)))
    rep = dyn.elliptic_growth_constant(f, 0.4, n_grid=6, n_angles=n_angles)
    c, radii, m_vals = per_point_growth(f, 0.4, 6, n_angles)
    assert rep.c.hex() == c.hex()
    assert [r.hex() for r in rep.radii] == [r.hex() for r in radii]
    assert [m.hex() for m in rep.m_values] == [m.hex() for m in m_vals]
