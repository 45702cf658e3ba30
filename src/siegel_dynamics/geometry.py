"""Geometry of the unit ball B^N and the Siegel domain H^N.

Coordinates, the Cayley transform between the two models, the
pseudo-hyperbolic metric, the Julia and Koranyi quotients at a boundary
point, and the group of Siegel automorphisms generated by boundary
translations, dilations, tangential rotations, diagonal linear maps and the
0 <-> infinity inversion.

Conventions: a Siegel point is (z, w) with z complex and w in C^(N-1),
subject to Re z > ||w||^2; its "defect" is t = Re z - ||w||^2.  The Cayley
transform used everywhere is

    ball -> Siegel:   (z, w) |-> ((1+z)/(1-z), w/(1-z))
    Siegel -> ball:   (z, w) |-> ((z-1)/(z+1), 2w/(z+1))

so the ball point (1, 0) corresponds to the Siegel point at infinity and
(-1, 0) to the Siegel point 0.

Numerics: per-point code is plain CPython arithmetic on tuples of `complex`;
constructors convert other input to them once.  Where a complex division
was historically done by numpy, `_cdiv` repeats numpy's rounding, so reports
keep their bytes.  Most formulas also take many points at once (see "rows").
`dist_siegel` is one formula for a point and for rows, a ratio of scaled sums
of squares that holds from the smallest defect to the largest coordinate.
`dist_ball` is one formula on arrays, a point being a batch of one, with no
cancellation near the sphere: its inputs are formed exactly or as if in twice
the working precision (TwoSum, Dekker's TwoProduct, an error-free summation).
numpy is for that, sampling and real arrays (grids).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .errors import DimensionMismatch, InvalidPoint, ModelMismatch
from .policy import DEFAULT_POLICY

Complexes = tuple[complex, ...]


def _as_tuple(values) -> Complexes:
    """Coordinates as a tuple of complex; a scalar becomes a 1-tuple."""
    try:
        return tuple(map(complex, values))
    except TypeError:
        return (complex(values),)


def _cdiv(a: complex, b: complex) -> complex:
    """a / b rounded as numpy's complex division (Smith's method, multiplying
    by the reciprocal), which differs from CPython's `/` in the last bit; a
    `ComplexRows` dividend is divided row by row the same way."""
    return _smith(a, b, reciprocal=True) if type(a) is ComplexRows else _cdivs((a,), b)[0]


def _cdivs(nums, b) -> Complexes:
    """Each of nums divided by b as `_cdiv` divides, Smith's branch, ratio and scale prepared once;
    `ComplexRows` numerators come with a `ComplexRows` b, whose preparation `_smith` keeps on it."""
    if type(b) is ComplexRows:
        return tuple([_smith(a, b, reciprocal=True) for a in nums])
    br, bi = b.real, b.imag
    out = []
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        for a in nums:
            ar, ai = a.real, a.imag
            out.append(complex((ar + ai * rat) * scl, (ai - ar * rat) * scl))
    else:
        rat = br / bi
        scl = 1.0 / (bi + br * rat)
        for a in nums:
            ar, ai = a.real, a.imag
            out.append(complex((ar * rat + ai) * scl, (ai * rat - ar) * scl))
    return tuple(out)


def herm(u, v) -> complex:
    """Hermitian inner product sum_j u_j * conj(v_j)."""
    if len(u) != len(v):
        raise DimensionMismatch(f"inner product of lengths {len(u)} and {len(v)}")
    s = 0j
    for a, b in zip(u, v):
        s += a * b.conjugate()
    return s


def sq_norm(u) -> float:
    s = 0.0
    for c in u:
        a = abs(c)
        s += a * a
    return s


# ---------------------------------------------------------------------------
# point types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVector:
    """A point of C^N."""

    coords: Complexes

    def __post_init__(self):
        coords = _as_tuple(self.coords)
        if len(coords) < 1:
            raise InvalidPoint("CVector needs at least one coordinate")
        if not all(map(cmath.isfinite, coords)):
            raise InvalidPoint("non-finite coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return math.sqrt(sq_norm(self.coords))


@dataclass(frozen=True)
class BallPoint:
    """Interior point of the unit ball, ||v|| < 1 strictly."""

    v: CVector

    def __post_init__(self):
        v = self.v if isinstance(self.v, CVector) else CVector(self.v)
        if sq_norm(v.coords) >= 1.0:
            raise InvalidPoint(f"ball point with norm {v.norm()} >= 1")
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.v.dim


@dataclass(frozen=True, init=False)
class SiegelPoint:
    """Point (z, w) of the Siegel domain, Re z > ||w||^2 strictly; t is its defect."""

    z: complex
    w: Complexes = ()
    t: float = field(init=False, compare=False, repr=False)

    def __init__(self, z, w=()):
        d = self.__dict__  # frozen: no object.__setattr__ per field
        d["z"], d["w"] = z, w
        self.__post_init__()

    def __post_init__(self):
        d = self.__dict__  # the frozen fields, set by item (cheaper than update or setattr)
        z, w, s, kept = d["z"], d["w"], 0.0, False
        if type(z) is not complex:
            z = d["z"] = complex(z)
        if type(w) is tuple and cmath.isfinite(z):  # a tuple of complex is kept as is, summed as sq_norm sums
            try:
                for c in w:
                    if type(c) is not complex:
                        break
                    s += (a := abs(c)) * a
                else:
                    kept = True
            except OverflowError:  # raised again below, after the conversion errors that precede it
                pass
        if not kept:  # any other w: converted, then z checked, then summed
            w = d["w"] = _as_tuple(w)
            if not cmath.isfinite(z):
                raise InvalidPoint("non-finite z")
            s = sq_norm(w)
        t = d["t"] = z.real - s
        if not t > 0.0:  # also false for NaN
            raise InvalidPoint("NaN tangential coordinate" if t != t
                               else f"defect {t} <= 0: not in the Siegel domain")

    @property
    def dim(self) -> int:
        return 1 + len(self.w)

    @property
    def coords(self) -> Complexes:
        return (self.z,) + self.w


@dataclass(frozen=True)
class BoundaryPoint:
    """Siegel boundary point: `at_infinity`, or (z, w) with Re z = ||w||^2."""

    v: CVector | None = None
    at_infinity: bool = False
    model: str = "siegel"

    def __post_init__(self):
        if self.model != "siegel":
            raise InvalidPoint(f"unknown model {self.model!r}")
        if self.at_infinity:
            return
        if self.v is None:
            raise InvalidPoint("finite boundary point needs coordinates")
        v = self.v if isinstance(self.v, CVector) else CVector(self.v)
        object.__setattr__(self, "v", v)
        z, w = v.coords[0], v.coords[1:]
        r = sq_norm(w)  # relative to ||w||^2: one ulp of it exceeds 1e-12 above about 4,500
        if abs(z.real - r) > DEFAULT_POLICY.boundary_tol * max(1.0, r):
            raise InvalidPoint("Siegel boundary point with nonzero defect")


INFINITY = BoundaryPoint(at_infinity=True)


# ---------------------------------------------------------------------------
# Cayley transform and metrics
# ---------------------------------------------------------------------------

def cayley_to_siegel(p: BallPoint) -> SiegelPoint:
    """Map a ball point through C(z, w) = ((1+z)/(1-z), w/(1-z))."""
    c = _siegel_coords(p.v.coords)
    return SiegelPoint(c[0], c[1:])


def siegel_to_ball(p: SiegelPoint) -> BallPoint:
    """Inverse Cayley transform C^{-1}(z, w) = ((z-1)/(z+1), 2w/(z+1))."""
    return BallPoint(CVector(_ball_coords(p.z, p.w)))


def defect(p: SiegelPoint) -> float:
    """The stored t = Re z - ||w||^2 (> 0 on the domain; the horosphere height at infinity)."""
    return p.t


def _two_prod(a, b):
    """(p, e), p = fl(a b) and p + e = a b exactly for |a|, |b| < 2^995 (Dekker; no
    math.fma in 3.11), in place on arrays: a and b end as their low halves."""
    p = a * b
    ah, bh = a * 134217729.0, b * 134217729.0
    ah -= ah - a
    bh -= bh - b
    a -= ah
    b -= bh
    # al bl - (((p - ah bh) - al bh) - ah bl), with the partial sums negated
    return p, ah * bh - p + a * bh + ah * b + a * b


def _dist_ball(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(Z, W) between the rows of two C-contiguous (n, dim) complex arrays.  With
    D = W - Z, g = 1 - ||Z||^2 and c = <Z, D>, |1 - <Z, W>|^2 - g (1 - ||W||^2) =
    g ||D||^2 + |c|^2 and 1 - <Z, W> = g - c, so d^2 = (g ||D||^2 + |c|^2) / |g - c|^2,
    where both terms on top are >= 0 and Re(g - c) >= g/2, |Re c|.  Nothing cancels:
    D is exact (TwoSum), and g and c are sums of exact products (TwoProduct) split
    as q + r on the grid of a power of two sigma > 2 sum |p|, so that the q add up
    exactly (Rump, Ogita and Oishi, "Accurate floating-point summation part I",
    2008).  The terms lie along the first axis, which numpy adds in order for any
    n, so a row has the same bits in any batch and with zero coordinates appended."""
    d = w - z  # TwoSum of w and -z: D = d + dl exactly
    v = d - w
    dl = (w - (d - v)) - (z + v)
    # (2 dim, 3, n) terms of ||Z||^2, Re c, Im c: x x + y y, x u + y v, y u - x v over
    # z_j = x + iy, d_j = u + iv
    a = np.array((z, z, z * -1j)).view(float).transpose(2, 0, 1).copy()
    b = np.array((z, d, d)).view(float).transpose(2, 0, 1).copy()
    e2 = (b[:, 1:] * b[:, 1:]).sum(0)[0]  # ||D||^2 as two equal columns: one alone sums pairwise
    dlc = a[:, 1:] * dl.view(float).T[:, None]  # dl's share of c, of order eps |z d|
    p, e = _two_prod(a, b)
    e[:, 1:] += dlc
    s = np.abs(p).sum(0)
    sig = (s.view(np.int64) & 0x7FF0000000000000).view(float) * 4.0  # 4 * 2^floor(log2 s)
    q = (p + sig) - sig  # p on the grid of 2^-53 sig, where any sum is exact
    tau, tail = q.sum(0), ((p - q) + e).sum(0)  # p - q is at most 2^-53 sig
    g = (1.0 - tau[0]) - tail[0]  # 1 - tau[0] is exact where g is small
    cr, ci = tau[1:] + tail[1:]
    hr, ci2 = g - cr, ci * ci
    # >= 0 unless Z lies outside the ball; fmax also maps NaN to 0
    return np.sqrt(np.fmax((g * e2 + (cr * cr + ci2)) / (hr * hr + ci2), 0.0))


def dist_ball(a: BallPoint, b: BallPoint) -> float:
    """Pseudo-hyperbolic distance in the ball, d^2 = 1 - (1 - ||Z||^2)(1 - ||W||^2) / |1 - (Z, W)|^2."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dist_ball: dims {a.dim} != {b.dim}")
    return _dist_ball(np.array((a.v.coords,)), np.array((b.v.coords,))).item()


def dist_ball_rows(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """`dist_ball` between the rows of two (n, dim) arrays of ball coordinates, taken
    to lie in the ball (nothing checks them); a row has the bits of `dist_ball`."""
    return _dist_ball(np.ascontiguousarray(za, complex), np.ascontiguousarray(zb, complex))


def dist_siegel(a: SiegelPoint, b: SiegelPoint) -> float:
    """Pseudo-hyperbolic distance in the Siegel domain,

    d^2 = 1 - 4 t_a t_b / |s|^2,  s = z_a + conj(z_b) - 2 <w_a, w_b>,

    from the identity |s|^2 - 4 t_a t_b = (t_a - t_b)^2 + (2 (t_a + t_b) + e) e + v^2
    with e = ||w_a - w_b||^2, Re s = t_a + t_b + e and
    v = Im s = Im z_a - Im z_b - 2 Im <w_a - w_b, w_b>.  Each term is divided by
    m = Re s + |v| before it is squared, so d^2 is a ratio of sums of squares of
    numbers at most 2: nothing cancels, and nothing under- or overflows while m
    is a finite double.  On `SiegelRows` it gives an array, with the bits of
    each row as one point.
    """
    if len(aw := a.w) != len(bw := b.w):
        raise DimensionMismatch(f"dist_siegel: dims {a.dim} != {b.dim}")
    e = v = 0.0
    for x, y in zip(aw, bw):
        dr, di = x.real - y.real, x.imag - y.imag  # d = x - y, part by part
        e += dr * dr + di * di
        v += di * y.real - dr * y.imag  # Im <d, y>
    ta, tb = a.t, b.t
    v = a.z.imag - b.z.imag - 2.0 * v
    m = ta + tb + e + abs(v)
    dt, u, e, v = (ta - tb) / m, (ta + tb) / m, e / m, v / m
    re = u + e
    d2 = (dt * dt + (2.0 * u + e) * e + v * v) / (re * re + v * v)
    # inline rather than a helper: orbits call this once per preimage candidate
    return math.sqrt(d2) if type(d2) is float else np.sqrt(d2)


def one_minus_sq_ball_norm(p: SiegelPoint) -> float:
    """1 - ||C^{-1}(p)||^2 = 4 t / |z + 1|^2, computed without cancellation."""
    return _sq_gap(p.t, abs(p.z + 1.0))


def _sq_gap(t, r):
    """4 t / r^2, dividing by r = |z + 1| twice (t < r): no square over- or underflows."""
    return 4.0 * (t / r) / r


def _ball_coords(z: complex, w: Complexes) -> Complexes:
    """C^{-1}(z, w) without the norm check, so points within rounding of the
    sphere (and boundary points) stay usable."""
    d = z + 1.0
    return ((z - 1.0) / d,) + _cdivs([2.0 * c for c in w], d)


def _ball_check(v: Complexes):
    """||v||^2, raising what `BallPoint(CVector(v))` raises, building neither
    unless it fails; on `ComplexRows` columns, for the first row that fails."""
    s = sq_norm(v)
    if type(s) is np.ndarray:
        _raise_first(s < 1.0, lambda i: BallPoint(CVector(tuple(c[i] for c in v))))
    elif not s < 1.0:  # also true for NaN
        BallPoint(CVector(v))
    return s


def _siegel_coords(v: Complexes) -> Complexes:
    """C(v), the inverse of `_ball_coords`, without the domain check; the
    coordinates may be `ComplexRows` columns."""
    d = 1.0 - v[0]
    return _cdivs((1.0 + v[0], *v[1:]), d)


def _ball_image_norm(g):
    """||C^{-1}(p)|| from the cancellation-free g = 1 - ||C^{-1}(p)||^2."""
    x = 1.0 - g  # np.fmax, as max(0.0, x), maps NaN to 0
    return np.sqrt(np.fmax(x, 0.0)) if type(x) is np.ndarray else math.sqrt(max(0.0, x))


def boundary_gap(p: SiegelPoint) -> float:
    """1 - ||C^{-1}(p)|| computed stably from the defect."""
    g = one_minus_sq_ball_norm(p)
    return g / (1.0 + _ball_image_norm(g))


def boundary_ball_coords(q: BoundaryPoint, dim: int) -> Complexes:
    """Ball-model coordinates of a boundary point, infinity -> (1, 0, ..., 0)."""
    if q.at_infinity:
        return (1.0 + 0j,) + (0j,) * (dim - 1)
    return _ball_coords(q.v.coords[0], q.v.coords[1:])


def _vertex_term(p: SiegelPoint, q: BoundaryPoint) -> tuple:
    """(x, c), x / c = |1 - (Z, Q)| |z + 1| / 2 for the ball images Z, Q of p and of a finite
    vertex q = (z_q, w_q), from Siegel coordinates: (|z + conj(z_q) - 2 <w, w_q>|, |z_q + 1|)."""
    q0, qw = q.v.coords[0], q.v.coords[1:]
    return abs(p.z + q0.conjugate() - 2.0 * herm(p.w, qw)), abs(q0 + 1.0)


def julia_quotient(p: SiegelPoint, q: BoundaryPoint) -> float:
    """Julia (horosphere) quotient |1 - (Z, q)|^2 / (1 - ||Z||^2) of the ball image of p.

    At the vertex infinity this is 1/defect(p) (the horosphere H(t) at infinity
    is {defect > t}).  Evaluated from Siegel coordinates so it stays accurate
    arbitrarily close to the boundary.  On `SiegelRows` it gives an array.
    """
    if q.at_infinity:
        return 1.0 / defect(p)
    x, c = _vertex_term(p, q)  # x^2 / (t c^2), forming neither x^2 nor the gap
    with np.errstate(over="ignore"):  # a row beyond the double range gives inf, as a point does
        return x / p.t * x / c ** 2


def koranyi_ratio(p: SiegelPoint, q: BoundaryPoint) -> float:
    """|1 - (Z, q)| / (1 - ||Z||) for the ball image of p, stable near q.  On
    `SiegelRows` it gives an array."""
    t, r = p.t, abs(p.z + 1.0)
    nb = _ball_image_norm(_sq_gap(t, r))
    if q.at_infinity:
        return r * (1.0 + nb) / (2.0 * t)
    x, c = _vertex_term(p, q)
    with np.errstate(over="ignore"):  # x / 2t first: no x |z + 1| to overflow
        return x / (2.0 * t) * r * (1.0 + nb) / c


def boundary_projection(p: SiegelPoint) -> CVector:
    """Euclidean projection on the Siegel boundary: pr(z, w) = (i Im z + ||w||^2, w)."""
    return CVector((1j * p.z.imag + sq_norm(p.w),) + p.w)


# ---------------------------------------------------------------------------
# Siegel automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Translation:
    """h(z, w) = (z - i y + ||w0||^2 - 2 <w, w0>, w - w0); maps (iy + ||w0||^2 + t, w0) to (t, 0)."""

    y: float
    w0: Complexes = ()

    def __post_init__(self):
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "w0", _as_tuple(self.w0))
        if not all(map(cmath.isfinite, (self.y,) + self.w0)):
            raise InvalidPoint(f"translation needs finite y and w0; got y = {self.y!r}, w0 = {self.w0!r}")

    def apply(self, z: complex, w: Complexes) -> tuple[complex, Complexes]:
        return (z - 1j * self.y + sq_norm(self.w0) - 2.0 * herm(w, self.w0),
                tuple(a - b for a, b in zip(w, self.w0)))

    def inverse(self) -> "Translation":
        return Translation(-self.y, tuple(-c for c in self.w0))

    def is_identity(self) -> bool:
        return self.y == 0.0 and sq_norm(self.w0) == 0.0


@dataclass(frozen=True)
class Dilation:
    """delta_t(z, w) = (z/t, w/sqrt(t)); scales defects by 1/t."""

    t: float

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise InvalidPoint(f"dilation parameter must be positive, finite; got t = {self.t!r}")
        object.__setattr__(self, "t", float(self.t))

    def apply(self, z, w):
        root = np.sqrt(self.t) if type(self.t) is np.ndarray else math.sqrt(self.t)  # a column: stacked
        return z / self.t, tuple(_cdiv(c, root) for c in w)

    def inverse(self) -> "Dilation":
        return Dilation(1.0 / self.t)

    def is_identity(self) -> bool:
        return self.t == 1.0


@dataclass(frozen=True)
class Rotation:
    """(z, w) |-> (z, Omega w) with Omega unitary diagonal."""

    omega: Complexes

    def __post_init__(self):
        om = _as_tuple(self.omega)
        if not all(abs(abs(c) - 1.0) <= DEFAULT_POLICY.validity_tol for c in om):
            raise InvalidPoint(f"rotation entries must have unit modulus; got omega = {om!r}")
        object.__setattr__(self, "omega", om)

    def apply(self, z, w):
        return z, tuple(o * c for o, c in zip(self.omega, w, strict=True))

    def inverse(self) -> "Rotation":
        return Rotation(tuple(c.conjugate() for c in self.omega))

    def is_identity(self) -> bool:
        return all(c == 1.0 for c in self.omega)


@dataclass(frozen=True)
class LinearDiag:
    """eta(z, w) = (alpha z, Lambda w) with |Lambda_jj| = sqrt(alpha) (an automorphism)."""

    alpha: float
    lam: Complexes = ()

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise InvalidPoint(f"alpha must be positive, finite; got alpha = {self.alpha!r}")
        lam = _as_tuple(self.lam)
        root = math.sqrt(self.alpha)
        if not all(abs(abs(c) - root) <= DEFAULT_POLICY.validity_tol * max(1.0, root) for c in lam):
            raise InvalidPoint(f"LinearDiag needs |Lambda_jj| = sqrt(alpha); got lam = {lam!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", lam)

    def apply(self, z, w):
        return self.alpha * z, tuple(c * x for c, x in zip(self.lam, w, strict=True))

    def inverse(self) -> "LinearDiag":
        return LinearDiag(1.0 / self.alpha, tuple(1.0 / c for c in self.lam))

    def is_identity(self) -> bool:
        return self.alpha == 1.0 and all(c == 1.0 for c in self.lam)


@dataclass(frozen=True)
class Inversion:
    """sigma(z, w) = (1/z, w/z): the involution swapping 0 and infinity."""

    def apply(self, z, w):
        return 1.0 / z, tuple(_cdiv(c, z) for c in w)

    def inverse(self) -> "Inversion":
        return Inversion()

    def is_identity(self) -> bool:
        return False


Primitive = Union[Translation, Dilation, Rotation, LinearDiag, Inversion]


@dataclass(frozen=True)
class SiegelAutomorphism:
    """A composition chain of primitives, applied first-to-last."""

    chain: tuple[Primitive, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(p for p in self.chain if not p.is_identity()))


PRIMITIVES = {"translation": Translation, "dilation": Dilation, "rotation": Rotation,
              "linear_diag": LinearDiag, "inversion": Inversion}


def _apply_chain(chain: tuple[Primitive, ...], z, w) -> tuple:
    """(z, w) through the primitives, first to last: coordinates, or columns."""
    for prim in chain:
        z, w = prim.apply(z, w)
    return z, w


def apply_automorphism(a: SiegelAutomorphism, p: SiegelPoint) -> SiegelPoint:
    """The image of a `SiegelPoint`, or of each row of `SiegelRows`, as the same type."""
    return type(p)(*_apply_chain(a.chain, p.z, p.w))


def invert_automorphism(a: SiegelAutomorphism) -> SiegelAutomorphism:
    return SiegelAutomorphism(tuple(p.inverse() for p in reversed(a.chain)))


def recentering_translation(q: BoundaryPoint) -> SiegelAutomorphism:
    """Translation moving a finite Siegel boundary point q to the origin."""
    if q.at_infinity:
        raise ModelMismatch("recentering needs a finite Siegel boundary point")
    z, w = q.v.coords[0], q.v.coords[1:]
    return SiegelAutomorphism((Translation(z.imag, w),))


# ---------------------------------------------------------------------------
# rows: many points at once, with the scalar core's bits.  `abs` is np.hypot
# (CPython's complex abs), and `_cdiv` as well as `/` divide columns by `_smith`.
# ---------------------------------------------------------------------------

def _parts(x) -> tuple:
    """(real, imag) of a column or of a number; a real number or array has imag 0.0."""
    x = x if type(x) is ComplexRows or type(x) is np.ndarray else complex(x)
    return x.real, x.imag


def stack_parameters(items: list, u: int):
    """An object of the dataclass of items (primitives, maps) for len(items) blocks of u rows, block i
    holding items[i]'s fields as columns (real arrays, else `ComplexRows`, one per coordinate of a
    tuple), unchecked: each item was checked.  One item serves every row as it is."""
    if len(items) == 1:
        return items[0]
    stacked = object.__new__(type(items[0]))
    for f in fields(stacked):
        v = np.repeat(np.array([getattr(item, f.name) for item in items]), u, axis=0)
        stacked.__dict__[f.name] = (ComplexRows.columns(v) if v.ndim == 2 else v if v.dtype.kind == "f"
                                    else ComplexRows(v.real, v.imag))
    return stacked


@np.errstate(all="ignore")  # where CPython raises, a row gets inf or NaN without a warning
def _smith(a, b, reciprocal: bool) -> "ComplexRows":
    """a / b on every row by Smith's method: as CPython's `complex` divides, or
    with `reciprocal` as `_cdiv` does (multiplying by the reciprocal).  The
    divisor's part (branch, ratio, denominator and its reciprocal) is made once
    per `ComplexRows` divisor and kept on it: nothing writes a `ComplexRows`
    array in place (`take`, `concat` and `columns` build new objects)."""
    rows = type(b) is ComplexRows
    prep = b._divisor if rows else None
    if prep is None:
        # the branch for |Im b| > |Re b| is the other one on (-i a) / (-i b), so swap into it
        br, bi = _parts(b)
        if type(br) is np.ndarray:
            by_real = np.abs(br) >= np.abs(bi)  # False only beside a NaN: either branch gives NaN
            by_real = None if np.count_nonzero(by_real) == by_real.size else by_real  # None: no row to swap
        else:
            by_real = None if abs(br) >= abs(bi) else False
        if by_real is not None:
            br, bi = np.where(by_real, br, bi), np.where(by_real, bi, -br)
        rat = np.divide(bi, br)
        den = br + bi * rat
        prep = by_real, rat, den, 1.0 / den
        if rows:
            b._divisor = prep
    by_real, rat, den, inv = prep
    ar, ai = _parts(a)
    if by_real is not None:
        ar, ai = np.where(by_real, ar, ai), np.where(by_real, ai, -ar)
    re, im = ar + ai * rat, ai - ar * rat
    return ComplexRows(re * inv, im * inv) if reciprocal else ComplexRows(re / den, im / den)


class ComplexRows:
    """One complex number per row, held as two float arrays.

    Each operator rounds every row as CPython's `complex` does, a real operand
    promoted to complex(x, 0.0) first, so scalar-core formulas (`herm`,
    `sq_norm`, most `apply` methods) run on columns unchanged.  Where CPython
    raises (a zero divisor, an overflow), a row gets inf or NaN instead.
    """

    __slots__ = ("real", "imag", "_divisor")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, real, imag):
        self.real, self.imag, self._divisor = real, imag, None

    @classmethod
    def columns(cls, v: np.ndarray) -> tuple["ComplexRows", ...]:
        """The columns of an (n, dim) complex array."""
        return tuple(cls(c.real, c.imag) for c in v.T)

    def __getitem__(self, i: int) -> complex:
        return complex(self.real[i], self.imag[i])

    def __add__(self, other):
        br, bi = _parts(other)
        return ComplexRows(self.real + br, self.imag + bi)

    def __sub__(self, other):
        br, bi = _parts(other)
        return ComplexRows(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        ar, ai = _parts(other)
        return ComplexRows(ar - self.real, ai - self.imag)

    def __mul__(self, other):
        (ar, ai), (br, bi) = (self.real, self.imag), _parts(other)
        return ComplexRows(ar * br - ai * bi, ar * bi + ai * br)

    __radd__, __rmul__ = __add__, __mul__  # IEEE sums and products commute

    def __truediv__(self, other):
        return _smith(self, other, reciprocal=False)

    def __rtruediv__(self, other):
        return _smith(other, self, reciprocal=False)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def conjugate(self) -> "ComplexRows":
        return ComplexRows(self.real, -self.imag)


def _raise_first(ok: np.ndarray, check) -> None:
    """Raise what `check(i)`, the scalar check of row i, raises for the first row that ok does not mark."""
    if np.count_nonzero(ok) < len(ok):
        i = int(ok.argmin())
        check(i)
        raise InvalidPoint(f"row {i} failed a row check but not the scalar one")


class SiegelRows:
    """Siegel points (z, w) as columns, z and each w_j a `ComplexRows`; t holds the defects.
    Every row is checked as `SiegelPoint` checks a point, t > 0 with z finite, here as
    0 < t < inf (t <= Re z) with 0 * Im z not NaN; the first bad row raises its error."""

    __slots__ = ("z", "w", "t", "dim")

    def __init__(self, z: ComplexRows, w: tuple[ComplexRows, ...] = ()):
        self.z, self.w = z, tuple(w)
        self.dim, self.t = 1 + len(self.w), z.real - sq_norm(self.w)
        _raise_first((self.t > z.imag * 0.0) & (self.t < np.inf), self.point)

    def point(self, i: int) -> SiegelPoint:
        return SiegelPoint(self.z[i], tuple(c[i] for c in self.w))

    @classmethod
    def _checked(cls, z: ComplexRows, w, t: np.ndarray) -> "SiegelRows":
        """Rows whose points were checked already, t their defects."""
        rows = object.__new__(cls)
        rows.z, rows.w, rows.t, rows.dim = z, tuple(w), t, 1 + len(w)
        return rows

    @classmethod
    def of(cls, points: list[SiegelPoint], dim: int | None = None) -> "SiegelRows":
        """The points as rows, each with the t it stored; dim is theirs, needed if there are none."""
        cols = [[p.z for p in points]] + [[p.w[j] for p in points] for j in range((dim or points[0].dim) - 1)]
        z, *w = (ComplexRows(c.real, c.imag) for c in np.array(cols, complex))
        return cls._checked(z, w, np.array([p.t for p in points], float))

    def take(self, i) -> "SiegelRows":
        """The rows i (a slice or an index array), in that order; checked already."""
        z, *w = (ComplexRows(c.real[i], c.imag[i]) for c in (self.z,) + self.w)
        return self._checked(z, w, self.t[i])

    @classmethod
    def concat(cls, parts: list["SiegelRows"]) -> "SiegelRows":
        """The rows of each part in turn; checked already."""
        z, *w = (ComplexRows(np.concatenate([c.real for c in col]), np.concatenate([c.imag for c in col]))
                 for col in zip(*((p.z,) + p.w for p in parts)))
        return cls._checked(z, w, np.concatenate([p.t for p in parts]))


def ball_norm_rows(v: tuple[ComplexRows, ...]) -> np.ndarray:
    """||v|| of every row of ball coordinates, each row checked as
    `BallPoint(CVector(row))` checks one (a non-finite row has no ||v||^2 < 1)."""
    return np.sqrt(_ball_check(v))


def siegel_to_ball_rows(p: SiegelRows) -> np.ndarray:
    """`siegel_to_ball` of every row, as an (n, dim) complex array."""
    v = _ball_coords(p.z, p.w)
    _ball_check(v)
    return np.stack([np.stack([c.real, c.imag], axis=-1) for c in v], axis=1).view(complex)[..., 0]
