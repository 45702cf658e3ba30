"""Geometry of the unit ball B^N and the Siegel domain H^N.

Coordinates, the Cayley transform between the two models, the
pseudo-hyperbolic metric, horospheres and Koranyi approach regions, and the
group of Siegel automorphisms generated by boundary translations, dilations,
tangential rotations, diagonal linear maps and the 0 <-> infinity inversion.

Conventions: a Siegel point is (z, w) with z complex and w in C^(N-1),
subject to Re z > ||w||^2; its "defect" is t = Re z - ||w||^2.  The Cayley
transform used everywhere is

    ball -> Siegel:   (z, w) |-> ((1+z)/(1-z), w/(1-z))
    Siegel -> ball:   (z, w) |-> ((z-1)/(z+1), 2w/(z+1))

so the ball point (1, 0) corresponds to the Siegel point at infinity and
(-1, 0) to the Siegel point 0.

Numerics: per-point code is plain CPython arithmetic on tuples of `complex`;
constructors convert their input to tuples once.  Where a complex division
was historically done by numpy, `_cdiv` repeats numpy's rounding, so reports
keep their bytes.  Most formulas also take many points at once (see "rows").
`dist_siegel` is one formula for a point and for rows, a ratio of scaled sums
of squares that holds from the smallest defect to the largest coordinate.
`dist_ball` is one formula on arrays, a point being a batch of one, with no
cancellation near the sphere: its inputs are formed exactly or as if in twice
the working precision (TwoSum, Dekker's TwoProduct, an error-free summation).
numpy is for that, sampling and real arrays (grids, the Newton Jacobian,
polynomial roots).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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
    if type(a) is ComplexRows:
        return _smith(a, b, reciprocal=True)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((ar * rat + ai) * scl, (ai * rat - ar) * scl)


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


@dataclass(frozen=True)
class SiegelPoint:
    """Point (z, w) of the Siegel domain, Re z > ||w||^2 strictly; t is its defect."""

    z: complex
    w: Complexes = ()
    t: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.__dict__  # the frozen fields, set by item (cheaper than update or setattr)
        z = d["z"] = complex(d["z"])
        w = d["w"] = _as_tuple(d["w"])
        if not cmath.isfinite(z):
            raise InvalidPoint("non-finite z")
        t = d["t"] = z.real - sq_norm(w)
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
    """Boundary point of either model; `at_infinity` only in the Siegel model."""

    v: CVector | None = None
    at_infinity: bool = False
    model: str = "siegel"  # "ball" | "siegel"

    def __post_init__(self):
        if self.model not in ("ball", "siegel"):
            raise InvalidPoint(f"unknown model {self.model!r}")
        if self.at_infinity:
            if self.model != "siegel":
                raise InvalidPoint("at_infinity only exists in the Siegel model")
            return
        if self.v is None:
            raise InvalidPoint("finite boundary point needs coordinates")
        v = self.v if isinstance(self.v, CVector) else CVector(self.v)
        object.__setattr__(self, "v", v)
        tol = DEFAULT_POLICY.boundary_tol
        if self.model == "ball":
            if abs(v.norm() - 1.0) > tol:
                raise InvalidPoint(f"ball boundary point with norm {v.norm()}")
        else:
            z, w = v.coords[0], v.coords[1:]
            if abs(z.real - sq_norm(w)) > tol:
                raise InvalidPoint("Siegel boundary point with nonzero defect")

    @property
    def dim(self) -> int:
        return self.v.dim if self.v is not None else 0


INFINITY = BoundaryPoint(at_infinity=True, model="siegel")

Point = Union[BallPoint, SiegelPoint]


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Horosphere:
    """Ball-model horosphere H(X, R) or Siegel horosphere at infinity H(t).

    Both are open: membership is a strict inequality.
    """

    model: str  # "ball" | "siegel_at_infinity"
    center: BoundaryPoint | None = None
    radius: float | None = None  # R > 0 (ball)
    level: float | None = None   # t > 0 (siegel)

    def __post_init__(self):
        if self.model == "ball":
            if self.center is None or self.center.model != "ball":
                raise InvalidPoint("ball horosphere needs a ball boundary center")
            if self.radius is None or self.radius <= 0:
                raise InvalidPoint("horosphere radius must be positive")
        elif self.model == "siegel_at_infinity":
            if self.level is None or self.level <= 0:
                raise InvalidPoint("horosphere level must be positive")
        else:
            raise InvalidPoint(f"unknown horosphere model {self.model!r}")


@dataclass(frozen=True)
class KoranyiRegion:
    """Approach region K(q, M) = {Z : |1 - (Z,q)| / (1 - ||Z||) < M}, M > 1."""

    vertex: BoundaryPoint
    amplitude: float

    def __post_init__(self):
        if self.amplitude <= 1.0:
            raise InvalidPoint("Koranyi amplitude must exceed 1")


# ---------------------------------------------------------------------------
# Cayley transform and metrics
# ---------------------------------------------------------------------------

def cayley_to_siegel(p: BallPoint) -> SiegelPoint:
    """Map a ball point through C(z, w) = ((1+z)/(1-z), w/(1-z))."""
    z, w = p.v.coords[0], p.v.coords[1:]
    d = 1.0 - z
    return SiegelPoint(_cdiv(1.0 + z, d), tuple(_cdiv(c, d) for c in w))


def siegel_to_ball(p: SiegelPoint) -> BallPoint:
    """Inverse Cayley transform C^{-1}(z, w) = ((z-1)/(z+1), 2w/(z+1))."""
    return BallPoint(CVector(_ball_coords(p.z, p.w)))


def siegel_inversion(p: SiegelPoint) -> SiegelPoint:
    """The automorphism (z, w) |-> (1/z, w/z), swapping 0 and infinity.

    Composing the standard Cayley transform with this inversion yields the
    alternative sign convention in which the ball point (1, 0) goes to the
    Siegel origin instead of infinity.
    """
    return SiegelPoint(1.0 / p.z, tuple(_cdiv(c, p.z) for c in p.w))


def cayley_to_siegel_alt(p: BallPoint) -> SiegelPoint:
    """Alternative-convention Cayley transform (ball (1,0) -> Siegel 0)."""
    return siegel_inversion(cayley_to_siegel(p))


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
    if len(a.w) != len(b.w):
        raise DimensionMismatch(f"dist_siegel: dims {a.dim} != {b.dim}")
    e = v = 0.0
    for x, y in zip(a.w, b.w):
        d = x - y
        e += d.real * d.real + d.imag * d.imag
        v += d.imag * y.real - d.real * y.imag  # Im <d, y>
    ta, tb = a.t, b.t
    v = a.z.imag - b.z.imag - 2.0 * v
    m = ta + tb + e + abs(v)
    dt, u, e, v = (ta - tb) / m, (ta + tb) / m, e / m, v / m
    re = u + e
    d2 = (dt * dt + (2.0 * u + e) * e + v * v) / (re * re + v * v)
    # inline rather than a helper: orbits call this once per preimage candidate
    return np.sqrt(d2) if type(d2) is np.ndarray else math.sqrt(d2)


def one_minus_sq_ball_norm(p: SiegelPoint) -> float:
    """1 - ||C^{-1}(p)||^2 = 4 t / |z + 1|^2, computed without cancellation; it
    divides by |z + 1| twice (t < |z + 1|), so no square over- or underflows."""
    r = abs(p.z + 1.0)
    return 4.0 * (p.t / r) / r


def _ball_coords(z: complex, w: Complexes) -> Complexes:
    """C^{-1}(z, w) without the norm check, so points within rounding of the
    sphere (and boundary points) stay usable."""
    d = z + 1.0
    return ((z - 1.0) / d,) + tuple(_cdiv(2.0 * c, d) for c in w)


def _ball_image_norm(p: SiegelPoint) -> float:
    """||C^{-1}(p)||, from the cancellation-free gap formula."""
    x = 1.0 - one_minus_sq_ball_norm(p)  # np.fmax, as max(0.0, x), maps NaN to 0
    return np.sqrt(np.fmax(x, 0.0)) if type(x) is np.ndarray else math.sqrt(max(0.0, x))


def boundary_gap(p: SiegelPoint) -> float:
    """1 - ||C^{-1}(p)|| computed stably from the defect."""
    return one_minus_sq_ball_norm(p) / (1.0 + _ball_image_norm(p))


def boundary_ball_coords(q: BoundaryPoint, dim: int) -> Complexes:
    """Ball-model coordinates of a boundary point, infinity -> (1, 0, ..., 0)."""
    if q.at_infinity:
        return (1.0 + 0j,) + (0j,) * (dim - 1)
    if q.model == "ball":
        return q.v.coords
    return _ball_coords(q.v.coords[0], q.v.coords[1:])


def julia_quotient(p: SiegelPoint, q: BoundaryPoint) -> float:
    """Horosphere quotient |1 - (Z, q)|^2 / (1 - ||Z||^2) of the ball image of p.

    At the vertex infinity this is 1/defect(p) (the horosphere H(t) at infinity
    is {defect > t}).  Evaluated from Siegel coordinates so it stays accurate
    arbitrarily close to the boundary.  On `SiegelRows` it gives an array.
    """
    if q.model == "siegel" and q.at_infinity:
        return 1.0 / defect(p)
    if q.model == "ball":
        # |s|^2 / (4t/|z + 1|^2) as u/t u, forming neither |s|^2 nor the gap: both underflow
        u = abs(1.0 - herm(_ball_coords(p.z, p.w), q.v.coords)) * abs(p.z + 1.0) / 2.0
        with np.errstate(over="ignore"):  # a row beyond the double range gives inf, as a point does
            return u / p.t * u
    zq, wq = q.v.coords[0], q.v.coords[1:]
    s = abs(p.z + zq.conjugate() - 2.0 * herm(p.w, wq))
    return s / defect(p) * s / abs(zq + 1.0) ** 2  # no |s|^2 to overflow


def koranyi_ratio(p: SiegelPoint, q: BoundaryPoint) -> float:
    """|1 - (Z, q)| / (1 - ||Z||) for the ball image of p, stable near q.  On
    `SiegelRows` it gives an array."""
    nb = _ball_image_norm(p)
    t = p.t
    r = abs(p.z + 1.0)
    if q.model == "siegel" and q.at_infinity:
        return r * (1.0 + nb) / (2.0 * t)
    if q.model == "ball":
        u = abs(1.0 - herm(_ball_coords(p.z, p.w), q.v.coords)) * r / 2.0  # as in `julia_quotient`
        with np.errstate(over="ignore"):
            return u / (2.0 * t) * r * (1.0 + nb)
    zq, wq = q.v.coords[0], q.v.coords[1:]
    s = p.z + zq.conjugate() - 2.0 * herm(p.w, wq)
    return abs(s) / (2.0 * t) * r * (1.0 + nb) / abs(zq + 1.0)  # no |s| |z + 1| to overflow


def horosphere_contains(h: Horosphere, p: Point) -> bool:
    if h.model == "ball":
        if not isinstance(p, BallPoint):
            raise ModelMismatch("ball horosphere needs a ball point")
        zb, qb = p.v.coords, h.center.v.coords
        quot = abs(1.0 - herm(zb, qb)) ** 2 / (1.0 - sq_norm(zb))
        return quot < h.radius
    if not isinstance(p, SiegelPoint):
        raise ModelMismatch("Siegel horosphere needs a Siegel point")
    return defect(p) > h.level


def koranyi_contains(k: KoranyiRegion, p: BallPoint) -> bool:
    qb = boundary_ball_coords(k.vertex, p.dim)
    ratio = abs(1.0 - herm(p.v.coords, qb)) / (1.0 - p.v.norm())
    return ratio < k.amplitude


def boundary_projection(p: SiegelPoint) -> CVector:
    """Euclidean projection on the Siegel boundary: pr(z, w) = (i Im z + ||w||^2, w)."""
    return CVector((1j * p.z.imag + sq_norm(p.w),) + p.w)


def hyperbolic_ball_extremes(z: BallPoint, d: float) -> tuple[float, float]:
    """Range of Euclidean norms over the closed pseudo-hyperbolic ball of radius d.

    The ball is a Euclidean ellipsoid; its nearest and farthest points from the
    origin lie on the complex line through Z, at norms
    (||Z|| - d)/(1 - d ||Z||) (clamped at 0) and (||Z|| + d)/(1 + d ||Z||).
    """
    if not 0.0 <= d < 1.0:
        raise ValueError(f"pseudo-hyperbolic radius {d} outside [0, 1)")
    r = z.v.norm()
    lo = max(0.0, (r - d) / (1.0 - d * r))
    hi = (r + d) / (1.0 + d * r)
    return lo, hi


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
        if self.t <= 0:
            raise InvalidPoint("dilation parameter must be positive")
        object.__setattr__(self, "t", float(self.t))

    def apply(self, z, w):
        return z / self.t, tuple(_cdiv(c, math.sqrt(self.t)) for c in w)

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
        if any(abs(abs(c) - 1.0) > DEFAULT_POLICY.validity_tol for c in om):
            raise InvalidPoint("rotation entries must have unit modulus")
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
        if self.alpha <= 0:
            raise InvalidPoint("alpha must be positive")
        lam = _as_tuple(self.lam)
        root = math.sqrt(self.alpha)
        if any(abs(abs(c) - root) > DEFAULT_POLICY.validity_tol * max(1.0, root) for c in lam):
            raise InvalidPoint("LinearDiag automorphism needs |Lambda_jj| = sqrt(alpha)")
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


IDENTITY = SiegelAutomorphism()


def build_automorphism(kind: str, **params) -> SiegelAutomorphism:
    """Build a single-primitive automorphism: kind in
    {"translation", "dilation", "rotation", "linear_diag", "inversion", "identity"}."""
    kinds = {
        "translation": Translation,
        "dilation": Dilation,
        "rotation": Rotation,
        "linear_diag": LinearDiag,
        "inversion": Inversion,
    }
    if kind == "identity":
        return IDENTITY
    if kind not in kinds:
        raise InvalidPoint(f"unknown automorphism kind {kind!r}")
    return SiegelAutomorphism((kinds[kind](**params),))


def apply_automorphism(a: SiegelAutomorphism, p: SiegelPoint) -> SiegelPoint:
    """The image of a `SiegelPoint`, or of each row of `SiegelRows`, as the same type."""
    z, w = p.z, p.w
    for prim in a.chain:
        z, w = prim.apply(z, w)
    return type(p)(z, w)


def compose_automorphisms(a: SiegelAutomorphism, b: SiegelAutomorphism) -> SiegelAutomorphism:
    """Composition a after b: apply(compose(a, b), P) == apply(a, apply(b, P))."""
    return SiegelAutomorphism(b.chain + a.chain)


def invert_automorphism(a: SiegelAutomorphism) -> SiegelAutomorphism:
    return SiegelAutomorphism(tuple(p.inverse() for p in reversed(a.chain)))


def recentering_translation(q: BoundaryPoint) -> SiegelAutomorphism:
    """Translation moving a finite Siegel boundary point q to the origin."""
    if q.model != "siegel" or q.at_infinity:
        raise ModelMismatch("recentering needs a finite Siegel boundary point")
    z, w = q.v.coords[0], q.v.coords[1:]
    return build_automorphism("translation", y=z.imag, w0=w)


# ---------------------------------------------------------------------------
# rows: many points at once, with the scalar core's bits.  `abs` is np.hypot
# (CPython's complex abs), and `_cdiv` as well as `/` divide columns by `_smith`.
# ---------------------------------------------------------------------------

def _parts(x) -> tuple:
    """(real, imag) of a column or of a number; a real number has imag 0.0."""
    x = x if isinstance(x, ComplexRows) else complex(x)
    return x.real, x.imag


def _smith(a, b, reciprocal: bool) -> "ComplexRows":
    """a / b on every row by Smith's method: as CPython's `complex` divides, or
    with `reciprocal` as `_cdiv` does (multiplying by the reciprocal)."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    with np.errstate(all="ignore"):
        # the branch for |Im b| > |Re b| is the other one on (-i a) / (-i b), so swap into it
        if type(b) is ComplexRows:
            by_real = np.abs(br) >= np.abs(bi)  # False only beside a NaN: either branch gives NaN
            ar, ai, br, bi = (np.where(by_real, x, y) for x, y in ((ar, ai), (ai, -ar), (br, bi), (bi, -br)))
        elif not abs(br) >= abs(bi):
            ar, ai, br, bi = ai, -ar, bi, -br
        rat = np.divide(bi, br)
        den, re, im = br + bi * rat, ar + ai * rat, ai - ar * rat
        if reciprocal:
            den = 1.0 / den
            return ComplexRows(re * den, im * den)
        return ComplexRows(re / den, im / den)


class ComplexRows:
    """One complex number per row, held as two float arrays.

    Each operator rounds every row as CPython's `complex` does, a real operand
    promoted to complex(x, 0.0) first, so scalar-core formulas (`herm`,
    `sq_norm`, most `apply` methods) run on columns unchanged.  Where CPython
    raises (a zero divisor, an overflow), a row gets inf or NaN instead.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

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


def _raise_first(bad: np.ndarray, check) -> None:
    """Raise what `check(i)`, the scalar check of row i, raises for the first bad row."""
    if bad.any():
        i = int(bad.argmax())
        check(i)
        raise InvalidPoint(f"row {i} failed a row check but not the scalar one")


class SiegelRows:
    """Siegel points (z, w) as columns, z and each w_j a `ComplexRows`.  Every
    row is checked as `SiegelPoint` checks a point, and t holds the defects.
    Rows marked in `bad` failed an earlier step of the formula that made them:
    the first row bad either way raises through `check(i)`, that formula's
    scalar path, when one is given."""

    __slots__ = ("z", "w", "t", "dim")

    def __init__(self, z: ComplexRows, w: tuple[ComplexRows, ...] = (), bad=False, check=None):
        self.z, self.w = z, tuple(w)
        self.dim, self.t = 1 + len(self.w), z.real - sq_norm(self.w)
        _raise_first(bad | ~(self.t > 0.0) | ~(np.isfinite(z.real) & np.isfinite(z.imag)),
                     check or self.point)

    def point(self, i: int) -> SiegelPoint:
        return SiegelPoint(self.z[i], tuple(c[i] for c in self.w))

    @classmethod
    def _checked(cls, z: ComplexRows, w, t: np.ndarray) -> "SiegelRows":
        """Rows whose points were checked already, t their defects."""
        rows = object.__new__(cls)
        rows.z, rows.w, rows.t, rows.dim = z, tuple(w), t, 1 + len(w)
        return rows

    @classmethod
    def of(cls, points: list[SiegelPoint]) -> "SiegelRows":
        """The points as rows, each with the t it stored."""
        cols = [[p.z for p in points]] + [[p.w[j] for p in points] for j in range(len(points[0].w))]
        z, *w = (ComplexRows(c.real, c.imag) for c in map(np.array, cols))
        return cls._checked(z, w, np.array([p.t for p in points]))

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
    s = sq_norm(v)
    _raise_first(~(s < 1.0), lambda i: BallPoint(CVector(tuple(c[i] for c in v))))
    return np.sqrt(s)


def siegel_to_ball_rows(p: SiegelRows) -> np.ndarray:
    """`siegel_to_ball` of every row, as an (n, dim) complex array."""
    v = _ball_coords(p.z, p.w)
    ball_norm_rows(v)
    return np.stack([np.stack([c.real, c.imag], axis=-1) for c in v], axis=1).view(complex)[..., 0]
