"""Self-map families of the Siegel domain with closed-form structure.

Families: quadratic maps f(z, w) = (Az + Bw^2, Cw) of H^2, lifts
f(z, w) = (phi(z - w^2) + w^2, w) of one-dimensional half-plane maps,
diagonal linear maps (alpha z, Lambda w), conjugates by a Siegel
automorphism, and coordinatewise products of one-dimensional maps acting on
the ball model.  Each family is one class with the members `dim`,
`evaluate(p)`, `preimages(p)` (the list of closed-form preimages as
coordinate tuples (z, w_1, ...)) and `fixed_point_set()`; the module
functions of the same purpose delegate to them.
`evaluate` takes a `SiegelPoint` or `SiegelRows` and returns the same type,
each row with the bits of one point, and may take the same steps for both:
the module function `evaluate` checks the dimension and gives a failed batch
the per-point error.  The disk maps' `apply` takes a complex number or a
`ComplexRows` column alike.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import truediv
from typing import Union

from .errors import DimensionMismatch, InvalidDescriptor, InvalidPoint
from .geometry import (
    INFINITY,
    BallPoint,
    BoundaryPoint,
    Complexes,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    _apply_chain,
    _as_tuple,
    _ball_check,
    _ball_coords,
    _siegel_coords,
    apply_automorphism,
    invert_automorphism,
    sq_norm,
)
from .policy import DEFAULT_POLICY


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfPlaneLinear:
    """phi(z) = c z on the right half-plane, c > 0."""

    c: float
    model = "halfplane"

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise InvalidDescriptor(f"HalfPlaneLinear needs c > 0, finite; got c = {self.c!r}")

    def apply(self, z: complex) -> complex:
        return self.c * z

    def preimages(self, z: complex) -> list[complex]:
        return [z / self.c]

    def brfp(self) -> complex:
        """Finite boundary fixed point."""
        return 0.0


@dataclass(frozen=True)
class HalfPlaneAffine:
    """phi(z) = c z + i b on the right half-plane, c > 0, b real."""

    c: float
    b: float
    model = "halfplane"

    def __post_init__(self):
        if not (0 < self.c < math.inf and cmath.isfinite(self.b)):
            raise InvalidDescriptor(f"HalfPlaneAffine needs c > 0 and b, finite; got c = {self.c!r}, "
                                    f"b = {self.b!r}")

    def apply(self, z: complex) -> complex:
        return self.c * z + 1j * self.b

    def preimages(self, z: complex) -> list[complex]:
        return [(z - 1j * self.b) / self.c]

    def brfp(self) -> complex:
        """Finite boundary fixed point."""
        if self.c == 1.0:
            raise InvalidDescriptor("parabolic map has no finite boundary fixed point")
        return 1j * (-self.b / (self.c - 1.0))


@dataclass(frozen=True)
class BlaschkeDeg2:
    """b(z) = z (z + a) / (1 + a z) on the unit disk, 0 < a < 1.

    Fixes 0 and 1; the boundary fixed point 1 has derivative 2 / (1 + a) > 1,
    so it is repelling while 0 is the Denjoy-Wolff point.
    """

    a: float
    model = "disk"

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise InvalidDescriptor("BlaschkeDeg2 needs a in (0, 1)")

    def apply(self, z: complex) -> complex:
        return z * (z + self.a) / (1.0 + self.a * z)

    def preimages(self, z: complex) -> list[complex]:
        # b(xi) = z <=> xi^2 + p xi - z = 0: the larger root r = -(p +- s) / 2 adds, then Vieta
        p = self.a * (1.0 - z)
        s = cmath.sqrt(p * p + 4.0 * z)
        r = -0.5 * (p + s if p.real * s.real + p.imag * s.imag >= 0.0 else p - s)
        return [r, -z / r]

    def boundary_derivative(self) -> float:
        return 2.0 / (1.0 + self.a)


@dataclass(frozen=True)
class DiskLinear:
    """z |-> c z on the unit disk, |c| <= 1."""

    c: complex
    model = "disk"

    def __post_init__(self):
        if not abs(complex(self.c)) <= 1.0:
            raise InvalidDescriptor(f"DiskLinear needs |c| <= 1; got c = {self.c!r}")
        object.__setattr__(self, "c", complex(self.c))

    def apply(self, z: complex) -> complex:
        return self.c * z

    def preimages(self, z: complex) -> list[complex]:
        if self.c == 0:
            return []
        return [z / self.c]


OneDimMap = Union[HalfPlaneLinear, HalfPlaneAffine, BlaschkeDeg2, DiskLinear]


# ---------------------------------------------------------------------------
# map descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticSiegel:
    """f(z, w) = (A z + B w^2, C w) on H^2; self-map iff A - |B| >= |C|^2."""

    A: float
    B: complex
    C: complex
    dim = 2

    def __post_init__(self):
        if not 0 <= self.A < math.inf:
            raise InvalidDescriptor(f"quadratic family needs real A >= 0, finite; got A = {self.A!r}")
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", complex(self.B))
        object.__setattr__(self, "C", complex(self.C))
        if not (cmath.isfinite(self.B) and cmath.isfinite(self.C)):
            raise InvalidDescriptor(f"quadratic family needs finite B and C; got B = {self.B!r}, "
                                    f"C = {self.C!r}")

    @property
    def is_self_map(self) -> bool:
        return self.A - abs(self.B) >= abs(self.C) ** 2

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        w = p.w[0]
        return type(p)(self.A * p.z + self.B * w * w, (self.C * w,))

    def preimages(self, p: SiegelPoint) -> list[Complexes]:
        if self.A == 0 or self.C == 0:
            return []
        w = p.w[0] / self.C
        return [(p.z / self.A - self.B * w * w / self.A, w)]

    def fixed_point_set(self) -> FixedPointSet:
        return classify_quadratic(self.A, self.B, self.C).fixed_point_set


@dataclass(frozen=True)
class Lifted:
    """f(z, w) = (phi(z - w^2) + w^2, w) on H^2 for a half-plane map phi; a self-map
    iff c >= 1 (t' = c t + 2(c - 1)(Im w)^2)."""

    phi: HalfPlaneLinear | HalfPlaneAffine
    dim = 2

    def __post_init__(self):
        if self.phi.model != "halfplane":
            raise InvalidDescriptor("Lifted needs a half-plane map")
        if self.phi.c < 1.0:
            raise InvalidDescriptor("lift needs Denjoy-Wolff point at infinity (c >= 1)")

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        w = p.w[0]
        return type(p)(self.phi.apply(p.z - w * w) + w * w, (w,))

    def preimages(self, p: SiegelPoint) -> list[Complexes]:
        w = p.w[0]
        ww, out = w * w, []
        for v in self.phi.preimages(p.z - ww):
            out.append((v + ww, w))
        return out

    def fixed_point_set(self) -> FixedPointSet:
        return FixedPointSet("boundary_curve", "{(y0 i + r^2, r) : r real}",
                             {"theta": 0.0, "y0": self.phi.brfp().imag})


@dataclass(frozen=True)
class DiagonalLinear:
    """f(z, w) = (alpha z, Lambda w) with |Lambda_jj|^2 <= alpha."""

    alpha: float
    lam: tuple[complex, ...] = ()

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise InvalidDescriptor(f"DiagonalLinear needs alpha > 0, finite; got alpha = {self.alpha!r}")
        lam = _as_tuple(self.lam)
        if not all(abs(c) ** 2 <= self.alpha * (1.0 + DEFAULT_POLICY.validity_tol) for c in lam):
            raise InvalidDescriptor(f"DiagonalLinear needs |Lambda_jj|^2 <= alpha; got lam = {lam!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return 1 + len(self.lam)

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        return type(p)(self.alpha * p.z, tuple(c * x for c, x in zip(self.lam, p.w)))

    def preimages(self, p: SiegelPoint) -> list[Complexes]:
        if 0 in self.lam:
            return []
        return [(p.z / self.alpha, *map(truediv, p.w, self.lam))]

    def fixed_point_set(self) -> FixedPointSet:
        return FixedPointSet("origin_infinity")


@dataclass(frozen=True)
class Conjugated:
    """g = by o base o by^{-1}, for any family `base`; `base` is reached through
    the module functions, so a call on g nests a call on `base` under its name."""

    base: "MapDescriptor"
    by: SiegelAutomorphism

    @cached_property
    def by_inverse(self) -> SiegelAutomorphism:
        return invert_automorphism(self.by)

    @property
    def dim(self) -> int:
        return self.base.dim

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        return apply_automorphism(self.by, evaluate(self.base, apply_automorphism(self.by_inverse, p)))

    def preimages(self, p: SiegelPoint) -> list[Complexes]:
        # the base's in-domain candidates through `by`, as coordinates: the caller checks them
        inner = apply_automorphism(self.by_inverse, p)
        images = (_apply_chain(self.by.chain, c[0], c[1:]) for c in preimage_candidates(self.base, inner)
                  if cmath.isfinite(c[0]) and c[0].real - sq_norm(c[1:]) > 0.0)
        return [(z,) + w for z, w in images]

    def fixed_point_set(self) -> FixedPointSet:
        return self.base.fixed_point_set()


@dataclass(frozen=True)
class BallProduct:
    """Coordinatewise ball map (z_1, ..., z_N) |-> (g_1(z_1), ..., g_N(z_N)).

    Each component must be a disk self-map.  Evaluation on Siegel points goes
    through the Cayley transform, one formula for a point and for rows.
    """

    components: tuple[OneDimMap, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InvalidDescriptor("BallProduct needs at least one component")
        if any(g.model != "disk" for g in comps):
            raise InvalidDescriptor("BallProduct components must be disk maps")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        v = _ball_coords(p.z, p.w)  # a point and rows take the same steps
        u = tuple(g.apply(c) for g, c in zip(self.components, v))
        _ball_check(v)  # the disk maps stay finite near the ball, but C(u) divides by 1 - u_1
        _ball_check(u)
        c = _siegel_coords(u)
        return type(p)(c[0], c[1:])

    def preimages(self, p: SiegelPoint) -> list[Complexes]:
        per_coord = [g.preimages(z) for g, z in zip(self.components, _ball_coords(p.z, p.w))]
        return [_siegel_coords(cand) for cand in itertools.product(*per_coord) if sq_norm(cand) < 1.0]

    def fixed_point_set(self) -> FixedPointSet:
        g = self.components[0]
        if isinstance(g, BlaschkeDeg2) and all(
                isinstance(h, DiskLinear) and abs(h.c) < 1 for h in self.components[1:]):
            coords = (1.0,) + (0.0,) * (self.dim - 1)
            return FixedPointSet("point", "ball boundary point (1, 0, ..., 0)",
                                 {"ball_coords": coords,
                                  "multiplier": g.boundary_derivative()})
        return FixedPointSet("unknown")


MapDescriptor = Union[QuadraticSiegel, Lifted, DiagonalLinear, Conjugated, BallProduct]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_ball(f: BallProduct, p: BallPoint) -> BallPoint:
    if p.dim != f.dim:
        raise DimensionMismatch(f"BallProduct dim {f.dim}, point dim {p.dim}")
    return BallPoint(CVector(tuple(g.apply(z) for g, z in zip(f.components, p.v.coords))))


def evaluate(f: MapDescriptor, p: SiegelPoint) -> SiegelPoint:
    """Apply a map descriptor to a Siegel point, or to each row of `SiegelRows`.

    A batch raises what the per-point loop raises for its first failing row: a
    family's rows may check one step at a time, so a failed batch is replayed
    point by point, and the batch's own error stands only if no point fails.
    """
    if p.dim != f.dim:
        raise DimensionMismatch(f"{type(f).__name__} dim {f.dim}, point dim {p.dim}")
    try:
        return f.evaluate(p)
    except Exception:
        if type(p) is SiegelRows:
            for i in range(len(p.t)):
                f.evaluate(p.point(i))
        raise


def iterate(f: MapDescriptor, n: int, p: SiegelPoint) -> SiegelPoint:
    for _ in range(n):
        p = evaluate(f, p)
    return p


# ---------------------------------------------------------------------------
# closed forms for the quadratic family
# ---------------------------------------------------------------------------

def quadratic_iterate_closed(f: QuadraticSiegel, n: int, p: SiegelPoint) -> SiegelPoint:
    """f^n(p), f^n being the quadratic map `quadratic_power(f, n)`."""
    if n < 0:
        raise InvalidDescriptor("iterate count must be >= 0")
    if p.dim != 2:
        raise DimensionMismatch("quadratic family lives on H^2")
    return quadratic_power(f, n).evaluate(p) if n else p


def quadratic_power(f: QuadraticSiegel, n: int) -> QuadraticSiegel:
    """f^n for n >= 1: (A^n z + B S_n w^2, C^n w) with S_n = sum_j A^(n-1-j) C^(2j), unchecked
    (f passed its checks; a B S_n that overflows to inf fails in the points, as f^n(p) did),
    but an A^n or C^n beyond the double range raises `InvalidPoint`.
    S_n is summed term by term, in O(n), on purpose: the quotient (A^n - C^(2n)) / (A - C^2)
    is 0/0 at A = C^2 and cancels near it (about 1e-9 relative error at A = 4,
    C = 2(1 + 1e-9), where the sum has 1e-15)."""
    c2 = f.C * f.C
    s = 0.0 + 0.0j
    try:
        term, a_n, c_n = f.A ** (n - 1), f.A ** n, f.C ** n
    except OverflowError:
        raise InvalidPoint(f"f^{n} of the quadratic family: A^{n} or C^{n} is beyond the double range") from None
    for _ in range(n):
        s += term
        term = term * c2 / f.A if f.A != 0 else 0.0
    power = object.__new__(QuadraticSiegel)
    power.__dict__.update(A=a_n, B=f.B * s, C=c_n)
    return power


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSet:
    """Closed-form description of the boundary/interior fixed-point locus."""

    kind: str  # none | origin_infinity | boundary_curve | interior_line | point | unknown
    description: str = ""
    data: dict = field(default_factory=dict)

    def curve_point(self, r: float) -> CVector:
        """Point of a boundary curve {(y0 i + r^2 e_dir, r e^{i theta})}."""
        if self.kind != "boundary_curve":
            raise InvalidDescriptor("not a boundary curve")
        theta = self.data["theta"]
        y0 = self.data.get("y0", 0.0)
        return CVector((1j * y0 + r * r, r * cmath.exp(1j * theta)))


@dataclass(frozen=True)
class ClassificationReport:
    is_self_map: bool
    type: str  # hyperbolic | elliptic | identity | zero-map | degenerate-projection | not-self-map
    denjoy_wolff: BoundaryPoint | None
    multiplier_at_dw: float | None
    fixed_point_set: FixedPointSet
    brfp: BoundaryPoint | None = None
    brfp_multiplier: float | None = None

    def as_dict(self) -> dict:
        def pt(p):
            if p is None:
                return None
            if p.at_infinity:
                return {"model": "siegel", "at_infinity": True}
            return {"model": p.model, "coords": [[c.real, c.imag] for c in p.v.coords]}

        return {
            "is_self_map": self.is_self_map,
            "type": self.type,
            "denjoy_wolff": pt(self.denjoy_wolff),
            "multiplier_at_dw": self.multiplier_at_dw,
            "fixed_point_set": {"kind": self.fixed_point_set.kind,
                                "description": self.fixed_point_set.description,
                                "data": {k: v for k, v in self.fixed_point_set.data.items()}},
            "brfp": pt(self.brfp),
            "brfp_multiplier": self.brfp_multiplier,
        }


ORIGIN2 = BoundaryPoint(v=CVector((0.0, 0.0)))


def classify_quadratic(A: float, B: complex, C: complex) -> ClassificationReport:
    """Full case analysis of f(z, w) = (Az + Bw^2, Cw) on H^2."""
    f = QuadraticSiegel(A, B, C)
    A, B, C = f.A, f.B, f.C
    if not f.is_self_map:
        return ClassificationReport(False, "not-self-map", None, None, FixedPointSet("none"))
    if A == 0:
        # then B = C = 0: the constant map to the boundary point 0 is not a
        # self-map of the open domain in any meaningful dynamical sense
        return ClassificationReport(False, "zero-map", None, None, FixedPointSet("none"))
    if C == 0:
        return ClassificationReport(True, "degenerate-projection",
                                    None, None,
                                    FixedPointSet("interior_line", "axis {(z, 0)}" if A == 1 else "none"))
    if A == 1 and B == 0 and C == 1:
        return ClassificationReport(True, "identity", None, None,
                                    FixedPointSet("interior_line", "every point is fixed"))
    if A == 1:
        # then B = 0 and |C| <= 1, C != 1 (or C = 1 handled above): the axis
        # {(z, 0)} is fixed pointwise, iterates rotate/contract the w block
        return ClassificationReport(True, "elliptic", None, None,
                                    FixedPointSet("interior_line", "axis {(z, 0)} fixed pointwise"))
    if A < 1:
        report_fps = FixedPointSet("origin_infinity")
        return ClassificationReport(True, "hyperbolic", ORIGIN2, A, report_fps,
                                    brfp=INFINITY, brfp_multiplier=None)
    # A > 1: Denjoy-Wolff at infinity with multiplier 1/A, repelling point 0
    if C == 1 and abs(A - (abs(B) + 1.0)) < 1e-14 and B != 0:
        beta = cmath.phase(B)
        fps = FixedPointSet(
            "boundary_curve",
            "{(r^2, r e^{i theta}) : r real} with theta = (pi - Arg B)/2",
            {"theta": (math.pi - beta) / 2.0, "y0": 0.0},
        )
    else:
        fps = FixedPointSet("origin_infinity")
    return ClassificationReport(True, "hyperbolic", INFINITY, 1.0 / A, fps,
                                brfp=ORIGIN2, brfp_multiplier=A)


def classify(f: MapDescriptor) -> ClassificationReport:
    if isinstance(f, QuadraticSiegel):
        return classify_quadratic(f.A, f.B, f.C)
    if isinstance(f, Conjugated):
        return classify(f.base)
    raise InvalidDescriptor("classification covers the quadratic family")


# ---------------------------------------------------------------------------
# expandable structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpandableData:
    alpha: float
    tangential: tuple[complex, ...]  # diagonal of the tangential linear part
    omega: tuple[complex, ...]       # unitary diagonal, entries a_jj/sqrt(alpha) or 1
    L: int
    mask: tuple[bool, ...]           # which tangential coordinates are expandable


def expandable_decompose(f: MapDescriptor) -> ExpandableData:
    """First-order data (alpha z + ..., A w + ...) of f at the fixed point 0.

    The mask marks the tangential eigenvalues of maximal modulus sqrt(alpha), L counts
    them; the rotation Omega carries their phases and is trivial elsewhere.
    """
    if isinstance(f, DiagonalLinear):
        alpha, diag = f.alpha, f.lam
    elif isinstance(f, QuadraticSiegel):
        alpha, diag = f.A, (f.C,)
        if alpha <= 1.0:
            raise InvalidDescriptor("expansion at 0 needs a repelling fixed point (A > 1)")
    else:
        raise InvalidDescriptor(f"{type(f).__name__} is not expandable at 0")
    mask = tuple(abs(abs(a) ** 2 - alpha) <= DEFAULT_POLICY.validity_tol * max(1.0, alpha) for a in diag)
    omega = tuple(a / math.sqrt(alpha) if keep else 1.0 + 0.0j for a, keep in zip(diag, mask))
    return ExpandableData(alpha, tuple(diag), omega, sum(mask), mask)


# ---------------------------------------------------------------------------
# closed-form preimage candidates (used by the backward solver)
# ---------------------------------------------------------------------------

def preimage_candidates(f: MapDescriptor, p: SiegelPoint) -> list[Complexes]:
    """Closed-form preimages of p under f as tuples (z, w_1, ...).  Candidates
    may lie outside the domain."""
    return f.preimages(p)
