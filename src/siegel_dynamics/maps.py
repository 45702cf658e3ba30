"""Self-map families of the Siegel domain with closed-form structure.

Families: quadratic maps f(z, w) = (Az + Bw^2, Cw) of H^2, lifts
f(z, w) = (phi(z - w^2) + w^2, w) of one-dimensional half-plane maps,
diagonal linear maps (alpha z, Lambda w), conjugates by a Siegel
automorphism, and coordinatewise products of one-dimensional maps acting on
the ball model.  Each family is one class with the members `dim`,
`evaluate(p)`, `preimages(p)` (closed-form preimage coordinates, or None) and
`fixed_point_set()`; the module functions of the same purpose delegate to them.
`evaluate_rows(rows)` applies the map to `SiegelRows` with the bits of
`evaluate`; the disk maps' `apply_rows` does the same on `ComplexRows`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DimensionMismatch, InvalidDescriptor, InvalidPoint
from .geometry import (
    INFINITY,
    BallPoint,
    BoundaryPoint,
    ComplexRows,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    _as_tuple,
    apply_automorphism,
    cayley_to_siegel,
    invert_automorphism,
    siegel_to_ball,
)


# ---------------------------------------------------------------------------
# one-dimensional building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfPlaneLinear:
    """phi(z) = c z on the right half-plane, c > 0."""

    c: float
    model: str = field(default="halfplane", init=False)

    def __post_init__(self):
        if self.c <= 0:
            raise InvalidDescriptor("HalfPlaneLinear needs c > 0")

    def apply(self, z: complex) -> complex:
        return self.c * z

    def preimages(self, z: complex) -> list[complex]:
        return [z / self.c]


@dataclass(frozen=True)
class HalfPlaneAffine:
    """phi(z) = c z + i b on the right half-plane, c > 0, b real."""

    c: float
    b: float
    model: str = field(default="halfplane", init=False)

    def __post_init__(self):
        if self.c <= 0:
            raise InvalidDescriptor("HalfPlaneAffine needs c > 0")

    def apply(self, z: complex) -> complex:
        return self.c * z + 1j * self.b

    def preimages(self, z: complex) -> list[complex]:
        return [(z - 1j * self.b) / self.c]


@dataclass(frozen=True)
class BlaschkeDeg2:
    """b(z) = z (z + a) / (1 + a z) on the unit disk, 0 < a < 1.

    Fixes 0 and 1; the boundary fixed point 1 has derivative 2 / (1 + a) > 1,
    so it is repelling while 0 is the Denjoy-Wolff point.
    """

    a: float
    model: str = field(default="disk", init=False)

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise InvalidDescriptor("BlaschkeDeg2 needs a in (0, 1)")

    def apply(self, z: complex) -> complex:
        return z * (z + self.a) / (1.0 + self.a * z)

    apply_rows = apply  # on `ComplexRows` every operation above rounds alike

    def preimages(self, z: complex) -> list[complex]:
        # b(xi) = z  <=>  xi^2 + a (1 - z) xi - z = 0
        return [complex(r) for r in np.roots([1.0, self.a * (1.0 - z), -z])]

    def boundary_derivative(self) -> float:
        return 2.0 / (1.0 + self.a)


@dataclass(frozen=True)
class DiskLinear:
    """z |-> c z on the unit disk, |c| <= 1."""

    c: complex
    model: str = field(default="disk", init=False)

    def __post_init__(self):
        if abs(complex(self.c)) > 1.0:
            raise InvalidDescriptor("DiskLinear needs |c| <= 1")
        object.__setattr__(self, "c", complex(self.c))

    def apply(self, z: complex) -> complex:
        return self.c * z

    apply_rows = apply

    def preimages(self, z: complex) -> list[complex]:
        if self.c == 0:
            return []
        return [z / self.c]


OneDimMap = Union[HalfPlaneLinear, HalfPlaneAffine, BlaschkeDeg2, DiskLinear]


# ---------------------------------------------------------------------------
# map descriptors
# ---------------------------------------------------------------------------

class _Family:
    """Protocol members with a default."""

    def evaluate_rows(self, p: SiegelRows) -> SiegelRows:
        """`evaluate` of every row, one point at a time."""
        images = [evaluate(self, p.point(i)).coords for i in range(len(p.t))]
        z, *w = ComplexRows.columns(np.array(images))
        return SiegelRows(z, w)


@dataclass(frozen=True)
class QuadraticSiegel(_Family):
    """f(z, w) = (A z + B w^2, C w) on H^2; self-map iff A - |B| >= |C|^2."""

    A: float
    B: complex
    C: complex
    dim = 2

    def __post_init__(self):
        if self.A < 0:
            raise InvalidDescriptor("quadratic family needs real A >= 0")
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", complex(self.B))
        object.__setattr__(self, "C", complex(self.C))

    @property
    def is_self_map(self) -> bool:
        return self.A - abs(self.B) >= abs(self.C) ** 2

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        if p.dim != 2:
            raise DimensionMismatch("quadratic family lives on H^2")
        w = p.w[0]
        return SiegelPoint(self.A * p.z + self.B * w * w, (self.C * w,))

    def evaluate_rows(self, p: SiegelRows) -> SiegelRows:
        if p.dim != 2:
            raise DimensionMismatch("quadratic family lives on H^2")
        w = p.w[0]
        return SiegelRows(self.A * p.z + self.B * w * w, (self.C * w,))

    def preimages(self, p: SiegelPoint) -> list[CVector]:
        if self.A == 0 or self.C == 0:
            return []
        return [quadratic_inverse(self, p)[0]]

    def fixed_point_set(self) -> FixedPointSet:
        return classify_quadratic(self.A, self.B, self.C).fixed_point_set


@dataclass(frozen=True)
class Lifted(_Family):
    """f(z, w) = (phi(z - w^2) + w^2, w) on H^2 for a half-plane map phi."""

    phi: OneDimMap
    dim = 2

    def __post_init__(self):
        if self.phi.model != "halfplane":
            raise InvalidDescriptor("Lifted needs a half-plane map")

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        if p.dim != 2:
            raise DimensionMismatch("lifted family lives on H^2")
        w = p.w[0]
        return SiegelPoint(self.phi.apply(p.z - w * w) + w * w, (w,))

    def preimages(self, p: SiegelPoint) -> list[CVector]:
        w = p.w[0]
        return [CVector((v + w * w, w)) for v in self.phi.preimages(p.z - w * w)]

    def fixed_point_set(self) -> FixedPointSet:
        return FixedPointSet("boundary_curve", "{(y0 i + r^2, r) : r real}",
                             {"theta": 0.0, "y0": one_dim_brfp(self.phi).imag})


@dataclass(frozen=True)
class DiagonalLinear(_Family):
    """f(z, w) = (alpha z, Lambda w) with |Lambda_jj|^2 <= alpha."""

    alpha: float
    lam: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidDescriptor("DiagonalLinear needs alpha > 0")
        lam = _as_tuple(self.lam)
        if any(abs(c) ** 2 > self.alpha * (1.0 + 1e-12) for c in lam):
            raise InvalidDescriptor("DiagonalLinear needs |Lambda_jj|^2 <= alpha")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return 1 + len(self.lam)

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        if p.dim != self.dim:
            raise DimensionMismatch(f"DiagonalLinear dim {self.dim}, point dim {p.dim}")
        return SiegelPoint(self.alpha * p.z, tuple(c * x for c, x in zip(self.lam, p.w)))

    def evaluate_rows(self, p: SiegelRows) -> SiegelRows:
        if p.dim != self.dim:
            raise DimensionMismatch(f"DiagonalLinear dim {self.dim}, point dim {p.dim}")
        return SiegelRows(self.alpha * p.z, tuple(c * x for c, x in zip(self.lam, p.w)))

    def preimages(self, p: SiegelPoint) -> list[CVector]:
        if any(c == 0 for c in self.lam):
            return []
        w = tuple(wi / c for wi, c in zip(p.w, self.lam))
        return [CVector((p.z / self.alpha,) + w)]

    def fixed_point_set(self) -> FixedPointSet:
        return FixedPointSet("origin_infinity")


@dataclass(frozen=True)
class Conjugated(_Family):
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
        inner = apply_automorphism(self.by_inverse, p)
        return apply_automorphism(self.by, evaluate(self.base, inner))

    def preimages(self, p: SiegelPoint) -> list[CVector] | None:
        inner = apply_automorphism(self.by_inverse, p)
        base_cands = preimage_candidates(self.base, inner)
        if base_cands is None:
            return None
        out = []
        for c in base_cands:
            try:
                sp = SiegelPoint(c.coords[0], c.coords[1:])
            except InvalidPoint:
                continue
            out.append(CVector(apply_automorphism(self.by, sp).coords))
        return out

    def fixed_point_set(self) -> FixedPointSet:
        return known_brfp_set(self.base)


@dataclass(frozen=True)
class BallProduct(_Family):
    """Coordinatewise ball map (z_1, ..., z_N) |-> (g_1(z_1), ..., g_N(z_N)).

    Each component must be a disk self-map.  Evaluation on Siegel points goes
    through the Cayley transform.
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
        return cayley_to_siegel(evaluate_ball(self, siegel_to_ball(p)))

    def preimages(self, p: SiegelPoint) -> list[CVector]:
        vb = siegel_to_ball(p).v.coords
        per_coord = [g.preimages(z) for g, z in zip(self.components, vb)]
        return [CVector(cayley_to_siegel(BallPoint(CVector(cand))).coords)
                for cand in itertools.product(*per_coord)
                if all(abs(c) < 1.0 for c in cand) and sum(abs(c) ** 2 for c in cand) < 1.0]

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
    """Apply a map descriptor to a Siegel point."""
    return f.evaluate(p)


def iterate(f: MapDescriptor, n: int, p: SiegelPoint) -> SiegelPoint:
    for _ in range(n):
        p = evaluate(f, p)
    return p


# ---------------------------------------------------------------------------
# closed forms for the quadratic family
# ---------------------------------------------------------------------------

def quadratic_inverse(f: QuadraticSiegel, p: SiegelPoint) -> tuple[CVector, bool]:
    """Preimage (z/A - Bw^2/(AC^2), w/C); returns (coords, in_domain).

    The preimage of a Siegel point can land outside the domain, so the raw
    coordinates are returned together with a domain flag.
    """
    if f.A == 0 or f.C == 0:
        raise InvalidDescriptor("quadratic inverse needs A != 0 and C != 0")
    w = p.w[0] / f.C
    z = p.z / f.A - f.B * w * w / f.A
    in_domain = z.real - abs(w) ** 2 > 0.0
    return CVector((z, w)), in_domain


def quadratic_iterate_closed(f: QuadraticSiegel, n: int, p: SiegelPoint) -> SiegelPoint:
    """f^n(z, w) = (A^n z + B S_n w^2, C^n w) with S_n = sum_j A^(n-1-j) C^(2j).

    S_n is summed term by term, in O(n), on purpose: the quotient
    (A^n - C^(2n)) / (A - C^2) is 0/0 at A = C^2 and cancels near it (about
    1e-9 relative error at A = 4, C = 2(1 + 1e-9), where the sum has 1e-15).
    """
    if n < 0:
        raise InvalidDescriptor("iterate count must be >= 0")
    if p.dim != 2:
        raise DimensionMismatch("quadratic family lives on H^2")
    if n == 0:
        return p
    a_pow = f.A ** n
    c2 = f.C * f.C
    s = 0.0 + 0.0j
    term = f.A ** (n - 1)
    for _ in range(n):
        s += term
        term = term * c2 / f.A if f.A != 0 else 0.0
    w = p.w[0]
    return SiegelPoint(a_pow * p.z + f.B * s * w * w, (f.C ** n * w,))


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
    denjoy_wolff: BoundaryPoint | SiegelPoint | None
    multiplier_at_dw: float | None
    fixed_point_set: FixedPointSet
    brfp: BoundaryPoint | None = None
    brfp_multiplier: float | None = None

    def as_dict(self) -> dict:
        def pt(p):
            if p is None:
                return None
            if isinstance(p, SiegelPoint):
                return {"model": "siegel", "coords": [[c.real, c.imag] for c in p.coords]}
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


ORIGIN2 = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")


def classify_quadratic(A: float, B: complex, C: complex) -> ClassificationReport:
    """Full case analysis of f(z, w) = (Az + Bw^2, Cw) on H^2."""
    A, B, C = float(A), complex(B), complex(C)
    if A < 0:
        raise InvalidDescriptor("quadratic family needs real A >= 0")
    self_map = A - abs(B) >= abs(C) ** 2
    if not self_map:
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
# lifted maps and fixed-point loci
# ---------------------------------------------------------------------------

def lift_one_dim(phi: OneDimMap) -> Lifted:
    """Lift a half-plane map phi to f(z, w) = (phi(z - w^2) + w^2, w).

    phi must fix infinity in the Denjoy-Wolff sense (hyperbolic with c > 1 or
    parabolic with c = 1), so that the lift fixes a boundary curve rather than
    attracting to it.
    """
    if phi.model != "halfplane":
        raise InvalidDescriptor("lift needs a half-plane map")
    if phi.c < 1.0:
        raise InvalidDescriptor("lift needs Denjoy-Wolff point at infinity (c >= 1)")
    return Lifted(phi)


def one_dim_brfp(phi: OneDimMap) -> complex:
    """Finite boundary fixed point of a half-plane map with DW at infinity."""
    if isinstance(phi, HalfPlaneLinear):
        return 0.0
    if isinstance(phi, HalfPlaneAffine):
        if phi.c == 1.0:
            raise InvalidDescriptor("parabolic map has no finite boundary fixed point")
        return 1j * (-phi.b / (phi.c - 1.0))
    raise InvalidDescriptor("no closed-form boundary fixed point")


def known_brfp_set(f: MapDescriptor) -> FixedPointSet:
    """Closed-form fixed-point locus where the family provides one."""
    return f.fixed_point_set()


# ---------------------------------------------------------------------------
# expandable structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpandableData:
    alpha: float
    tangential: tuple[complex, ...]  # diagonal of the tangential linear part
    omega: tuple[complex, ...]       # unitary diagonal, entries a_jj/sqrt(alpha) or 1
    L: int


def expandable_decompose(f: MapDescriptor) -> ExpandableData:
    """First-order data (alpha z + ..., A w + ...) of f at the fixed point 0.

    L counts the tangential eigenvalues of maximal modulus sqrt(alpha); the
    rotation Omega carries their phases and is trivial elsewhere.
    """
    if isinstance(f, DiagonalLinear):
        alpha, diag = f.alpha, f.lam
    elif isinstance(f, QuadraticSiegel):
        alpha, diag = f.A, (f.C,)
        if alpha <= 1.0:
            raise InvalidDescriptor("expansion at 0 needs a repelling fixed point (A > 1)")
    else:
        raise InvalidDescriptor(f"{type(f).__name__} is not expandable at 0")
    root = math.sqrt(alpha)
    omega = []
    L = 0
    for a in diag:
        if abs(abs(a) ** 2 - alpha) <= 1e-12 * max(1.0, alpha):
            omega.append(a / root)
            L += 1
        else:
            omega.append(1.0 + 0.0j)
    return ExpandableData(alpha, tuple(diag), tuple(omega), L)


# ---------------------------------------------------------------------------
# closed-form preimage candidates (used by the backward solver)
# ---------------------------------------------------------------------------

def preimage_candidates(f: MapDescriptor, p: SiegelPoint) -> list[CVector] | None:
    """All closed-form preimage coordinates of p under f, or None if the
    family has no closed form.  Candidates may lie outside the domain."""
    return f.preimages(p)
