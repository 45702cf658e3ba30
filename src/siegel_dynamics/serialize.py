"""JSON and CSV forms of points, automorphisms, map descriptors and orbits.

Points serialize as {"re": [...], "im": [...]}; automorphisms as primitive
chains; a map or primitive as its tag ("family" or "kind") plus each dataclass
field under its own name; defects and steps as 17-significant-digit decimal
strings so reports round-trip bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any

from .errors import InvalidDescriptor, InvalidPoint
from .dynamics import BackwardOrbit, ForwardOrbit
from .geometry import PRIMITIVES, BoundaryPoint, CVector, SiegelAutomorphism, SiegelPoint, defect
from .maps import (
    BallProduct,
    BlaschkeDeg2,
    Conjugated,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneAffine,
    HalfPlaneLinear,
    Lifted,
    MapDescriptor,
    QuadraticSiegel,
)


def sig17(x: float) -> str:
    return format(float(x), ".17g")


def complex_to_json(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def point_to_json(coords) -> dict:
    cs = coords.coords if isinstance(coords, CVector) else tuple(coords)
    return {"re": [c.real for c in cs], "im": [c.imag for c in cs]}


def siegel_point_to_json(p: SiegelPoint) -> dict:
    return point_to_json(p.coords)


# ---------------------------------------------------------------------------
# map descriptors and automorphisms: one tag table per place a tag may stand
# ---------------------------------------------------------------------------

FAMILIES = {"quadratic": QuadraticSiegel, "lifted": Lifted, "diagonal": DiagonalLinear,
            "conjugated": Conjugated, "ball_product": BallProduct}
ONE_DIM_MAPS = {"halfplane_linear": HalfPlaneLinear, "halfplane_affine": HalfPlaneAffine,
                "blaschke2": BlaschkeDeg2, "disk_linear": DiskLinear}
_TAGS = {cls: ("family", name) for name, cls in FAMILIES.items()} | {
    cls: ("kind", name) for name, cls in (ONE_DIM_MAPS | PRIMITIVES).items()}


def descriptor_to_json(obj: Any) -> Any:
    """A descriptor, one-dim map, primitive or automorphism as JSON: a tagged
    object is its tag plus each dataclass field under its own name."""
    if isinstance(obj, complex):
        return complex_to_json(obj)
    if isinstance(obj, SiegelAutomorphism):
        return {"chain": [descriptor_to_json(p) for p in obj.chain]}
    if isinstance(obj, tuple):  # a product's components, or coordinates
        if obj and is_dataclass(obj[0]):
            return [descriptor_to_json(g) for g in obj]
        return point_to_json(obj)
    if not is_dataclass(obj):
        return obj  # a real parameter
    if type(obj) not in _TAGS:
        raise InvalidDescriptor(f"no JSON tag for {type(obj).__name__}")
    key, name = _TAGS[type(obj)]
    return {key: name} | {f.name: descriptor_to_json(getattr(obj, f.name)) for f in fields(obj)}


automorphism_to_json = descriptor_to_json


def _from_json(v: Any) -> Any:
    """A field value read by its JSON shape."""
    if isinstance(v, dict):
        if "family" in v:
            return _build(v, "family", FAMILIES, "family")
        if "kind" in v:  # outside a chain, a kind names a one-dim map
            return _build(v, "kind", ONE_DIM_MAPS, "one-dim map kind")
        if "chain" in v:
            return automorphism_from_json(v)
        re, im = v["re"], v["im"]
        if not isinstance(re, list):
            return complex(re, im)
        coords = tuple(complex(r, i) for r, i in zip(re, im, strict=True))
        return CVector(coords).coords if coords else ()  # CVector checks them; N = 1 has none
    if isinstance(v, list):
        return tuple(_from_json(x) for x in v)
    return v


def _build(d: dict, tag: str, table: dict, what: str) -> Any:
    """The class of `table` that d[tag] names, given d's other keys as fields."""
    cls = table.get(d.get(tag))
    if cls is None:
        raise InvalidDescriptor(f"unknown {what} {d.get(tag)!r}")
    return cls(**{k: _from_json(v) for k, v in d.items() if k != tag})


def descriptor_from_json(d: dict) -> MapDescriptor:
    return _build(d, "family", FAMILIES, "family")


def automorphism_from_json(d: dict) -> SiegelAutomorphism:
    chain = tuple(_build(p, "kind", PRIMITIVES, "primitive kind") for p in d["chain"])
    return SiegelAutomorphism(**(d | {"chain": chain}))  # any other key is an unknown field


def load_descriptor(path: str) -> MapDescriptor:
    """The map a descriptor file describes; a malformed one raises `InvalidDescriptor`."""
    try:
        with open(path, "rb") as fh:  # json.loads decodes the bytes; a text file object costs more
            return descriptor_from_json(json.loads(fh.read()))
    except (KeyError, AttributeError, TypeError, ValueError, InvalidDescriptor, InvalidPoint) as err:
        raise InvalidDescriptor(f"{path}: malformed map descriptor ({type(err).__name__}: {err})") from err


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def boundary_point_to_json(q: BoundaryPoint | None) -> Any:
    """None, {"at_infinity": true} or the coordinates of a Siegel boundary point."""
    return None if q is None else {"at_infinity": True} if q.at_infinity else point_to_json(q.v)


def backward_orbit_to_json(o: BackwardOrbit) -> dict:
    return {
        "kind": "backward",
        "points": [siegel_point_to_json(p) for p in o.points],
        "steps": [sig17(s) for s in o.steps],
        "defects": [sig17(t) for t in o.defects],
        "step_bound": sig17(o.step_bound),
        "limit": boundary_point_to_json(o.limit),
        "multiplier_estimate": sig17(o.multiplier_estimate),
        "koranyi_certificate": sig17(o.koranyi_certificate),
    }


def forward_orbit_to_json(o: ForwardOrbit) -> dict:
    return {
        "kind": "forward",
        "points": [siegel_point_to_json(p) for p in o.points],
        "steps": [sig17(s) for s in o.steps],
        "dw_estimate": boundary_point_to_json(o.dw_estimate),
        "interior_limit": siegel_point_to_json(o.interior_limit) if o.interior_limit else None,
        "converged": o.converged,
    }


def orbit_to_csv(points, steps) -> str:
    """Rows: n, Re z, Im z, Re w_j, Im w_j ..., t_n, d_n (d_n empty on the last row)."""
    rows = [["n", "re_z", "im_z", *(f"{part}_w{j}" for j in range(1, points[0].dim) for part in ("re", "im")),
             "t", "d"]]
    for k, p in enumerate(points):
        rows.append([str(k), *(sig17(x) for c in p.coords for x in (c.real, c.imag)), sig17(defect(p)),
                     sig17(steps[k]) if k < len(steps) else ""])
    return "".join(",".join(row) + "\n" for row in rows)


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
