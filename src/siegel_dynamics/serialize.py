"""JSON and CSV forms of points, automorphisms, map descriptors and orbits.

Points serialize as {"re": [...], "im": [...]}; automorphisms as primitive
chains; defects and steps as 17-significant-digit decimal strings so reports
round-trip bit-for-bit.
"""

from __future__ import annotations

import io
import json
from typing import Any

from .errors import InvalidDescriptor
from .dynamics import BackwardOrbit, ForwardOrbit
from .geometry import (
    CVector,
    Dilation,
    Inversion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    Translation,
    defect,
)
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
    OneDimMap,
    QuadraticSiegel,
)


def sig17(x: float) -> str:
    return format(float(x), ".17g")


def complex_to_json(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def complex_from_json(d: Any) -> complex:
    if isinstance(d, dict):
        return complex(d.get("re", 0.0), d.get("im", 0.0))
    return complex(d)


def point_to_json(coords) -> dict:
    cs = coords.coords if isinstance(coords, CVector) else tuple(coords)
    return {"re": [c.real for c in cs], "im": [c.imag for c in cs]}


def point_from_json(d: dict) -> CVector:
    return CVector(tuple(complex(r, i) for r, i in zip(d["re"], d["im"])))


def _tangential_from_json(d: dict | None) -> tuple[complex, ...]:
    """A tangential block as a tuple, checked by CVector; a missing or empty
    block (N = 1) gives (), which a CVector cannot hold."""
    return point_from_json(d).coords if d and d["re"] else ()


def siegel_point_to_json(p: SiegelPoint) -> dict:
    return point_to_json(p.coords)


def siegel_point_from_json(d: dict) -> SiegelPoint:
    v = point_from_json(d)
    return SiegelPoint(v.coords[0], v.coords[1:])


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def automorphism_to_json(a: SiegelAutomorphism) -> dict:
    chain = []
    for prim in a.chain:
        if isinstance(prim, Translation):
            chain.append({"kind": "translation", "y": prim.y,
                          "w0": point_to_json(prim.w0)})
        elif isinstance(prim, Dilation):
            chain.append({"kind": "dilation", "t": prim.t})
        elif isinstance(prim, Rotation):
            chain.append({"kind": "rotation", "omega": point_to_json(prim.omega)})
        elif isinstance(prim, LinearDiag):
            chain.append({"kind": "linear_diag", "alpha": prim.alpha,
                          "lam": point_to_json(prim.lam)})
        elif isinstance(prim, Inversion):
            chain.append({"kind": "inversion"})
        else:
            raise InvalidDescriptor(f"unknown primitive {type(prim).__name__}")
    return {"chain": chain}


def automorphism_from_json(d: dict) -> SiegelAutomorphism:
    prims: list = []
    for item in d.get("chain", []):
        kind = item["kind"]
        if kind == "translation":
            prims.append(Translation(item["y"], _tangential_from_json(item.get("w0"))))
        elif kind == "dilation":
            prims.append(Dilation(item["t"]))
        elif kind == "rotation":
            prims.append(Rotation(_tangential_from_json(item["omega"])))
        elif kind == "linear_diag":
            prims.append(LinearDiag(item["alpha"], _tangential_from_json(item["lam"])))
        elif kind == "inversion":
            prims.append(Inversion())
        else:
            raise InvalidDescriptor(f"unknown primitive kind {kind!r}")
    return SiegelAutomorphism(tuple(prims))


# ---------------------------------------------------------------------------
# one-dimensional maps and descriptors
# ---------------------------------------------------------------------------

def one_dim_to_json(g: OneDimMap) -> dict:
    if isinstance(g, HalfPlaneLinear):
        return {"kind": "halfplane_linear", "c": g.c}
    if isinstance(g, HalfPlaneAffine):
        return {"kind": "halfplane_affine", "c": g.c, "b": g.b}
    if isinstance(g, BlaschkeDeg2):
        return {"kind": "blaschke2", "a": g.a}
    if isinstance(g, DiskLinear):
        return {"kind": "disk_linear", "c": complex_to_json(g.c)}
    raise InvalidDescriptor(f"unknown one-dim map {type(g).__name__}")


def one_dim_from_json(d: dict) -> OneDimMap:
    kind = d.get("kind")
    if kind == "halfplane_linear":
        return HalfPlaneLinear(d["c"])
    if kind == "halfplane_affine":
        return HalfPlaneAffine(d["c"], d["b"])
    if kind == "blaschke2":
        return BlaschkeDeg2(d["a"])
    if kind == "disk_linear":
        return DiskLinear(complex_from_json(d["c"]))
    raise InvalidDescriptor(f"unknown one-dim map kind {kind!r}")


def descriptor_to_json(f: MapDescriptor) -> dict:
    if isinstance(f, QuadraticSiegel):
        return {"family": "quadratic", "A": f.A,
                "B": complex_to_json(f.B), "C": complex_to_json(f.C)}
    if isinstance(f, Lifted):
        return {"family": "lifted", "phi": one_dim_to_json(f.phi)}
    if isinstance(f, DiagonalLinear):
        return {"family": "diagonal", "alpha": f.alpha,
                "lam": point_to_json(f.lam)}
    if isinstance(f, Conjugated):
        return {"family": "conjugated", "base": descriptor_to_json(f.base),
                "by": automorphism_to_json(f.by)}
    if isinstance(f, BallProduct):
        return {"family": "ball_product",
                "components": [one_dim_to_json(g) for g in f.components]}
    raise InvalidDescriptor(f"unknown descriptor {type(f).__name__}")


def descriptor_from_json(d: dict) -> MapDescriptor:
    fam = d.get("family")
    if fam == "quadratic":
        return QuadraticSiegel(d["A"], complex_from_json(d["B"]), complex_from_json(d["C"]))
    if fam == "lifted":
        return Lifted(one_dim_from_json(d["phi"]))
    if fam == "diagonal":
        return DiagonalLinear(d["alpha"], _tangential_from_json(d.get("lam")))
    if fam == "conjugated":
        return Conjugated(descriptor_from_json(d["base"]), automorphism_from_json(d["by"]))
    if fam == "ball_product":
        return BallProduct(tuple(one_dim_from_json(g) for g in d["components"]))
    raise InvalidDescriptor(f"unknown family {fam!r}")


def load_descriptor(path: str) -> MapDescriptor:
    """The map a descriptor file describes; a malformed one raises `InvalidDescriptor`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return descriptor_from_json(data)
    except (KeyError, AttributeError, TypeError, ValueError) as err:
        raise InvalidDescriptor(f"{path}: malformed map descriptor ({type(err).__name__}: {err})") from err


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def backward_orbit_to_json(o: BackwardOrbit) -> dict:
    limit: Any
    if o.at_infinity:
        limit = {"at_infinity": True}
    elif o.limit is not None:
        limit = point_to_json(o.limit.v)
    else:
        limit = None
    return {
        "kind": "backward",
        "points": [siegel_point_to_json(p) for p in o.points],
        "steps": [sig17(s) for s in o.steps],
        "defects": [sig17(t) for t in o.defects],
        "step_bound": sig17(o.step_bound),
        "limit": limit,
        "multiplier_estimate": sig17(o.multiplier_estimate),
        "koranyi_certificate": sig17(o.koranyi_certificate),
    }


def forward_orbit_to_json(o: ForwardOrbit) -> dict:
    if o.dw_estimate is None:
        dw: Any = None
    elif o.dw_estimate.at_infinity:
        dw = {"at_infinity": True}
    else:
        dw = point_to_json(o.dw_estimate.v)
    return {
        "kind": "forward",
        "points": [siegel_point_to_json(p) for p in o.points],
        "steps": [sig17(s) for s in o.steps],
        "dw_estimate": dw,
        "interior_limit": siegel_point_to_json(o.interior_limit) if o.interior_limit else None,
        "converged": o.converged,
    }


def orbit_to_csv(points, steps) -> str:
    """Rows: n, Re z, Im z, Re w_j, Im w_j ..., t_n, d_n (d_n empty on the last row)."""
    buf = io.StringIO()
    dim = points[0].dim
    wcols = []
    for j in range(1, dim):
        wcols += [f"re_w{j}", f"im_w{j}"]
    buf.write(",".join(["n", "re_z", "im_z"] + wcols + ["t", "d"]) + "\n")
    for k, p in enumerate(points):
        row = [str(k), sig17(p.z.real), sig17(p.z.imag)]
        for c in p.w:
            row += [sig17(c.real), sig17(c.imag)]
        row.append(sig17(defect(p)))
        row.append(sig17(steps[k]) if k < len(steps) else "")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
