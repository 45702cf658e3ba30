"""Independent references for checking library output.

The map formulas are evaluated in mpmath straight from the fixture JSON, so a
backward orbit can be checked against f(Z_{k+1}) = Z_k without going through
the library's own evaluation code.  The known multipliers are the closed-form
values at each fixture's repelling boundary point.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath

FIXTURES = ("quadpol", "lifted2z", "diaglinear", "elliptic")
DIGITS = 40


def load_fixture_json(src: Path, name: str) -> dict:
    with open(src / "siegel_dynamics" / "fixtures" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cplx(d) -> complex:
    return complex(d["re"], d["im"]) if isinstance(d, dict) else complex(d)


def known_multiplier(desc: dict) -> float:
    """Multiplier at the fixture's repelling boundary point: 0 for the Siegel
    families, ball (1, 0) (Siegel infinity) for the ball product."""
    family = desc["family"]
    if family == "quadratic":
        return float(desc["A"])
    if family == "lifted" and desc["phi"]["kind"] == "halfplane_linear":
        return float(desc["phi"]["c"])
    if family == "diagonal":
        return float(desc["alpha"])
    if family == "ball_product" and desc["components"][0]["kind"] == "blaschke2":
        return 2.0 / (1.0 + float(desc["components"][0]["a"]))
    raise ValueError(f"no known multiplier for {family}")


def _disk_map(comp: dict, u):
    if comp["kind"] == "blaschke2":
        a = mpmath.mpf(comp["a"])
        return u * (u + a) / (1 + a * u)
    if comp["kind"] == "disk_linear":
        return mpmath.mpc(_cplx(comp["c"])) * u
    raise ValueError(f"unknown disk map {comp['kind']}")


def evaluate_mp(desc: dict, coords):
    """f(z, w) in mpmath for one fixture descriptor; coords are complex."""
    z, *w = (mpmath.mpc(c) for c in coords)
    family = desc["family"]
    if family == "quadratic":
        return [mpmath.mpf(desc["A"]) * z + mpmath.mpc(_cplx(desc["B"])) * w[0] ** 2,
                mpmath.mpc(_cplx(desc["C"])) * w[0]]
    if family == "lifted":
        phi = desc["phi"]
        u = z - w[0] ** 2
        if phi["kind"] == "halfplane_linear":
            v = mpmath.mpf(phi["c"]) * u
        else:
            v = mpmath.mpf(phi["c"]) * u + 1j * mpmath.mpf(phi["b"])
        return [v + w[0] ** 2, w[0]]
    if family == "diagonal":
        lam = [mpmath.mpc(complex(re, im)) for re, im in zip(desc["lam"]["re"], desc["lam"]["im"])]
        return [mpmath.mpf(desc["alpha"]) * z] + [c * wi for c, wi in zip(lam, w)]
    if family == "ball_product":
        # Siegel -> ball -> coordinatewise disk maps -> Siegel
        d = z + 1
        ball = [(z - 1) / d] + [2 * wi / d for wi in w]
        img = [_disk_map(comp, u) for comp, u in zip(desc["components"], ball)]
        e = 1 - img[0]
        return [(1 + img[0]) / e] + [u / e for u in img[1:]]
    raise ValueError(f"unknown family {family}")


def orbit_exactness(desc: dict, points) -> float:
    """max_k ||f(Z_{k+1}) - Z_k|| / ||Z_k|| over a backward orbit, in mpmath."""
    worst = mpmath.mpf(0)
    with mpmath.workdps(DIGITS):
        for k in range(len(points) - 1):
            image = evaluate_mp(desc, points[k + 1].coords)
            target = [mpmath.mpc(c) for c in points[k].coords]
            diff = mpmath.sqrt(sum(abs(a - b) ** 2 for a, b in zip(image, target)))
            size = mpmath.sqrt(sum(abs(b) ** 2 for b in target))
            worst = max(worst, diff / size)
    return float(worst)
