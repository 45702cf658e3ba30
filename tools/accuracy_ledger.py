"""Worst relative error of the two pseudo-hyperbolic metrics against mpmath.

    PYTHONPATH=src python3 tools/accuracy_ledger.py [--pairs 600] [--seed 0]

For each class of ball pairs and each dimension 1-3 it draws ``--pairs`` pairs
(``--seed``) and prints the largest |dist_ball - d| / d, with d the 100-digit
mpmath value on the same double inputs; then the same for ``dist_siegel`` on
max(1, pairs // 31) pairs, each dilated to every defect scale t = 10^k, k =
-300, -280, ..., 300.  The output is one markdown table; with the defaults, 600
pairs and seed 0, it is the one in the README's "Numerics" section.  The tests
take their mpmath references and pair classes from here.
"""

from __future__ import annotations

import argparse
import math

import mpmath
import numpy as np

from siegel_dynamics.geometry import (
    BallPoint,
    CVector,
    SiegelPoint,
    dist_ball,
    dist_siegel,
    siegel_to_ball,
    sq_norm,
)

DIMS = (1, 2, 3)
SIEGEL_SCALES = [10.0 ** k for k in range(-300, 301, 20)]


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def cayley_image(rng, dim: int, lead=lambda rng: 10.0 ** rng.uniform(2, 4)) -> BallPoint:
    """The ball image of a Siegel point with Re z = lead(rng) + t + ||w||^2, t in
    [1, 10], so 1 - ||Z||^2 ~ 4t/|z + 1|^2 is 1e-3..1e-8 for a lead of 1e2..1e4
    (the inputs that once failed)."""
    w = (rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)) * 0.5
    x = lead(rng) + 10.0 ** rng.uniform(0, 1) + sq_norm(w)
    return siegel_to_ball(SiegelPoint(complex(x, rng.normal()), tuple(w)))


# each class draws one pair (Z, W) of ball coordinates
BALL_PAIR_CLASSES = {
    "generic": lambda rng, dim: (_unit(rng, dim) * rng.uniform(0, 0.999),
                                 _unit(rng, dim) * rng.uniform(0, 0.999)),
    # 1 - ||Z|| from 1e-12 to 1e-2, W = Z (1 - s) with s from 1e-6 to 0.1
    "near-sphere radial": lambda rng, dim: (
        (z := _unit(rng, dim) * (1 - 10 ** rng.uniform(-12, -2))), z * (1 - 10 ** rng.uniform(-6, -1))),
    # ||Z|| < 0.99, ||W - Z|| from 1e-14 to 1e-8 in any direction
    "interior nearly equal": lambda rng, dim: (
        (z := _unit(rng, dim) * rng.uniform(0, 0.99)), z + _unit(rng, dim) * 10 ** rng.uniform(-14, -8)),
    # 1 - ||Z|| from 1e-12 to 1e-2, ||W - Z|| from 1e-14 to 1e-8 in any direction
    "near-sphere nearly equal": lambda rng, dim: (
        (z := _unit(rng, dim) * (1 - 10 ** rng.uniform(-12, -2))),
        z + _unit(rng, dim) * 10 ** rng.uniform(-14, -8)),
    "Cayley images near the sphere": lambda rng, dim: (cayley_image(rng, dim).v.coords,
                                                       cayley_image(rng, dim).v.coords),
}


def ball_pairs(kind: str, dim: int, n: int, seed: int) -> list[tuple[BallPoint, BallPoint]]:
    """n distinct pairs of one class, both points strictly inside the ball."""
    rng = np.random.default_rng([seed, dim, list(BALL_PAIR_CLASSES).index(kind)])
    pairs = []
    while len(pairs) < n:
        z, w = (tuple(map(complex, v)) for v in BALL_PAIR_CLASSES[kind](rng, dim))
        if sq_norm(z) < 1.0 and sq_norm(w) < 1.0 and z != w:
            pairs.append((BallPoint(CVector(z)), BallPoint(CVector(w))))
    return pairs


def mp_dist_ball(a: BallPoint, b: BallPoint):
    with mpmath.workdps(100):
        za = [mpmath.mpc(c.real, c.imag) for c in a.v.coords]
        zb = [mpmath.mpc(c.real, c.imag) for c in b.v.coords]
        herm = sum(x * mpmath.conj(y) for x, y in zip(za, zb))
        num = (1 - sum(abs(x) ** 2 for x in za)) * (1 - sum(abs(y) ** 2 for y in zb))
        return mpmath.sqrt(1 - num / abs(1 - herm) ** 2)


def mp_dist_siegel(a: SiegelPoint, b: SiegelPoint):
    with mpmath.workdps(100):
        za, zb = mpmath.mpc(a.z.real, a.z.imag), mpmath.mpc(b.z.real, b.z.imag)
        wa = [mpmath.mpc(c.real, c.imag) for c in a.w]
        wb = [mpmath.mpc(c.real, c.imag) for c in b.w]
        ta = za.real - sum(abs(c) ** 2 for c in wa)
        tb = zb.real - sum(abs(c) ** 2 for c in wb)
        s = za + mpmath.conj(zb) - 2 * sum(x * mpmath.conj(y) for x, y in zip(wa, wb))
        return mpmath.sqrt(1 - 4 * ta * tb / abs(s) ** 2)


def worst_dist_ball(kind: str, dim: int, n: int, seed: int) -> float:
    return max(float(abs(dist_ball(a, b) - ref) / ref)
               for a, b in ball_pairs(kind, dim, n, seed) for ref in [mp_dist_ball(a, b)])


def worst_dist_siegel(dim: int, n: int, seed: int) -> float:
    """Over n pairs at unit scale, each dilated to every t of SIEGEL_SCALES as
    (t z, sqrt(t) w), which keeps the distance."""
    rng = np.random.default_rng([seed, dim])
    worst = 0.0
    for _ in range(n):
        base = []
        for _ in range(2):
            w = (rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)) * 0.5
            base.append((10.0 ** rng.uniform(-1, 1) + sq_norm(w) + 1j * rng.normal(), w))
        for t in SIEGEL_SCALES:
            a, b = (SiegelPoint(t * z, tuple(math.sqrt(t) * w)) for z, w in base)
            ref = mp_dist_siegel(a, b)
            worst = max(worst, float(abs(dist_siegel(a, b) - ref) / ref))
    return worst


def _row(label: str, errs: list[float]) -> str:
    return f"| {label} | " + " | ".join(f"{e:.1e}" for e in errs) + " |"


def ledger(n: int, seed: int) -> str:
    lines = [f"| Pairs ({n} per class and dim) | dim 1 | dim 2 | dim 3 |", "|---|---|---|---|"]
    for kind in BALL_PAIR_CLASSES:
        lines.append(_row(f"`dist_ball`, {kind}", [worst_dist_ball(kind, dim, n, seed) for dim in DIMS]))
    bases = max(1, n // len(SIEGEL_SCALES))
    lines.append(_row("`dist_siegel`, t from 1e-300 to 1e300", [worst_dist_siegel(dim, bases, seed) for dim in DIMS]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=600, help="pairs per class and dimension")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(ledger(args.pairs, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
