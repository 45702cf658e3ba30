"""Backward orbits, bit for bit against the per-step references they replace.

`backward_orbit` takes each defect from the t its point stored, the preimage
candidates as coordinate tuples, and the Koranyi certificate from one pass
over the orbit's rows.  The references below are the earlier per-point code
(with the families' `preimages` returning `CVector`s, and the Koranyi ratio
recomputing t from z and w); floats are compared by `float.hex`.  The metric
is `geometry.dist_siegel` itself: this file checks how orbits are assembled,
and `tests/test_boundary_accuracy.py` checks the metric against mpmath.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from siegel_dynamics import dynamics as dyn
from siegel_dynamics import geometry as geo
from siegel_dynamics import maps
from siegel_dynamics import serialize as ser
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.errors import InvalidPoint, NoBackwardStep, OrbitTooShort
from siegel_dynamics.geometry import (
    INFINITY,
    BallPoint,
    BoundaryPoint,
    CVector,
    SiegelPoint,
    _ball_coords,
    boundary_projection,
    cayley_to_siegel,
    herm,
    siegel_to_ball,
    sq_norm,
)
from siegel_dynamics.maps import (
    BallProduct,
    Conjugated,
    DiagonalLinear,
    Lifted,
    QuadraticSiegel,
)

MAPS = {name: ser.load_descriptor(str(fixture_path(name))) for name in FIXTURES}
MAPS["elliptic_at_zero"] = Conjugated(MAPS["elliptic"], geo.SiegelAutomorphism((geo.Inversion(),)))

AXIS, AXIS_FAR = SiegelPoint(0.7, (0.0,)), SiegelPoint(5.0, (0.0,))
CASES = {
    "quadpol-axis": ("quadpol", AXIS),
    "quadpol-axis_far": ("quadpol", AXIS_FAR),
    "quadpol-curve": ("quadpol", SiegelPoint(0.36 + 0.05, (0.6j,))),  # just inside {(r^2, i r)}
    "quadpol-off_curve": ("quadpol", SiegelPoint(0.49 + 0.2, (0.7,))),  # too short: raises
    "lifted2z-axis": ("lifted2z", AXIS),
    "lifted2z-axis_far": ("lifted2z", AXIS_FAR),
    "lifted2z-curve": ("lifted2z", SiegelPoint(0.49 + 0.2, (0.7,))),  # just inside {(r^2, r)}
    "diaglinear-axis": ("diaglinear", AXIS),
    "diaglinear-axis_far": ("diaglinear", AXIS_FAR),
    "elliptic-infinity": ("elliptic", SiegelPoint(2.0, (0.0,))),
    "elliptic-infinity_far": ("elliptic", AXIS_FAR),
    "elliptic_at_zero-axis": ("elliptic_at_zero", AXIS),
    "elliptic_at_zero-axis_near": ("elliptic_at_zero", SiegelPoint(0.2, (0.0,))),
}


# ---------------------------------------------------------------------------
# references: the per-step code
# ---------------------------------------------------------------------------

def ref_defect(p: SiegelPoint) -> float:
    """t = Re z - ||w||^2 (> 0 on the domain; the horosphere height at infinity)."""
    return p.z.real - sq_norm(p.w)


ref_dist_siegel = geo.dist_siegel


def ref_one_minus_sq_ball_norm(p: SiegelPoint) -> float:
    r = abs(p.z + 1.0)
    return 4.0 * (ref_defect(p) / r) / r


def ref_ball_image_norm(p: SiegelPoint) -> float:
    return math.sqrt(max(0.0, 1.0 - ref_one_minus_sq_ball_norm(p)))


def ref_koranyi_ratio(p: SiegelPoint, q: BoundaryPoint) -> float:
    """|1 - (Z, q)| / (1 - ||Z||) for the ball image of p, stable near q."""
    nb = ref_ball_image_norm(p)
    t = ref_defect(p)
    if q.model == "siegel" and q.at_infinity:
        return abs(p.z + 1.0) * (1.0 + nb) / (2.0 * t)
    if q.model == "ball":
        zb = _ball_coords(p.z, p.w)
        return abs(1.0 - herm(zb, q.v.coords)) * (1.0 + nb) / ref_one_minus_sq_ball_norm(p)
    zq, wq = q.v.coords[0], q.v.coords[1:]
    s = p.z + zq.conjugate() - 2.0 * herm(p.w, wq)
    return abs(s) / (2.0 * t) * abs(p.z + 1.0) * (1.0 + nb) / abs(zq + 1.0)


def ref_preimage_candidates(f, p: SiegelPoint) -> list[CVector] | None:
    """Each family's earlier `preimages`, which returned `CVector`s."""
    if isinstance(f, QuadraticSiegel):
        if f.A == 0 or f.C == 0:
            return []
        w = p.w[0] / f.C
        z = p.z / f.A - f.B * w * w / f.A
        return [CVector((z, w))]
    if isinstance(f, Lifted):
        w = p.w[0]
        return [CVector((v + w * w, w)) for v in f.phi.preimages(p.z - w * w)]
    if isinstance(f, DiagonalLinear):
        if any(c == 0 for c in f.lam):
            return []
        w = tuple(wi / c for wi, c in zip(p.w, f.lam))
        return [CVector((p.z / f.alpha,) + w)]
    if isinstance(f, Conjugated):
        inner = geo.apply_automorphism(f.by_inverse, p)
        base_cands = ref_preimage_candidates(f.base, inner)
        if base_cands is None:
            return None
        out = []
        for c in base_cands:
            try:
                sp = SiegelPoint(c.coords[0], c.coords[1:])
            except InvalidPoint:
                continue
            out.append(CVector(geo.apply_automorphism(f.by, sp).coords))
        return out
    assert isinstance(f, BallProduct)
    vb = siegel_to_ball(p).v.coords
    per_coord = [g.preimages(z) for g, z in zip(f.components, vb)]
    return [CVector(cayley_to_siegel(BallPoint(CVector(cand))).coords)
            for cand in itertools.product(*per_coord)
            if all(abs(c) < 1.0 for c in cand) and sum(abs(c) ** 2 for c in cand) < 1.0]


def ref_backward_step(f, zn: SiegelPoint, a: float, steps: list[float] | None = None) -> SiegelPoint:
    if not 0.0 < a < 1.0:
        raise ValueError("step bound a must lie in (0, 1)")
    cands = ref_preimage_candidates(f, zn)
    admissible: list[tuple[float, float, SiegelPoint]] = []
    if cands is None:
        p = dyn._newton_preimage(f, zn, zn)
        admissible.append((ref_dist_siegel(zn, p), ref_defect(p), p))
    else:
        for c in cands:
            try:
                p = SiegelPoint(c.coords[0], c.coords[1:])
            except InvalidPoint:
                continue
            admissible.append((ref_dist_siegel(zn, p), ref_defect(p), p))
    admissible = [t for t in admissible if t[0] <= a * (1.0 + 1e-12)]
    if not admissible:
        raise NoBackwardStep(f"no in-domain preimage within step bound {a}")
    admissible.sort(key=lambda t: (t[0], t[1]))
    if steps is not None:
        steps.append(admissible[0][0])
    return admissible[0][2]


def ref_backward_orbit(f, z0: SiegelPoint, a: float, n: int) -> dyn.BackwardOrbit:
    points = [z0]
    steps: list[float] = []
    for _ in range(n):
        try:
            points.append(ref_backward_step(f, points[-1], a, steps))
        except NoBackwardStep:
            break
    defects = tuple(ref_defect(p) for p in points)
    if len(points) < 3:
        raise OrbitTooShort("backward orbit too short to analyze")
    to_infinity = defects[-1] > defects[0]
    if to_infinity:
        limit: BoundaryPoint | None = INFINITY
        ratios = [defects[k + 1] / defects[k] for k in range(len(defects) - 1)]
    else:
        pr_tail = [np.array(boundary_projection(p).coords) for p in points[-5:]]
        limit = BoundaryPoint(v=CVector(tuple(np.mean(pr_tail, axis=0))), model="siegel")
        ratios = [defects[k] / defects[k + 1] for k in range(len(defects) - 1)]
    tail = ratios[max(0, 3 * len(ratios) // 4):]
    alpha = float(statistics.median(tail))
    cert = max(ref_koranyi_ratio(p, limit) for p in points)
    return dyn.BackwardOrbit(tuple(points), tuple(steps), defects, a, limit, alpha, cert, to_infinity)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def cbits(c: complex) -> tuple[str, str]:
    return c.real.hex(), c.imag.hex()


def orbit_bits(orbit_fn, *args):
    """Every float of an orbit as hex, or the type and message it raised."""
    try:
        o = orbit_fn(*args)
    except Exception as err:  # both sides must raise the same thing
        return "raised", type(err).__name__, str(err)
    limit = None if o.limit is None or o.limit.at_infinity else [cbits(c) for c in o.limit.v.coords]
    return ([[cbits(c) for c in p.coords] for p in o.points], [s.hex() for s in o.steps],
            [t.hex() for t in o.defects], o.step_bound.hex(), o.limit == INFINITY, limit,
            o.multiplier_estimate.hex(), o.koranyi_certificate.hex(), o.at_infinity)


@pytest.mark.parametrize("n", [40, 500])
@pytest.mark.parametrize("case", CASES)
def test_backward_orbit_matches_per_step_reference(case, n):
    name, z0 = CASES[case]
    f = MAPS[name]
    want = orbit_bits(ref_backward_orbit, f, z0, 0.34, n)
    assert orbit_bits(dyn.backward_orbit, f, z0, 0.34, n) == want
    if want[0] != "raised":
        # the certificate is a max: compare the ratio of every point, not just the largest
        orbit = dyn.backward_orbit(f, z0, 0.34, n)
        got = geo.koranyi_ratio(geo.SiegelRows.of(orbit.points), orbit.limit).tolist()
        assert [x.hex() for x in got] == [ref_koranyi_ratio(p, orbit.limit).hex() for p in orbit.points]


def test_axis_orbit_stops_at_the_smallest_double_defect():
    # D1 up to the double range: t halves down to 2^-1074 = 5e-324, every step is
    # fl(1/3), and the next preimage's t = 2^-1075 rounds to 0, so the orbit stops
    f, z0 = MAPS["quadpol"], SiegelPoint(1.0, (0.0,))
    orbit = dyn.backward_orbit(f, z0, 0.34, 1100)
    assert len(orbit.steps) == 1074 and orbit.defects[-1] == 5e-324
    assert {s.hex() for s in orbit.steps} == {"0x1.5555555555555p-2"}
    assert orbit_bits(dyn.backward_orbit, f, z0, 0.34, 1100) == orbit_bits(ref_backward_orbit, f, z0, 0.34, 1100)


def step_bits(step_fn, f, zn, a):
    """The chosen step and point of one backward step as hex, or the message."""
    steps = []
    try:
        p = step_fn(f, zn, a, steps)
    except NoBackwardStep as err:
        return str(err)
    return [s.hex() for s in steps], [cbits(c) for c in p.coords]


def test_backward_step_matches_reference_on_every_candidate_count():
    # the elliptic fixture has zero, one or two admissible preimages
    rng = np.random.default_rng(12)
    f, seen = MAPS["elliptic"], set()
    for _ in range(300):
        w = complex(rng.normal(), rng.normal()) * 0.3
        zn = SiegelPoint(10 ** rng.uniform(-1, 1) + sq_norm((w,)) + 1j * rng.normal(), (w,))
        seen.add(len(maps.preimage_candidates(f, zn)))
        for a in (0.2, 0.5, 0.9):
            assert step_bits(dyn.backward_step, f, zn, a) == step_bits(ref_backward_step, f, zn, a)
    assert seen >= {1, 2}


def test_orbit_builds_no_cvector_per_step_and_one_koranyi_pass(monkeypatch):
    built, koranyi = [], []
    post_init, ratio = CVector.__post_init__, dyn.koranyi_ratio

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_ratio(p, q):
        koranyi.append(p)
        return ratio(p, q)

    monkeypatch.setattr(CVector, "__post_init__", counting_post_init)
    monkeypatch.setattr(dyn, "koranyi_ratio", counting_ratio)
    counts = {}
    for n in (10, 40):
        built.clear(), koranyi.clear()
        orbit = dyn.backward_orbit(MAPS["quadpol"], SiegelPoint(1.0, (0.0,)), 0.34, n)
        assert len(orbit.points) == n + 1
        assert len(koranyi) == 1 and type(koranyi[0]) is geo.SiegelRows
        counts[n] = len(built)
    # only the limit's tail projections build vectors, however long the orbit
    assert counts[10] == counts[40] <= 6
