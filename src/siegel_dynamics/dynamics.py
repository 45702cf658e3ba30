"""Forward and backward iteration, boundary multipliers, and the
quantitative checks (defect decay, Julia-type inclusions, orbit asymptotics,
elliptic growth constants, angular diagnostics).

Backward orbits are sequences Z_0, Z_1, ... with f(Z_{k+1}) = Z_k and
pseudo-hyperbolic steps bounded by a < 1; they converge to a boundary
repelling fixed point q with multiplier alpha satisfying
1/c <= alpha <= (1+a)/(1-a).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from operator import truediv

import numpy as np

from .errors import DimensionMismatch, InvalidPoint, NoBackwardStep, OrbitTooShort
from .geometry import (
    INFINITY,
    BoundaryPoint,
    ComplexRows,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    _cdivs,
    _raise_first,
    _siegel_coords,
    apply_automorphism,
    ball_norm_rows,
    boundary_ball_coords,
    boundary_gap,
    boundary_projection,
    defect,
    dist_siegel,
    julia_quotient,
    koranyi_ratio,
    sq_norm,
)
from .maps import (
    BallProduct,
    MapDescriptor,
    evaluate,
    preimage_candidates,
)
from .policy import DEFAULT_POLICY

# ---------------------------------------------------------------------------
# forward orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForwardOrbit:
    points: tuple[SiegelPoint, ...]
    steps: tuple[float, ...]
    dw_estimate: BoundaryPoint | None
    interior_limit: SiegelPoint | None
    converged: bool


def forward_orbit(f: MapDescriptor, z0: SiegelPoint, n_max: int = 100,
                  tol: float = 1e-9) -> ForwardOrbit:
    """Iterate f until the orbit reaches the boundary (gap < tol), settles at
    an interior fixed point (step < tol), or n_max is exhausted."""
    if n_max < 1:
        raise ValueError(f"a forward orbit needs n >= 1 steps, got n = {n_max}")
    points = [z0]
    steps: list[float] = []
    dw: BoundaryPoint | None = None
    interior: SiegelPoint | None = None
    converged = False
    for _ in range(n_max):
        nxt = evaluate(f, points[-1])
        steps.append(dist_siegel(points[-1], nxt))
        points.append(nxt)
        if defect(nxt) > 1e5 * max(1.0, defect(z0)):
            dw = INFINITY
            converged = True
            break
        if boundary_gap(nxt) < tol:
            # the ball gap is small near infinity too: the orbit tends to infinity when its
            # ball image is within tol of infinity's image (1, 0), ||(2, 2w)|| / |z + 1|
            near_inf = 2.0 * math.hypot(1.0, *map(abs, nxt.w)) < tol * abs(nxt.z + 1.0)
            dw = INFINITY if near_inf else BoundaryPoint(v=boundary_projection(nxt))
            converged = True
            break
        if steps[-1] < tol:
            interior = nxt
            converged = True
            break
    return ForwardOrbit(tuple(points), tuple(steps), dw, interior, converged)


# ---------------------------------------------------------------------------
# boundary multiplier
# ---------------------------------------------------------------------------

def multiplier_at_boundary(f: MapDescriptor, q: BoundaryPoint) -> float:
    """Dilatation coefficient of f at a boundary fixed point q.

    Samples the ratio (1 - ||f(Z)||) / (1 - ||Z||) along the radial ray
    Z_k = (1 - decay^k) q, k = 1 .. 40, decay = 1/2, in the ball model and
    extrapolates the tail (Richardson step matched to the geometric grid).
    Returns +inf when the ratios diverge (no finite dilatation at q).  The samples
    are one batch, read as a loop over them: a divergent ratio wins over a later error.
    """
    decay = 0.5
    qb = boundary_ball_coords(q, f.dim)
    nq = math.sqrt(sq_norm(qb))
    s = [decay ** k for k in range(1, 41)]

    def ratios(m: int) -> list[float]:  # the first m samples' ratios, (1 - s) q rounded as float * complex
        c = _siegel_coords(tuple(ComplexRows(1.0 - np.array(s[:m]), np.zeros(m)) * x for x in qb))
        fp = evaluate(f, SiegelRows(c[0], c[1:]))
        _raise_first(np.isinf(abs(fp.z + 1.0)), lambda i: boundary_gap(fp.point(i)))  # abs overflows in CPython
        return [g / (sk * nq + (1.0 - nq)) for g, sk in zip(boundary_gap(fp).tolist(), s)]

    r, error = _until_failure(ratios, len(s))
    if any(not math.isfinite(x) or x > 1e9 for x in r):
        return math.inf
    if error is not None:
        raise error
    # the pair k = 25, 26: 2^-26 is the deepest gap above the 1e-8 noise floor
    return (r[25] - decay * r[24]) / (1.0 - decay)


def _until_failure(batch, n: int) -> tuple[list, Exception | None]:
    """(batch(m), what batch(m + 1) raised): m <= n the largest that does not raise, by bisection."""
    lo, hi, values, error = 0, n, [], None  # batch(lo) passes; batch(hi + 1) raises unless hi = n
    while lo < hi:
        mid = hi if error is None else (lo + hi + 1) // 2
        try:
            with np.errstate(all="ignore"):  # where a point raises, a row gets inf or NaN silently
                values, lo = batch(mid), mid
        except Exception as err:
            error, hi = err, mid - 1
    return values, error


# ---------------------------------------------------------------------------
# backward orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackwardOrbit:
    points: tuple[SiegelPoint, ...]
    steps: tuple[float, ...]
    defects: tuple[float, ...]
    step_bound: float
    limit: BoundaryPoint | None
    multiplier_estimate: float
    koranyi_certificate: float
    at_infinity: bool


def backward_step(f: MapDescriptor, zn: SiegelPoint, a: float,
                  steps: list[float] | None = None) -> SiegelPoint:
    """One backward step: Z_{n+1} with f(Z_{n+1}) = Z_n and d(Z_n, Z_{n+1}) <= a.

    Among the family's closed-form preimages in the domain, the one with the
    smallest step within the bound wins, ties broken by smallest defect.  When
    `steps` is given, the chosen step d(Z_n, Z_{n+1}) is appended to it.  The
    `NoBackwardStep` raised otherwise names the smallest step of an in-domain
    preimage, when there is one.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("step bound a must lie in (0, 1)")
    bound = a * (1.0 + DEFAULT_POLICY.validity_tol)
    best, best_d, nearest = None, math.inf, math.inf  # nearest: the smallest step over the bound, for the error text
    for c in preimage_candidates(f, zn):
        try:
            p = SiegelPoint(c[0], c[1:])
        except InvalidPoint:
            continue
        d = dist_siegel(zn, p)
        if d <= bound:
            if d < best_d or d == best_d and p.t < best.t:  # first of equal (d, t) stays
                best, best_d = p, d
        elif d < nearest:
            nearest = d
    if best is None:
        near = f" (nearest at step {nearest:.3g})" if nearest < math.inf else ""
        raise NoBackwardStep(f"no in-domain preimage within step bound {a}{near}")
    if steps is not None:
        steps.append(best_d)
    return best


def backward_orbit(f: MapDescriptor, z0: SiegelPoint, a: float, n: int) -> BackwardOrbit:
    """Backward-iteration sequence of length n (truncated if a step fails).

    Once a step is exactly 0 and gives back its point's bits (z and every w
    as bytes: 0.0 == -0.0, yet a zero's sign can steer a branch), every later
    step, a pure function of the map, those bits and the bound, repeats it; the
    orbit appends the remaining copies of that point and step instead.  The
    limit is the last point's boundary projection, on Re z = ||w||^2 exactly;
    orbits whose defects grow converge to the point at infinity.  The multiplier estimate
    is the median tail defect ratio; the Koranyi certificate is the largest
    approach-region amplitude attained along the orbit.
    """
    if n < 2:
        raise ValueError(f"a backward orbit needs n >= 2 steps, got n = {n}")
    if z0.dim != f.dim:
        raise DimensionMismatch(f"backward orbit of a map of dim {f.dim} from a point of dim {z0.dim}")
    points = [z0]
    steps: list[float] = []
    stop = ""
    for left in range(n - 1, -1, -1):  # the steps still to take after this one
        try:
            points.append(backward_step(f, points[-1], a, steps))
        except NoBackwardStep as err:
            stop = f"; {err}"
            break
        if steps[-1] == 0.0 and np.array(points[-1].coords).tobytes() == np.array(points[-2].coords).tobytes():
            points += points[-1:] * left
            steps += steps[-1:] * left
            break
    if len(points) < 3:
        raise OrbitTooShort(f"backward orbit too short to analyze: {len(steps)} of {n} steps{stop}")
    rows = SiegelRows.of(points)
    defects = tuple(rows.t.tolist())
    to_infinity = defects[-1] > defects[0]
    if to_infinity:
        limit: BoundaryPoint | None = INFINITY
        alpha = _tail_median(defects[1:], defects[:-1])
    else:
        limit = BoundaryPoint(v=boundary_projection(points[-1]))
        alpha = _tail_median(defects[:-1], defects[1:])
    # Python's max over the points in order, as a per-point loop takes it
    cert = max(koranyi_ratio(rows, limit).tolist())
    return BackwardOrbit(tuple(points), tuple(steps), defects, a, limit, alpha, cert, to_infinity)


def _tail_median(num, den) -> float:
    """The median of the ratios num[k] / den[k] over the last quarter of the k, an orbit's multiplier estimate."""
    k = 3 * len(num) // 4
    return statistics.median(map(truediv, num[k:], den[k:]))


# ---------------------------------------------------------------------------
# quantitative checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    ok: bool
    min_margin: float  # min over pairs of c^k t_n - t_{n+k} (>= 0 when ok)


def verify_defect_decay(orbit: BackwardOrbit, c: float) -> DecayReport:
    """Check t_{n+k} <= c^k t_n for all index pairs of the orbit."""
    if not 0.0 < c < 1.0:
        raise ValueError("decay constant c must lie in (0, 1)")
    t = np.array(orbit.defects, dtype=float)
    n = len(t)
    if n < 2:
        return DecayReport(True, math.inf)
    ck = np.array([c ** k for k in range(1, n)])  # CPython's c ** k: np.power rounds otherwise
    # row i holds t_{i+k} for k = 1 .. n - 1, NaN past the end: NaN fails every test
    # below and fmin skips it, as the pairs' loop skips those k
    later = np.lib.stride_tricks.sliding_window_view(np.concatenate([t[1:], np.full(n - 1, np.nan)]), n - 1)
    ok, margin = True, math.inf
    for i in range(0, n, 256):  # blocks of rows keep long orbits' temporaries small
        ti = t[i:i + 256, None]
        m = ck * ti - later[i:i + 256]
        ok = ok and not (m < -DEFAULT_POLICY.validity_tol * ti).any()
        margin = min(margin, float(np.fmin.reduce(m, axis=None, initial=math.inf)))
    return DecayReport(ok, margin)


@dataclass(frozen=True)
class JuliaReport:
    n_samples: int
    violations: int
    max_quotient_ratio: float  # max of quotient(f(P)) / (alpha * quotient(P))
    seed: int


def julia_inclusion_check(f: MapDescriptor, x: BoundaryPoint, alpha: float,
                          n_samples: int = 10000, seed: int = 0) -> JuliaReport:
    """Sample horospheres at x and verify the Julia-type inclusion

        quotient(f(P), x) <= alpha * quotient(P, x)

    where quotient is the horosphere level |1 - (Z, x)|^2 / (1 - ||Z||^2)
    (equal to 1/defect at the point at infinity).  alpha < 1 expresses the
    attracting inclusion f(H(t)) contained in H(t/alpha); alpha > 1 the
    repelling one.  The points are `_julia_samples(f.dim, n_samples, seed)`.
    """
    return next(_julia_reports((f,), ((x, alpha),), n_samples, seed))


def _julia_samples(dim: int, n_samples: int, seed: int) -> SiegelRows:
    """The points on which `julia_inclusion_check` tests maps of dimension dim."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    # whole columns, in this order: log10 t ~ U(-3, 3) as -3 + 6 random() (numpy's
    # uniform; t = 10.0 ** x in CPython per element), Re w and Im w ~ N(0, 1)^(dim - 1),
    # a scale for w ~ U(0, 1), Im z / 2 ~ N(0, 1)
    t = [10.0 ** e for e in (-3.0 + 6.0 * rng.random(n_samples)).tolist()]
    re, im = rng.standard_normal((n_samples, dim - 1)), rng.standard_normal((n_samples, dim - 1))
    return _siegel_samples(t, re, im, rng.random(n_samples)[:, None], 2.0 * rng.standard_normal(n_samples))


def _julia_reports(maps, vertices, n_samples: int, seed: int):
    """Yield `julia_inclusion_check` of each map at each vertex (x, alpha) in turn, on one draw per map
    dimension: each map evaluated once, and each draw's quotient at each vertex taken once."""
    drawn = {dim: _julia_samples(dim, n_samples, seed) for dim in {f.dim for f in maps}}
    for _, alpha in vertices:
        if not alpha > 0.0:  # alpha = 0 would make every ratio inf
            raise ValueError(f"alpha must be positive, got {alpha}")
    q_in = {dim: [julia_quotient(p, x) for x, _ in vertices] for dim, p in drawn.items()}
    for f in maps:
        fp = evaluate(f, drawn[f.dim])
        for (x, alpha), q in zip(vertices, q_in[f.dim]):
            ratio = julia_quotient(fp, x) / (alpha * q)
            # Python's max over the rows in order, as the per-point loop took it (NaN skipped)
            yield JuliaReport(n_samples, int(np.count_nonzero(ratio > 1.0 + 1e-10)),
                              max([0.0, *ratio.tolist()]), seed)


def _pair_samples(rng: np.random.Generator, samples: int) -> SiegelRows:
    """`samples` pairs of points of dimension 2, the first points then the second, with the values that
    scalar calls draw in turn for each point: Re w, Im w ~ N(0, 1), log10 t ~ U(-2, 2) as -2 + 4 random()
    (numpy's uniform), Im z ~ N(0, 1); w scaled by 0.5.  One call draws the normals between two uniforms."""
    v, u = np.empty(6 * samples), []  # each point's Re w, Im w, Im z; its uniform
    normal, uniform, draw = rng.standard_normal, rng.random, u.append
    normal(out=v[:2])
    for i in range(2, len(v), 3):  # the last point's slice is cut to its Im z
        draw(uniform())
        normal(out=v[i:i + 3])
    v = v.reshape(samples, 2, 3).swapaxes(0, 1).reshape(-1, 3)
    t = [10.0 ** (-2.0 + 4.0 * e) for e in u[0::2] + u[1::2]]
    return _siegel_samples(t, v[:, :1], v[:, 1:2], 0.5, v[:, 2])


def _siegel_samples(t, re, im, scale, y) -> SiegelRows:
    """Sampled points (t + ||w||^2 + i y, w) with w = (re + i im) * scale, from
    rows of drawn variates (re and im hold one row of k reals per point).

    numpy's elementwise loops, and its sums over short rows, round alike at any
    batch size, so every row has the bits of the same formula applied to one
    sample's arrays.
    """
    w = (np.array(re) + 1j * np.array(im)) * scale
    z = np.array(t) + np.sum(np.abs(w) ** 2, axis=1) + 1j * np.array(y)
    return SiegelRows(ComplexRows(z.real, z.imag), ComplexRows.columns(w))


@dataclass(frozen=True)
class AsymptoticsReport:
    re_ratio: tuple[float, ...]     # Re z_n / t_n
    im_ratio: tuple[float, ...]     # Im z_n / t_n
    w_ratio: tuple[float, ...]      # ||w_n||^2 / t_n
    t_ratio: tuple[float, ...]      # t_n / t_{n+1}
    limits_ok: dict = field(default_factory=dict)
    special: bool = False           # ||w_n||^2 / Re z_n -> 0


def orbit_asymptotics(orbit: BackwardOrbit, recenter: SiegelAutomorphism) -> AsymptoticsReport:
    """Ratio sequences of a backward orbit recentered at its limit.

    For a special backward orbit at a repelling point with multiplier alpha
    the limits are (1, 0, 0, alpha); each is met to 1e-6.
    """
    tol = 1e-6
    if len(orbit.points) < 5:
        raise OrbitTooShort("need at least 5 points for asymptotics")
    pts = apply_automorphism(recenter, SiegelRows.of(orbit.points))
    t, w = pts.t, np.broadcast_to(sq_norm(pts.w), len(pts.t))  # ||w||^2 of each point, 0.0 in dimension 1
    re_r, im_r, w_r, t_r = (tuple(c.tolist()) for c in (pts.z.real / t, pts.z.imag / t, w / t, t[:-1] / t[1:]))
    alpha = _tail_median(t[:-1].tolist(), t[1:].tolist())
    limits_ok = {
        "re": abs(re_r[-1] - 1.0) < tol,
        "im": abs(im_r[-1]) < tol,
        "w": abs(w_r[-1]) < tol,
        "t": abs(t_r[-1] - alpha) < tol * max(1.0, alpha),
    }
    special = bool(w[-1] / pts.z.real[-1] < tol)
    return AsymptoticsReport(re_r, im_r, w_r, t_r, limits_ok, special)


@dataclass(frozen=True)
class EllipticGrowthReport:
    c: float
    flagged: bool  # estimate >= 1: no contraction detected
    radii: tuple[float, ...]
    m_values: tuple[float, ...]


def elliptic_growth_constant(f: BallProduct, r0: float, n_grid: int = 32,
                             n_angles: int = 64) -> EllipticGrowthReport:
    """Contraction constant c(r0) = sup over r in [r0, 1) of (1-r)/(1-M(r))
    with M(r) = max ||f|| on the sphere of radius r (grid lower bound)."""
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 must lie in (0, 1)")
    if n_grid < 1 or n_angles < 1:
        raise ValueError("n_grid and n_angles must be at least 1")
    dim = f.dim
    radii = np.linspace(r0, 1.0 - 1.0 / (2 * n_grid), n_grid)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    # direction grid: per-coordinate magnitudes from a simplex-like sweep
    rng = np.random.default_rng(12345)
    mags = np.abs(rng.normal(size=(n_angles, dim)))
    mags /= np.linalg.norm(mags, axis=1, keepdims=True)
    # coordinate axes are extremal for product maps; sample them exactly
    mags = np.vstack([np.eye(dim), mags])
    # grid vectors r * mags[d] * exp(i (th + thetas[j])) for coordinate j, indexed
    # [r, d, th]; the phase offsets repeat when there are fewer angles than coordinates
    offsets = thetas[np.arange(dim) % n_angles]
    phases = np.exp(1j * (thetas[:: max(1, n_angles // 8), None] + offsets))
    grid = (radii[:, None, None] * mags)[:, :, None, :] * phases
    v = ComplexRows.columns(grid.reshape(-1, dim))
    norms = ball_norm_rows(tuple(g.apply(z) for g, z in zip(f.components, v)))
    # the checked norms are finite, so numpy's max is the per-point running max
    m_vals = norms.reshape(n_grid, -1).max(axis=1).tolist()
    c = max([0.0] + [(1.0 - r) / (1.0 - best) for r, best in zip(radii.tolist(), m_vals)])
    return EllipticGrowthReport(c, c >= 1.0, tuple(radii.tolist()), tuple(m_vals))


@dataclass(frozen=True)
class AngularReport:
    radial_ratios: tuple[float, ...]      # (1 - pi_1(f(Z))) / (1 - pi_1(Z))
    tangential_ratios: tuple[float, ...]  # ||tangential f(Z)|| / |1 - pi_1(Z)|^(1/2)
    rejected: tuple[int, ...]             # sample indices outside the Koranyi region
    bounded: bool
    radial_limit: float
    tangential_limit: float


def angular_ratio_diagnostics(f: MapDescriptor, q: BoundaryPoint,
                              curve_samples: list[SiegelPoint],
                              amplitude: float = 10.0) -> AngularReport:
    """Angular-derivative diagnostics along a curve approaching the fixed
    point q, evaluated in the chart where q sits at the point at infinity."""
    from .geometry import Inversion, invert_automorphism, recentering_translation

    if q.at_infinity:
        chart = SiegelAutomorphism()
    else:
        chart = SiegelAutomorphism(recentering_translation(q).chain + (Inversion(),))
    chart_inv = invert_automorphism(chart)
    radial: list[float] = []
    tangential: list[float] = []
    rejected: list[int] = []
    for i, p in enumerate(curve_samples):
        pc = apply_automorphism(chart, p)
        if koranyi_ratio(pc, INFINITY) >= amplitude:
            rejected.append(i)
            continue
        img = apply_automorphism(chart, evaluate(f, apply_automorphism(chart_inv, pc)))
        one_minus_in = 2.0 / (pc.z + 1.0)
        one_minus_out = 2.0 / (img.z + 1.0)
        radial.append(abs(one_minus_out) / abs(one_minus_in))
        wb = _cdivs([2.0 * c for c in img.w], img.z + 1.0)
        tangential.append(math.sqrt(sq_norm(wb)) / math.sqrt(abs(one_minus_in)))
    bounded = bool(radial) and max(radial) < 1e6 and max(tangential) < 1e6
    return AngularReport(tuple(radial), tuple(tangential), tuple(rejected), bounded,
                         radial[-1] if radial else math.nan,
                         tangential[-1] if tangential else math.nan)
