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

import numpy as np

from .errors import InvalidPoint, NoBackwardStep, OrbitTooShort, SolverFailure
from .geometry import (
    INFINITY,
    BallPoint,
    BoundaryPoint,
    ComplexRows,
    CVector,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    _cdiv,
    apply_automorphism,
    ball_norm_rows,
    boundary_ball_coords,
    boundary_gap,
    boundary_projection,
    cayley_to_siegel,
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
            dw = INFINITY if near_inf else BoundaryPoint(v=boundary_projection(nxt), model="siegel")
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

def multiplier_at_boundary(f: MapDescriptor, q: BoundaryPoint,
                           decay: float = 0.5, n_samples: int = 40) -> float:
    """Dilatation coefficient of f at a boundary fixed point q.

    Samples the ratio (1 - ||f(Z)||) / (1 - ||Z||) along the radial ray
    Z_k = (1 - decay^k) q in the ball model and extrapolates the tail
    (Richardson step matched to the geometric grid).  Returns +inf when the
    ratios diverge (no finite dilatation at q).
    """
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    dim = f.dim
    qb = boundary_ball_coords(q, dim)
    nq = math.sqrt(sq_norm(qb))
    ratios: list[float] = []
    for k in range(1, n_samples + 1):
        s = decay ** k
        p = cayley_to_siegel(BallPoint(CVector(tuple((1.0 - s) * c for c in qb))))
        if defect(p) < 1e-300:
            break
        fp = evaluate(f, p)
        gap_in = s * nq + (1.0 - nq)
        ratios.append(boundary_gap(fp) / gap_in)
        if not math.isfinite(ratios[-1]) or ratios[-1] > 1e9:
            return math.inf
    if len(ratios) < 2:
        raise OrbitTooShort("not enough radial samples for a multiplier estimate")
    # pick the deepest pair whose sample points are above the noise floor
    idx = len(ratios) - 1
    while idx >= 1 and decay ** (idx + 1) < 1e-8:
        idx -= 1
    r1, r0 = ratios[idx], ratios[idx - 1]
    return (r1 - decay * r0) / (1.0 - decay)


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


def _newton_preimage(f: MapDescriptor, target: SiegelPoint, seed: SiegelPoint) -> SiegelPoint:
    """Damped Newton on the 2N real coordinates solving f(X) = target."""
    n = target.dim

    def residual_vec(coords: np.ndarray) -> np.ndarray:
        p = SiegelPoint(complex(coords[0]), tuple(coords[1:]))
        img = np.array(evaluate(f, p).coords)
        tgt = np.array(target.coords)
        d = img - tgt
        return np.concatenate([d.real, d.imag])

    x = np.array(seed.coords, dtype=complex)
    res = residual_vec(x)
    scale = 1.0 + abs(target.z)
    for _ in range(DEFAULT_POLICY.solver_max_iter):
        if np.max(np.abs(res)) <= DEFAULT_POLICY.solver_tol * scale:
            return SiegelPoint(complex(x[0]), tuple(x[1:]))
        # central-difference Jacobian in the 2N real variables
        jac = np.zeros((2 * n, 2 * n))
        for j in range(n):
            h = DEFAULT_POLICY.fd_step * max(1.0, abs(x[j]))
            for part, delta in ((0, h), (1, 1j * h)):
                xp, xm = x.copy(), x.copy()
                xp[j] += delta
                xm[j] -= delta
                try:
                    col = (residual_vec(xp) - residual_vec(xm)) / (2.0 * h)
                except InvalidPoint:
                    raise SolverFailure("finite-difference stencil left the domain",
                                        float(np.max(np.abs(res))))
                jac[:, 2 * j + part] = col
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise SolverFailure("singular Jacobian", float(np.max(np.abs(res))))
        step_c = step[0::2] + 1j * step[1::2]
        lam = 1.0
        for _ in range(40):
            x_try = x + lam * step_c
            try:
                res_try = residual_vec(x_try)
            except InvalidPoint:
                lam *= 0.5
                continue
            if np.max(np.abs(res_try)) < np.max(np.abs(res)):
                x, res = x_try, res_try
                break
            lam *= 0.5
        else:
            raise SolverFailure("line search stalled", float(np.max(np.abs(res))))
    raise SolverFailure("Newton iteration budget exhausted", float(np.max(np.abs(res))))


def backward_step(f: MapDescriptor, zn: SiegelPoint, a: float,
                  steps: list[float] | None = None) -> SiegelPoint:
    """One backward step: Z_{n+1} with f(Z_{n+1}) = Z_n and d(Z_n, Z_{n+1}) <= a.

    Closed-form preimages are used when the family provides them; otherwise a
    damped Newton solve seeded at Z_n.  Among admissible preimages the one
    with the smallest step wins, ties broken by smallest defect.  When
    `steps` is given, the chosen step d(Z_n, Z_{n+1}) is appended to it.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("step bound a must lie in (0, 1)")
    cands = preimage_candidates(f, zn)
    admissible: list[tuple[float, SiegelPoint]] = []
    if cands is None:
        p = _newton_preimage(f, zn, zn)
        admissible.append((dist_siegel(zn, p), p))
    else:
        for c in cands:
            try:
                p = SiegelPoint(c[0], c[1:])
            except InvalidPoint:
                continue
            admissible.append((dist_siegel(zn, p), p))
    admissible = [c for c in admissible if c[0] <= a * (1.0 + 1e-12)]
    if not admissible:
        raise NoBackwardStep(f"no in-domain preimage within step bound {a}")
    d, p = admissible[0] if len(admissible) == 1 else min(admissible, key=lambda c: (c[0], c[1].t))
    if steps is not None:
        steps.append(d)
    return p


def backward_orbit(f: MapDescriptor, z0: SiegelPoint, a: float, n: int) -> BackwardOrbit:
    """Backward-iteration sequence of length n (truncated if a step fails).

    The limit is estimated from boundary projections of the tail; orbits whose
    defects grow converge to the point at infinity.  The multiplier estimate
    is the median tail defect ratio; the Koranyi certificate is the largest
    approach-region amplitude attained along the orbit.
    """
    points = [z0]
    steps: list[float] = []
    for _ in range(n):
        try:
            points.append(backward_step(f, points[-1], a, steps))
        except NoBackwardStep:
            break
    defects = tuple(p.t for p in points)
    if len(points) < 3:
        raise OrbitTooShort("backward orbit too short to analyze")
    to_infinity = defects[-1] > defects[0]
    if to_infinity:
        limit: BoundaryPoint | None = INFINITY
        ratios = [defects[k + 1] / defects[k] for k in range(len(defects) - 1)]
    else:
        pr_tail = [boundary_projection(p).coords for p in points[-5:]]
        limit = BoundaryPoint(v=CVector(np.mean(pr_tail, axis=0).tolist()), model="siegel")
        ratios = [defects[k] / defects[k + 1] for k in range(len(defects) - 1)]
    tail = ratios[max(0, 3 * len(ratios) // 4):]
    alpha = float(statistics.median(tail))
    # Python's max over the points in order, as a per-point loop takes it
    cert = max(koranyi_ratio(SiegelRows.of(points), limit).tolist())
    return BackwardOrbit(tuple(points), tuple(steps), defects, a, limit, alpha, cert, to_infinity)


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
    t = orbit.defects
    ok = True
    margin = math.inf
    for i in range(len(t)):
        for k in range(1, len(t) - i):
            m = c ** k * t[i] - t[i + k]
            margin = min(margin, m)
            if m < -1e-12 * t[i]:
                ok = False
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
    repelling one.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not alpha > 0.0:  # alpha = 0 would make every ratio inf
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(seed)
    k = f.dim - 1
    # whole columns, in this order: log10 t ~ U(-3, 3) as -3 + 6 random() (numpy's
    # uniform; t = 10.0 ** x in CPython per element), Re w and Im w ~ N(0, 1)^k, a
    # scale for w ~ U(0, 1), Im z / 2 ~ N(0, 1)
    t = [10.0 ** e for e in (-3.0 + 6.0 * rng.random(n_samples)).tolist()]
    re, im = rng.standard_normal((n_samples, k)), rng.standard_normal((n_samples, k))
    scale = rng.random(n_samples)
    p = _siegel_samples(t, re, im, scale[:, None], 2.0 * rng.standard_normal(n_samples))
    q_in = julia_quotient(p, x)
    ratio = julia_quotient(evaluate(f, p), x) / (alpha * q_in)
    # Python's max over the rows in order, as the per-point loop took it (NaN skipped)
    return JuliaReport(n_samples, int(np.count_nonzero(ratio > 1.0 + 1e-10)),
                       max([0.0, *ratio.tolist()]), seed)


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


def orbit_asymptotics(orbit: BackwardOrbit, recenter: SiegelAutomorphism,
                      tol: float = 1e-6) -> AsymptoticsReport:
    """Ratio sequences of a backward orbit recentered at its limit.

    For a special backward orbit at a repelling point with multiplier alpha
    the limits are (1, 0, 0, alpha).
    """
    if len(orbit.points) < 5:
        raise OrbitTooShort("need at least 5 points for asymptotics")
    pts = [apply_automorphism(recenter, p) for p in orbit.points]
    t = [defect(p) for p in pts]
    re_r = tuple(p.z.real / tk for p, tk in zip(pts, t))
    im_r = tuple(p.z.imag / tk for p, tk in zip(pts, t))
    w_r = tuple(sq_norm(p.w) / tk for p, tk in zip(pts, t))
    t_r = tuple(t[k] / t[k + 1] for k in range(len(t) - 1))
    alpha = float(statistics.median(t_r[max(0, 3 * len(t_r) // 4):]))
    limits_ok = {
        "re": abs(re_r[-1] - 1.0) < tol,
        "im": abs(im_r[-1]) < tol,
        "w": abs(w_r[-1]) < tol,
        "t": abs(t_r[-1] - alpha) < tol * max(1.0, alpha),
    }
    special = sq_norm(pts[-1].w) / pts[-1].z.real < tol
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

    if q.model == "siegel" and q.at_infinity:
        chart = SiegelAutomorphism()
    elif q.model == "siegel":
        chart = SiegelAutomorphism(recentering_translation(q).chain + (Inversion(),))
    else:
        raise ValueError("angular diagnostics need a Siegel boundary point")
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
        wb = tuple(_cdiv(2.0 * c, img.z + 1.0) for c in img.w)
        tangential.append(math.sqrt(sq_norm(wb)) / math.sqrt(abs(one_minus_in)))
    bounded = bool(radial) and max(radial) < 1e6 and max(tangential) < 1e6
    return AngularReport(tuple(radial), tuple(tangential), tuple(rejected), bounded,
                         radial[-1] if radial else math.nan,
                         tangential[-1] if tangential else math.nan)
