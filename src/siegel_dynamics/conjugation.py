"""Conjugation of a self-map to its linear model at a boundary repelling
fixed point.

Given a backward orbit Z_n converging to the repelling point 0 with
multiplier alpha, the automorphisms tau_n (dilation by the defect t_n
followed by the translation restoring Z_n) send (1, 0) to Z_n, and the
approximants psi_n = f^n o tau_n o p_L converge to an intertwining map psi
with psi o eta = f o psi, where eta(z, w) = (alpha z, sqrt(alpha) Omega w)
is the linear model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed, InvalidDescriptor, NoBackwardStep, OrbitTooShort
from .geometry import (
    BoundaryPoint,
    ComplexRows,
    CVector,
    Dilation,
    Inversion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    Translation,
    apply_automorphism,
    compose_automorphisms,
    defect,
    dist_siegel,
    invert_automorphism,
    recentering_translation,
)
from .maps import Conjugated, MapDescriptor, QuadraticSiegel, evaluate, quadratic_iterate_closed
from .dynamics import BackwardOrbit, backward_orbit


# ---------------------------------------------------------------------------
# tau_n and the linear model
# ---------------------------------------------------------------------------

def build_tau(orbit: BackwardOrbit, n: int, variant: str = "basic",
              omega: tuple[complex, ...] | None = None) -> SiegelAutomorphism:
    """tau_n sending (1, 0) to Z_n: inverse dilation by t_n, then the inverse
    of the translation that maps Z_n to (t_n, 0).  The expandable variant
    appends the rotation Omega^(-n) on the tangential block."""
    if not 0 <= n < len(orbit.points):
        raise IndexError(f"orbit index {n} out of range")
    p = orbit.points[n]
    t = orbit.defects[n]
    chain: list = [Dilation(1.0 / t), Translation(-p.z.imag, tuple(-c for c in p.w))]
    if variant == "expandable":
        if omega is None:
            raise InvalidDescriptor("expandable variant needs Omega")
        chain.append(Rotation(tuple(c.conjugate() ** n for c in omega)))
    elif variant != "basic":
        raise InvalidDescriptor(f"unknown variant {variant!r}")
    return SiegelAutomorphism(tuple(chain))


def eta_model(alpha: float, dim: int, k: int = 1,
              omega: tuple[complex, ...] | None = None) -> SiegelAutomorphism:
    """k-th power of the linear model eta(z, w) = (alpha z, sqrt(alpha) Omega w)."""
    if omega is None:
        omega = (1.0 + 0.0j,) * (dim - 1)
    lam = tuple(alpha ** (k / 2.0) * (c ** k) for c in omega)
    if k == 0:
        return SiegelAutomorphism()
    if k < 0:
        return invert_automorphism(eta_model(alpha, dim, -k, omega))
    return SiegelAutomorphism((LinearDiag(alpha ** k, lam),))


def project_first(p: SiegelPoint, L: int) -> SiegelPoint:
    """p_L: keep z and the first L tangential coordinates, zero the rest."""
    w = tuple(p.w[:L]) + (0.0 + 0.0j,) * (len(p.w) - L)
    return SiegelPoint(p.z, w)


@dataclass(frozen=True)
class TauLimitReport:
    eta_errors: tuple[float, ...]       # sup_grid d(tau_{n+k}^{-1} tau_n (Z), eta_k(Z))
    identity_errors: tuple[float, ...]  # sup_grid d(tau_{n+1}^{-1} eta^{-1} tau_n (Z), Z)


def tau_limit_diagnostics(orbit: BackwardOrbit, alpha: float, k: int,
                          grid: list[SiegelPoint], variant: str = "basic",
                          omega: tuple[complex, ...] | None = None) -> TauLimitReport:
    """Convergence of the automorphism combinations that make psi well defined:
    tau_{n+k}^{-1} o tau_n -> eta_k and tau_{n+1}^{-1} o eta^{-1} o tau_n -> id."""
    dim = orbit.points[0].dim
    eta_k = eta_model(alpha, dim, k, omega)
    eta_inv = eta_model(alpha, dim, -1, omega)
    eta_errs: list[float] = []
    id_errs: list[float] = []
    for n in range(len(orbit.points) - max(k, 1)):
        tau_n = build_tau(orbit, n, variant, omega)
        comb1 = compose_automorphisms(
            invert_automorphism(build_tau(orbit, n + k, variant, omega)), tau_n)
        comb2 = compose_automorphisms(
            invert_automorphism(build_tau(orbit, n + 1, variant, omega)),
            compose_automorphisms(eta_inv, tau_n))
        e1 = max(dist_siegel(apply_automorphism(comb1, z), apply_automorphism(eta_k, z))
                 for z in grid)
        e2 = max(dist_siegel(apply_automorphism(comb2, z), z) for z in grid)
        eta_errs.append(e1)
        id_errs.append(e2)
    return TauLimitReport(tuple(eta_errs), tuple(id_errs))


# ---------------------------------------------------------------------------
# psi approximants
# ---------------------------------------------------------------------------

def default_grid(dim: int = 2) -> list[SiegelPoint]:
    """Log-spaced axis grid Re z in [0.1, 10] with small tangential offsets."""
    zs = np.logspace(-1, 1, 5)
    offs: list[tuple[complex, ...]] = [(0.0,) * (dim - 1)]
    if dim > 1:
        for val in (0.05, -0.05, 0.05j, -0.05j):
            off = [0.0 + 0.0j] * (dim - 1)
            off[0] = complex(val)
            offs.append(tuple(off))
    return [SiegelPoint(complex(z), w) for z in zs for w in offs]


def _psi_rows(f: MapDescriptor, orbit: BackwardOrbit, points: list[SiegelPoint],
              n_values: tuple[int, ...], L: int, variant: str,
              omega: tuple[complex, ...] | None) -> SiegelRows:
    """psi_n = f^n o tau_n o p_L at every point for each n of n_values, as rows:
    the points in order for each n in turn.  psi_n is computed once per depth
    and distinct p_L(Z), matched on exact bits (== would merge 0.0 and -0.0,
    and a zero's sign can reach psi_n).  Step s applies f once to the rows of
    every depth n >= s, a prefix of the rows sorted by descending depth."""
    coords = np.array([z.coords for z in points], dtype=complex).reshape(len(points), orbit.points[0].dim)
    coords[:, 1 + L:] = 0.0  # p_L
    keys = [row.tobytes() for row in coords]
    first: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)  # each distinct p_L(Z), at the first point that has it
    slot = dict(zip(first, range(len(first))))
    z, *w = ComplexRows.columns(coords[list(first.values())])
    distinct, u = SiegelRows(z, w), len(first)
    order = sorted(range(len(n_values)), key=lambda j: -n_values[j])
    depths = [n_values[j] for j in order]
    closed = isinstance(f, QuadraticSiegel)  # f^n in closed form instead of n steps

    def start(n: int) -> SiegelRows:
        rows = apply_automorphism(build_tau(orbit, n, variant, omega), distinct)
        return quadratic_iterate_closed(f, n, rows) if closed else rows

    rows = SiegelRows.concat([start(n) for n in depths])
    for step in range(1, 1 + (0 if closed else depths[0])):
        e = u * sum(n >= step for n in depths)
        rows = SiegelRows.concat([evaluate(f, rows.take(slice(0, e))), rows.take(slice(e, None))])
    block = {j: b for b, j in enumerate(order)}  # where the rows of n_values[j] went
    return rows.take([u * block[j] + slot[key] for j in range(len(n_values)) for key in keys])


def _residual_sweep(f: MapDescriptor, orbit: BackwardOrbit, n_values: tuple[int, ...],
                    grid: list[SiegelPoint], alpha: float, L: int, variant: str,
                    omega: tuple[complex, ...] | None) -> tuple[list[float], SiegelRows]:
    """The residual at each n of n_values from one sweep, and the rows of psi
    at the last n: at eta(Z), then at Z, in grid order."""
    eta = eta_model(alpha, orbit.points[0].dim, 1, omega if variant == "expandable" else None)
    g, m = len(grid), len(n_values)
    psi = _psi_rows(f, orbit, [apply_automorphism(eta, z) for z in grid] + list(grid), n_values,
                    L, variant, omega)
    at_eta = (2 * g * np.arange(m)[:, None] + np.arange(g)).ravel()
    d = dist_siegel(psi.take(at_eta), evaluate(f, psi.take(at_eta + g))).tolist()
    # each depth's max over its pairs in grid order, as the scalar loop took it
    return [max(d[i * g:(i + 1) * g]) for i in range(m)], psi.take(slice(2 * g * (m - 1), None))


def psi_approx(f: MapDescriptor, orbit: BackwardOrbit, n: int, grid: list[SiegelPoint],
               L: int = 0, variant: str = "basic",
               omega: tuple[complex, ...] | None = None) -> list[tuple[SiegelPoint, SiegelPoint]]:
    """Samples of psi_n = f^n o tau_n o p_L on the grid."""
    psi = _psi_rows(f, orbit, grid, (n,), L, variant, omega)
    return [(z, psi.point(i)) for i, z in enumerate(grid)]


def conjugation_residual(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                         grid: list[SiegelPoint], alpha: float, L: int = 0,
                         variant: str = "basic",
                         omega: tuple[complex, ...] | None = None) -> float:
    """max over the grid of d(psi_n(eta(Z)), f(psi_n(Z)))."""
    return _residual_sweep(f, orbit, (n,), grid, alpha, L, variant, omega)[0][0]


@dataclass(frozen=True)
class InterpolationReport:
    errors: tuple[float, ...]  # d(psi_n(a_k), Z_k) for k = 0 .. k_max


def psi_interpolation_check(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                            alpha: float, k_max: int | None = None, L: int = 0,
                            variant: str = "basic",
                            omega: tuple[complex, ...] | None = None) -> InterpolationReport:
    """psi_n interpolates the orbit: psi_n(a_k) ~ Z_k at a_k = (alpha^-k, 0)."""
    k_max = min(n // 2 if k_max is None else k_max, len(orbit.points) - 1)
    a = [SiegelPoint(alpha ** (-k), (0.0,) * (orbit.points[0].dim - 1)) for k in range(k_max + 1)]
    psi = _psi_rows(f, orbit, a, (n,), L, variant, omega)
    return InterpolationReport(tuple(dist_siegel(psi.point(k), orbit.points[k]) for k in range(len(a))))


def gn_diagnostic(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                  grid: list[SiegelPoint], alpha: float, L: int = 0,
                  variant: str = "basic",
                  omega: tuple[complex, ...] | None = None) -> float:
    """Deviation of g_n = tau_n^{-1} o psi_n o eta_n^{-1} from the projection
    p_L, measured on the grid points whose eta^{-n} image stays usable."""
    eta_inv_n = eta_model(alpha, orbit.points[0].dim, -n, omega if variant == "expandable" else None)
    tau_inv = invert_automorphism(build_tau(orbit, n, variant, omega))
    psi = _psi_rows(f, orbit, [apply_automorphism(eta_inv_n, z) for z in grid], (n,), L,
                    variant, omega)
    worst = 0.0
    for i, z in enumerate(grid):
        worst = max(worst, dist_siegel(apply_automorphism(tau_inv, psi.point(i)), project_first(z, L)))
    return worst


@dataclass(frozen=True)
class ConjugationRun:
    f: MapDescriptor
    orbit: BackwardOrbit
    alpha: float
    variant: str
    L: int
    omega: tuple[complex, ...] | None
    grid: tuple[SiegelPoint, ...]
    n_values: tuple[int, ...]
    residuals: tuple[float, ...]
    interpolation: InterpolationReport
    psi_samples: tuple[tuple[SiegelPoint, SiegelPoint], ...]


def run_conjugation(f: MapDescriptor, orbit: BackwardOrbit, alpha: float,
                    variant: str = "basic", L: int = 0,
                    omega: tuple[complex, ...] | None = None,
                    grid: list[SiegelPoint] | None = None,
                    n_values: tuple[int, ...] | None = None) -> ConjugationRun:
    """Compute residuals over a range of n and the interpolation check at the
    deepest n."""
    if grid is None:
        grid = default_grid(orbit.points[0].dim)
    if n_values is None:
        n_values = tuple(range(1, len(orbit.points) - 1))
    if not n_values:
        raise ValueError("run_conjugation needs at least one n in n_values")
    residuals, psi = _residual_sweep(f, orbit, tuple(n_values), grid, alpha, L, variant, omega)
    interp = psi_interpolation_check(f, orbit, n_values[-1], alpha, None, L, variant, omega)
    samples = tuple((z, psi.point(len(grid) + i)) for i, z in enumerate(grid))
    return ConjugationRun(f, orbit, alpha, variant, L, omega, tuple(grid),
                          tuple(n_values), tuple(residuals), interp, samples)


# ---------------------------------------------------------------------------
# recentering orbits whose limit is the point at infinity
# ---------------------------------------------------------------------------

def recenter_orbit_at_zero(f: MapDescriptor, orbit: BackwardOrbit) -> tuple[MapDescriptor, BackwardOrbit, SiegelAutomorphism]:
    """Move a backward orbit's repelling limit to the boundary point 0.

    Returns the conjugated map, the transformed orbit, and the chart used, so
    conjugation runs can be performed in standard position.
    """
    if orbit.at_infinity:
        chart = SiegelAutomorphism((Inversion(),))
    elif orbit.limit is not None:
        chart = recentering_translation(orbit.limit)
    else:
        raise OrbitTooShort("orbit has no limit estimate")
    pts = tuple(apply_automorphism(chart, p) for p in orbit.points)
    new_orbit = BackwardOrbit(
        points=pts,
        steps=orbit.steps,
        defects=tuple(defect(p) for p in pts),
        step_bound=orbit.step_bound,
        limit=BoundaryPoint(v=CVector((0.0,) * orbit.points[0].dim), model="siegel"),
        multiplier_estimate=orbit.multiplier_estimate,
        koranyi_certificate=orbit.koranyi_certificate,
        at_infinity=False,
    )
    g = Conjugated(base=f, by=chart) if len(chart.chain) else f
    return g, new_orbit, chart


# ---------------------------------------------------------------------------
# special backward sequences at an isolated repelling point
# ---------------------------------------------------------------------------

def special_backward_construct(f: MapDescriptor, q: BoundaryPoint, alpha: float,
                               exclusion_radius: float, n: int) -> BackwardOrbit:
    """Backward orbit tending to the repelling point q with steps approaching
    a = (alpha - 1)/(alpha + 1).

    The seed is taken on the axis through q, deep enough that the horosphere
    through it fits inside the exclusion ball of radius exclusion_radius
    around q (in the ball model).  If the step bound fails, the seed is
    pushed deeper a few times before giving up.
    """
    if alpha <= 1.0:
        raise ConstructionFailed(f"repelling point needs alpha > 1, got {alpha}")
    a = (alpha - 1.0) / (alpha + 1.0) + 1e-9
    at_inf = q.model == "siegel" and q.at_infinity
    ball_vertex = q.model == "ball" and not at_inf
    if ball_vertex:
        # ball boundary point (1, 0, ...) corresponds to the Siegel infinity
        coords = q.v.coords
        if abs(coords[0] - 1.0) < 1e-9 and all(abs(c) < 1e-9 for c in coords[1:]):
            at_inf = True
        else:
            raise ConstructionFailed("ball vertices other than (1, 0) are not supported; "
                                     "recenter with an automorphism first")
    dim = 2 if at_inf else q.dim
    # smallest depth whose horosphere fits inside the exclusion ball:
    # a hyperbolic/horospheric cap of level R has ball diameter about
    # sqrt((R/(1+R))^2 + R/(1+R)) around the vertex
    n0 = 1
    while True:
        r_level = alpha ** (-n0)
        u = r_level / (1.0 + r_level)
        if math.sqrt(u * u + u) <= exclusion_radius or n0 > 200:
            break
        n0 += 1
    chart_inv = None
    if not at_inf and q.model == "siegel":
        chart_inv = invert_automorphism(recentering_translation(q))
        dim = q.dim
    last_err: Exception | None = None
    for attempt in range(4):
        depth = n0 + 5 * attempt
        if at_inf:
            seed = SiegelPoint(alpha ** depth, (0.0,) * (dim - 1))
        else:
            seed = SiegelPoint(alpha ** (-depth), (0.0,) * (dim - 1))
            if chart_inv is not None:
                seed = apply_automorphism(chart_inv, seed)
        try:
            orbit = backward_orbit(f, seed, a, n)
        except (NoBackwardStep, OrbitTooShort) as err:
            last_err = err
            continue
        if len(orbit.points) >= min(n, 5):
            return orbit
    raise ConstructionFailed(f"could not build a backward sequence with step bound {a}: {last_err}")
