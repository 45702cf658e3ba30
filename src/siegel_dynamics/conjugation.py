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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed, InvalidDescriptor, NoBackwardStep, OrbitTooShort
from .geometry import (
    BoundaryPoint,
    CVector,
    Dilation,
    Inversion,
    LinearDiag,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    Translation,
    apply_automorphism,
    compose_automorphisms,
    defect,
    dist_siegel,
    invert_automorphism,
    recentering_translation,
)
from .maps import Conjugated, MapDescriptor, QuadraticSiegel, evaluate, iterate, quadratic_iterate_closed
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


def _psi_n(f: MapDescriptor, tau: SiegelAutomorphism, n: int, L: int):
    """psi_n = f^n o tau o p_L as Z -> (key, psi_n(Z)), iterating f once per
    distinct p_L(Z) for the function's life.  The key holds the exact bits of
    p_L(Z): == would merge 0.0 and -0.0, and a zero's sign can reach psi_n."""
    values: dict[bytes, SiegelPoint] = {}

    def psi(z: SiegelPoint) -> tuple[bytes, SiegelPoint]:
        p = project_first(z, L)
        key = struct.pack(f"{2 * p.dim}d", *(x for c in p.coords for x in (c.real, c.imag)))
        if key not in values:
            p = apply_automorphism(tau, p)
            values[key] = (quadratic_iterate_closed(f, n, p) if isinstance(f, QuadraticSiegel)
                           else iterate(f, n, p))
        return key, values[key]

    return psi


def psi_approx(f: MapDescriptor, orbit: BackwardOrbit, n: int, grid: list[SiegelPoint],
               L: int = 0, variant: str = "basic",
               omega: tuple[complex, ...] | None = None) -> list[tuple[SiegelPoint, SiegelPoint]]:
    """Samples of psi_n = f^n o tau_n o p_L on the grid."""
    psi = _psi_n(f, build_tau(orbit, n, variant, omega), n, L)
    return [(z, psi(z)[1]) for z in grid]


def conjugation_residual(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                         grid: list[SiegelPoint], alpha: float, L: int = 0,
                         variant: str = "basic",
                         omega: tuple[complex, ...] | None = None) -> float:
    """max over the grid of d(psi_n(eta(Z)), f(psi_n(Z)))."""
    dim = orbit.points[0].dim
    eta = eta_model(alpha, dim, 1, omega if variant == "expandable" else None)
    psi = _psi_n(f, build_tau(orbit, n, variant, omega), n, L)
    terms: dict[tuple[bytes, bytes], float] = {}  # in grid order, so max() ties as before
    for z in grid:
        key_eta, psi_eta = psi(apply_automorphism(eta, z))
        key, psi_z = psi(z)
        if (key_eta, key) not in terms:
            terms[key_eta, key] = dist_siegel(psi_eta, evaluate(f, psi_z))
    return max(terms.values())


@dataclass(frozen=True)
class InterpolationReport:
    errors: tuple[float, ...]  # d(psi_n(a_k), Z_k) for k = 0 .. k_max


def psi_interpolation_check(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                            alpha: float, k_max: int | None = None, L: int = 0,
                            variant: str = "basic",
                            omega: tuple[complex, ...] | None = None) -> InterpolationReport:
    """psi_n interpolates the orbit: psi_n(a_k) ~ Z_k at a_k = (alpha^-k, 0)."""
    if k_max is None:
        k_max = n // 2
    k_max = min(k_max, len(orbit.points) - 1)
    psi = _psi_n(f, build_tau(orbit, n, variant, omega), n, L)
    dim = orbit.points[0].dim
    errs = []
    for k in range(k_max + 1):
        a_k = SiegelPoint(alpha ** (-k), (0.0,) * (dim - 1))
        errs.append(dist_siegel(psi(a_k)[1], orbit.points[k]))
    return InterpolationReport(tuple(errs))


def gn_diagnostic(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                  grid: list[SiegelPoint], alpha: float, L: int = 0,
                  variant: str = "basic",
                  omega: tuple[complex, ...] | None = None) -> float:
    """Deviation of g_n = tau_n^{-1} o psi_n o eta_n^{-1} from the projection
    p_L, measured on the grid points whose eta^{-n} image stays usable."""
    dim = orbit.points[0].dim
    eta_inv_n = eta_model(alpha, dim, -n, omega if variant == "expandable" else None)
    tau = build_tau(orbit, n, variant, omega)
    tau_inv = invert_automorphism(tau)
    psi = _psi_n(f, tau, n, L)
    worst = 0.0
    for z in grid:
        g = apply_automorphism(tau_inv, psi(apply_automorphism(eta_inv_n, z))[1])
        worst = max(worst, dist_siegel(g, project_first(z, L)))
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
    residuals = tuple(conjugation_residual(f, orbit, n, grid, alpha, L, variant, omega)
                      for n in n_values)
    n_last = n_values[-1]
    interp = psi_interpolation_check(f, orbit, n_last, alpha, None, L, variant, omega)
    samples = tuple(psi_approx(f, orbit, n_last, grid, L, variant, omega))
    return ConjugationRun(f, orbit, alpha, variant, L, omega, tuple(grid),
                          tuple(n_values), residuals, interp, samples)


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
