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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstructionFailed, InvalidDescriptor, NoBackwardStep, OrbitTooShort, SiegelDynamicsError
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
    _apply_chain,
    apply_automorphism,
    dist_siegel,
    invert_automorphism,
    recentering_translation,
    stack_parameters,
)
from .maps import Conjugated, MapDescriptor, QuadraticSiegel, evaluate, expandable_decompose, quadratic_power
from .dynamics import BackwardOrbit, backward_orbit


# ---------------------------------------------------------------------------
# tau_n and the linear model
# ---------------------------------------------------------------------------

def build_tau(orbit: BackwardOrbit, n: int, omega: tuple[complex, ...] | None = None) -> SiegelAutomorphism:
    """tau_n sending (1, 0) to Z_n: inverse dilation by t_n, then the inverse
    of the translation that maps Z_n to (t_n, 0).  A given Omega (the
    expandable case) appends the rotation Omega^(-n) on the tangential block."""
    if not 0 <= n < len(orbit.points):
        raise IndexError(f"orbit index {n} out of range")
    p = orbit.points[n]
    t = orbit.defects[n]
    chain: list = [Dilation(1.0 / t), Translation(-p.z.imag, tuple(-c for c in p.w))]
    if omega is not None:
        chain.append(Rotation(tuple(c.conjugate() ** n for c in omega)))
    return SiegelAutomorphism(tuple(chain))


def eta_model(alpha: float, dim: int, omega: tuple[complex, ...] | None = None) -> SiegelAutomorphism:
    """The linear model eta(z, w) = (alpha z, sqrt(alpha) Omega w)."""
    if omega is None:
        omega = (1.0 + 0.0j,) * (dim - 1)
    return SiegelAutomorphism((LinearDiag(alpha, tuple(alpha ** 0.5 * c for c in omega)),))


def project(p: SiegelPoint, mask: tuple[bool, ...]) -> SiegelPoint:
    """p_L: keep z and the tangential coordinates the mask marks, zero the rest."""
    return SiegelPoint(p.z, tuple(c if keep else 0.0 + 0.0j for c, keep in zip(p.w, mask)))


# ---------------------------------------------------------------------------
# psi approximants
# ---------------------------------------------------------------------------

def _variant(f: MapDescriptor) -> tuple[tuple[bool, ...], tuple[complex, ...] | None]:
    """p_L's mask and Omega for psi of f: those of f's family (`Conjugated` unwrapped) at 0 when it has
    expandable directions, else the basic variant, which keeps no tangential coordinate, Omega None."""
    while isinstance(f, Conjugated):
        f = f.base
    try:
        exp = expandable_decompose(f)
        if exp.L:
            return exp.mask, exp.omega
    except InvalidDescriptor:
        pass
    return (False,) * (f.dim - 1), None


def default_grid(dim: int = 2) -> list[SiegelPoint]:
    """Log-spaced axis grid Re z in [0.1, 10], and at each Re z the offsets +-0.05 and
    +-0.05i in each tangential coordinate in turn (w_1 first).  The points are built
    once per dim; each call returns a new list of them."""
    return list(_default_grid(dim)[0])


@functools.cache
def _default_grid(dim: int) -> tuple[tuple[SiegelPoint, ...], SiegelRows]:
    """`default_grid`'s points and their rows, built once per dim."""
    zero = (0j,) * (dim - 1)
    offs = [zero] + [zero[:j] + (val,) + zero[j + 1:] for j in range(dim - 1) for val in (0.05, -0.05, 0.05j, -0.05j)]
    pts = tuple(SiegelPoint(complex(z), w) for z in np.logspace(-1, 1, 5) for w in offs)
    return pts, SiegelRows.of(pts)


def _start_rows(f: MapDescriptor, orbit: BackwardOrbit, distinct: SiegelRows, depths: list[int],
                omega: tuple[complex, ...] | None) -> SiegelRows:
    """tau_n of the distinct rows for each n of depths (descending) in turn, then f^n where it
    has a closed form: one pass per kind of tau_n chain, with the parameters as columns."""
    u, taus, kinds, parts = len(distinct.t), [build_tau(orbit, n, omega) for n in depths], {}, []
    for b, tau in enumerate(taus):  # a chain drops a zero translation, which would turn -0.0 into 0.0
        kinds.setdefault(tuple(map(type, tau.chain)), []).append(b)
    for blocks in kinds.values():  # each primitive of the kind with its parameters as columns
        rows = distinct.take(np.tile(np.arange(u), len(blocks))) if len(blocks) > 1 else distinct
        chain = [stack_parameters(prims, u) for prims in zip(*(taus[b].chain for b in blocks))]
        parts.append(SiegelRows(*_apply_chain(chain, rows.z, rows.w)))
    at = np.argsort(sum(kinds.values(), []))  # the blocks back in depth order
    rows = parts[0] if len(parts) == 1 else SiegelRows.concat(parts).take((u * at[:, None] + np.arange(u)).ravel())
    k = u * sum(n > 0 for n in depths)  # f^0 is the identity, and depth 0 comes last
    if isinstance(f, QuadraticSiegel) and k:  # f^n is the quadratic map of the coefficients
        head = stack_parameters([quadratic_power(f, n) for n in depths if n], u).evaluate(rows.take(slice(0, k)))
        rows = SiegelRows.concat([head, rows.take(slice(k, None))]) if k < len(rows.t) else head
    return rows


def _psi_rows(f: MapDescriptor, orbit: BackwardOrbit, points: SiegelRows, n_values: tuple[int, ...],
              mask: tuple[bool, ...], omega: tuple[complex, ...] | None) -> SiegelRows:
    """psi_n = f^n o tau_n o p_L at every point for each n of n_values, as rows:
    the points in order for each n in turn.  psi_n is computed once per depth
    and distinct p_L(Z), matched on exact bits (== would merge 0.0 and -0.0,
    and a zero's sign can reach psi_n).  The rows are sorted by descending
    depth, so step s applies f once to the prefix of depths n >= s; a finished
    block is split off once, and the blocks are joined once at the end."""
    kept = (points.z,) + tuple(c for c, keep in zip(points.w, mask) if keep)  # p_L zeroes the rest
    keys = [row.tobytes() for row in np.stack([a for c in kept for a in (c.real, c.imag)], axis=1)]
    first: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)  # each distinct p_L(Z), at the first point that has it
    slot, u, rows = dict(zip(first, range(len(first)))), len(first), points.take(list(first.values()))
    zero = ComplexRows(np.zeros(u), np.zeros(u))
    distinct = SiegelRows(rows.z, tuple(c if keep else zero for c, keep in zip(rows.w, mask)))
    order = sorted(range(len(n_values)), key=lambda j: -n_values[j])
    depths = [n_values[j] for j in order]
    try:
        rows = _start_rows(f, orbit, distinct, depths, omega)
    except Exception:
        for n in depths:  # a failed batch raises what the first failing depth raises alone
            _start_rows(f, orbit, distinct, [n], omega)
        raise
    done, k = [], len(depths)  # the finished blocks, shallowest first; the blocks still deepening
    for step in range(1, 1 + (0 if isinstance(f, QuadraticSiegel) else depths[0])):
        if depths[k - 1] < step:  # the shallowest blocks are finished: split them off once
            k = sum(n >= step for n in depths)
            done.append(rows.take(slice(u * k, None)))
            rows = rows.take(slice(0, u * k))
        rows = evaluate(f, rows)
    rows = SiegelRows.concat([rows, *reversed(done)]) if done else rows
    block = np.argsort(order)  # where the rows of n_values[j] went
    return rows.take((u * block[:, None] + np.array([slot[key] for key in keys], dtype=int)).ravel())


def _residual_sweep(f: MapDescriptor, orbit: BackwardOrbit, n_values: tuple[int, ...],
                    grid: SiegelRows, alpha: float, mask: tuple[bool, ...], omega: tuple[complex, ...] | None,
                    a_k: bool = False) -> tuple[list[float], SiegelRows]:
    """The residual at each n of n_values from one sweep, and the rows of psi at the
    last n: at eta(Z), then at Z, in grid order, then (if a_k) at the a_k of the last n."""
    parts = [apply_automorphism(eta_model(alpha, grid.dim, omega), grid), grid]  # refuses a bad alpha first
    parts += [_a_k(orbit, n_values[-1], alpha)] if a_k else []
    g, m, s = len(grid.t), len(n_values), sum(len(p.t) for p in parts)  # s rows a depth
    psi = _psi_rows(f, orbit, SiegelRows.concat(parts), n_values, mask, omega)
    at_eta = (s * np.arange(m)[:, None] + np.arange(g)).ravel()
    d = dist_siegel(psi.take(at_eta), evaluate(f, psi.take(at_eta + g))).tolist()
    # each depth's max over its pairs in grid order, as the scalar loop took it
    return [max(d[i * g:(i + 1) * g]) for i in range(m)], psi.take(slice(s * (m - 1), None))


def psi_approx(f: MapDescriptor, orbit: BackwardOrbit, n: int, grid: list[SiegelPoint]
               ) -> list[tuple[SiegelPoint, SiegelPoint]]:
    """Samples of psi_n = f^n o tau_n o p_L on the grid."""
    psi = _psi_rows(f, orbit, SiegelRows.of(grid, orbit.points[0].dim), (n,), *_variant(f))
    return [(z, psi.point(i)) for i, z in enumerate(grid)]


def conjugation_residual(f: MapDescriptor, orbit: BackwardOrbit, n: int,
                         grid: list[SiegelPoint], alpha: float) -> float:
    """max over the grid of d(psi_n(eta(Z)), f(psi_n(Z)))."""
    return _residual_sweep(f, orbit, (n,), SiegelRows.of(grid, orbit.points[0].dim), alpha, *_variant(f))[0][0]


@dataclass(frozen=True)
class InterpolationReport:
    errors: tuple[float, ...]  # d(psi_n(a_k), Z_k) for k = 0 .. k_max


def _a_k(orbit: BackwardOrbit, n: int, alpha: float, k_max: int | None = None) -> SiegelRows:
    """a_k = (alpha^-k, 0) for k = 0 .. k_max (n // 2 if not given), clipped to the orbit, as rows."""
    k_max = min(n // 2 if k_max is None else k_max, len(orbit.points) - 1)
    zero = np.zeros(k_max + 1)  # Im z and w are +0.0, as in SiegelPoint(alpha^-k, (0.0, ...))
    return SiegelRows(ComplexRows(np.array([alpha ** (-k) for k in range(k_max + 1)]), zero),
                      (ComplexRows(zero, zero),) * (orbit.points[0].dim - 1))


def psi_interpolation_check(f: MapDescriptor, orbit: BackwardOrbit, n: int, alpha: float,
                            k_max: int | None = None, _psi: SiegelRows | None = None) -> InterpolationReport:
    """psi_n interpolates the orbit: psi_n(a_k) ~ Z_k at a_k = (alpha^-k, 0).  A sweep
    that had the a_k among its points hands their psi_n rows in as _psi."""
    if _psi is None:
        _psi = _psi_rows(f, orbit, _a_k(orbit, n, alpha, k_max), (n,), *_variant(f))
    return InterpolationReport(tuple(dist_siegel(_psi, SiegelRows.of(orbit.points[:len(_psi.t)])).tolist()))


@dataclass(frozen=True)
class ConjugationRun:
    f: MapDescriptor
    orbit: BackwardOrbit
    alpha: float
    L: int
    omega: tuple[complex, ...] | None
    grid: tuple[SiegelPoint, ...]
    n_values: tuple[int, ...]
    residuals: tuple[float, ...]
    interpolation: InterpolationReport
    psi: SiegelRows  # psi_n at the grid points, at the last n, in grid order

    @property
    def psi_samples(self) -> tuple[tuple[SiegelPoint, SiegelPoint], ...]:
        """The pairs (Z, psi_n(Z)) over the grid, built from the rows when read."""
        return tuple((z, self.psi.point(i)) for i, z in enumerate(self.grid))


def run_conjugation(f: MapDescriptor, orbit: BackwardOrbit, alpha: float,
                    grid: list[SiegelPoint] | None = None,
                    n_values: tuple[int, ...] | None = None) -> ConjugationRun:
    """Compute residuals over a range of n and the interpolation check at the last n, from one
    sweep, in the variant that f's first-order data at 0 gives."""
    dim = orbit.points[0].dim  # the default grid comes with its rows, built once per dim
    grid, rows = _default_grid(dim) if grid is None else (tuple(grid), SiegelRows.of(grid, dim))
    n_values = tuple(range(1, len(orbit.points) - 1) if n_values is None else n_values)
    if not n_values:
        raise ValueError("run_conjugation needs at least one n in n_values")
    mask, omega = _variant(f)
    try:  # the a_k ride every depth; where that fails, the two sweeps apart raise, or give, what they did
        residuals, psi = _residual_sweep(f, orbit, n_values, rows, alpha, mask, omega, a_k=True)
        at_a = psi.take(slice(2 * len(grid), None))
    except SiegelDynamicsError:  # a package error; any other is a fault, which no second sweep hides
        (residuals, psi), at_a = _residual_sweep(f, orbit, n_values, rows, alpha, mask, omega), None
    interp = psi_interpolation_check(f, orbit, n_values[-1], alpha, _psi=at_a)
    return ConjugationRun(f, orbit, alpha, sum(mask), omega, grid, n_values, tuple(residuals),
                          interp, psi.take(slice(len(grid), 2 * len(grid))))


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
    pts = orbit.points
    if chart.chain:  # the orbit through the chart as rows, each row back as a point with its bits
        rows = apply_automorphism(chart, SiegelRows.of(pts))
        cols = (np.stack([c.real, c.imag], axis=-1).view(complex)[:, 0].tolist() for c in (rows.z,) + rows.w)
        pts = tuple(SiegelPoint(z, tuple(w)) for z, *w in zip(*cols))
    new_orbit = replace(orbit, points=pts, defects=tuple(p.t for p in pts),
                        limit=BoundaryPoint(v=CVector((0.0,) * orbit.points[0].dim)),
                        at_infinity=False)
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
    chart_inv = None if q.at_infinity else invert_automorphism(recentering_translation(q))
    last_err: Exception | None = None
    for attempt in range(4):
        depth = n0 + 5 * attempt
        seed = SiegelPoint(alpha ** (depth if q.at_infinity else -depth), (0.0,) * (f.dim - 1))
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
