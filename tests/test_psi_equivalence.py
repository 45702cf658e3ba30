"""psi_n samples, residuals and diagnostics, bit for bit against the plain
formulas: psi_n(Z) = f^n(tau_n(p_L(Z))) evaluated afresh at every point.

The grids include points that differ only in the sign of a zero, so a result
that is shared between two inputs whose bits differ shows up here.
"""

import pytest

from siegel_dynamics import conjugation, maps
from siegel_dynamics.cli import FIXTURES, fixture_path
from siegel_dynamics.conjugation import (
    build_tau,
    conjugation_residual,
    default_grid,
    eta_model,
    gn_diagnostic,
    project_first,
    psi_approx,
    psi_interpolation_check,
    recenter_orbit_at_zero,
)
from siegel_dynamics.dynamics import backward_orbit
from siegel_dynamics.errors import InvalidDescriptor
from siegel_dynamics.geometry import SiegelPoint, apply_automorphism, dist_siegel, invert_automorphism
from siegel_dynamics.maps import (
    DiagonalLinear,
    QuadraticSiegel,
    expandable_decompose,
    iterate,
    quadratic_iterate_closed,
)
from siegel_dynamics.serialize import load_descriptor

N_VALUES = (0, 1, 5, 12)
EXPANDABLE = QuadraticSiegel(2.0, 0j, complex(1.4142135623730951))
TWINS = [
    SiegelPoint(1 + 0j, (0j,)),
    SiegelPoint(complex(1, -0.0), (0j,)),
    SiegelPoint(1 + 0j, (complex(0, -0.0),)),
    SiegelPoint(1 + 0j, (complex(-0.0, 0),)),
    SiegelPoint(1 + 0j, (0j,)),
    SiegelPoint(complex(0.5, -0.0), (0.1j,)),
    SiegelPoint(complex(0.5, 0.0), (0.1j,)),
    SiegelPoint(complex(0.5, 0.0), (complex(-0.0, 0.1),)),
]


def conjugation_setup(f):
    """The map, orbit and variant that the `conjugate` command uses."""
    orbit = backward_orbit(f, SiegelPoint(1.0, (0.0,) * (f.dim - 1)), 0.34, 40)
    g, orbit0, _ = recenter_orbit_at_zero(f, orbit)
    variant, L, omega = "basic", 0, None
    try:
        exp = expandable_decompose(f.base if isinstance(f, maps.Conjugated) else f)
        if exp.L > 0:
            variant, L, omega = "expandable", exp.L, exp.omega
    except InvalidDescriptor:
        pass
    return g, orbit0, orbit.multiplier_estimate, L, variant, omega


CASES = {name: (lambda name=name: load_descriptor(str(fixture_path(name)))) for name in FIXTURES}
CASES["expandable"] = lambda: EXPANDABLE


def ref_psi(f, orbit, n, z, L, variant, omega):
    p = apply_automorphism(build_tau(orbit, n, variant, omega), project_first(z, L))
    return quadratic_iterate_closed(f, n, p) if isinstance(f, QuadraticSiegel) else iterate(f, n, p)


def ref_residual(f, orbit, n, grid, alpha, L, variant, omega):
    eta = eta_model(alpha, orbit.points[0].dim, 1, omega if variant == "expandable" else None)
    return max(dist_siegel(ref_psi(f, orbit, n, apply_automorphism(eta, z), L, variant, omega),
                           maps.evaluate(f, ref_psi(f, orbit, n, z, L, variant, omega)))
               for z in grid)


def ref_interpolation(f, orbit, n, alpha, L, variant, omega):
    errs = []
    for k in range(min(n // 2, len(orbit.points) - 1) + 1):
        a_k = SiegelPoint(alpha ** (-k), (0.0,) * (orbit.points[0].dim - 1))
        errs.append(dist_siegel(ref_psi(f, orbit, n, a_k, L, variant, omega), orbit.points[k]))
    return tuple(errs)


def ref_gn(f, orbit, n, grid, alpha, L, variant, omega):
    eta_inv_n = eta_model(alpha, orbit.points[0].dim, -n, omega if variant == "expandable" else None)
    tau_inv = invert_automorphism(build_tau(orbit, n, variant, omega))
    worst = 0.0
    for z in grid:
        val = ref_psi(f, orbit, n, apply_automorphism(eta_inv_n, z), L, variant, omega)
        worst = max(worst, dist_siegel(apply_automorphism(tau_inv, val), project_first(z, L)))
    return worst


def bits(value):
    """Exact bits of a float, a point, or a nested sequence of them."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, SiegelPoint):
        return tuple((c.real.hex(), c.imag.hex()) for c in value.coords)
    return tuple(bits(v) for v in value)


def outcome(fn, *args):
    try:
        return "ok", bits(fn(*args))
    except Exception as err:  # the same exception must come out of both sides
        return "raised", type(err).__name__, str(err)


@pytest.mark.parametrize("case", sorted(CASES))
def test_psi_results_match_plain_formulas_bit_for_bit(case):
    f, orbit, alpha, L, variant, omega = conjugation_setup(CASES[case]())
    grid = default_grid(orbit.points[0].dim) + TWINS
    for n in N_VALUES:
        args = (f, orbit, n, grid, alpha, L, variant, omega)
        assert outcome(conjugation_residual, *args) == outcome(ref_residual, *args)
        assert outcome(gn_diagnostic, *args) == outcome(ref_gn, *args)
        assert outcome(psi_approx, f, orbit, n, grid, L, variant, omega) == outcome(
            lambda: [(z, ref_psi(f, orbit, n, z, L, variant, omega)) for z in grid])
        assert outcome(lambda: psi_interpolation_check(f, orbit, n, alpha, None, L, variant,
                                                       omega).errors) == outcome(
            ref_interpolation, f, orbit, n, alpha, L, variant, omega)


@pytest.mark.parametrize("case", ["quadpol", "expandable"])
def test_signed_zero_twins_keep_their_own_psi(case):
    # at n = 0 the sign of a zero survives tau_0 (and, with L = 1, p_L), so
    # twins that compare equal under == have psi values with different bits
    f, orbit, _, L, variant, omega = conjugation_setup(CASES[case]())
    ref = [bits(ref_psi(f, orbit, 0, z, L, variant, omega)) for z in TWINS]
    assert ref[0] != ref[1] and ref[5] != ref[6]
    if L:
        assert len({ref[0], ref[2], ref[3]}) == 3
    assert [bits(v) for _, v in psi_approx(f, orbit, 0, TWINS, L, variant, omega)] == ref


def test_residual_on_empty_grid_raises_value_error():
    f, orbit, alpha, L, variant, omega = conjugation_setup(CASES["quadpol"]())
    with pytest.raises(ValueError):
        conjugation_residual(f, orbit, 3, [], alpha, L, variant, omega)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_residual_iterates_once_per_distinct_projected_input(n, monkeypatch):
    # default_grid(2) has 25 points but, with L = 0, only 5 distinct p_L(Z)
    # and 5 distinct p_L(eta(Z)): 10 psi_n values of n steps, and f applied
    # once more to each of the 5 psi_n(Z)
    f = DiagonalLinear(2.0, (1.0,))
    orbit = backward_orbit(f, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    calls = []
    original = maps.evaluate

    def counting(g, p):
        calls.append(1)
        return original(g, p)

    monkeypatch.setattr(maps, "evaluate", counting)
    monkeypatch.setattr(conjugation, "evaluate", counting)
    conjugation_residual(f, orbit, n, default_grid(2), 2.0)
    assert len(calls) <= 10 * n + 5
