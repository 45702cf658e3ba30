"""psi_n samples, residuals and the interpolation check, bit for bit against
the plain formulas: psi_n(Z) = f^n(tau_n(p_L(Z))) evaluated afresh at every
point, in the variant (p_L's mask and Omega) that the psi functions take from
the map.

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
    project,
    psi_approx,
    psi_interpolation_check,
    recenter_orbit_at_zero,
    run_conjugation,
)
from siegel_dynamics.dynamics import backward_orbit
from siegel_dynamics.errors import InvalidPoint
from siegel_dynamics.geometry import SiegelPoint, apply_automorphism, dist_siegel
from siegel_dynamics.maps import (
    DiagonalLinear,
    QuadraticSiegel,
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
    """The map, orbit and multiplier that the `conjugate` command uses, and the
    mask and Omega that the psi functions take from that map."""
    orbit = backward_orbit(f, SiegelPoint(1.0, (0.0,) * (f.dim - 1)), 0.34, 40)
    g, orbit0, _ = recenter_orbit_at_zero(f, orbit)
    return (g, orbit0, orbit.multiplier_estimate, *conjugation._variant(g))


CASES = {name: (lambda name=name: load_descriptor(str(fixture_path(name)))) for name in FIXTURES}
CASES["expandable"] = lambda: EXPANDABLE


def ref_psi(f, orbit, n, z, mask, omega):
    p = apply_automorphism(build_tau(orbit, n, omega), project(z, mask))
    return quadratic_iterate_closed(f, n, p) if isinstance(f, QuadraticSiegel) else iterate(f, n, p)


def ref_residual(f, orbit, n, grid, alpha, mask, omega):
    eta = eta_model(alpha, orbit.points[0].dim, omega)
    return max(dist_siegel(ref_psi(f, orbit, n, apply_automorphism(eta, z), mask, omega),
                           maps.evaluate(f, ref_psi(f, orbit, n, z, mask, omega)))
               for z in grid)


def ref_interpolation(f, orbit, n, alpha, mask, omega):
    errs = []
    for k in range(min(n // 2, len(orbit.points) - 1) + 1):
        a_k = SiegelPoint(alpha ** (-k), (0.0,) * (orbit.points[0].dim - 1))
        errs.append(dist_siegel(ref_psi(f, orbit, n, a_k, mask, omega), orbit.points[k]))
    return tuple(errs)


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
    f, orbit, alpha, mask, omega = conjugation_setup(CASES[case]())
    grid = default_grid(orbit.points[0].dim) + TWINS
    for n in N_VALUES:
        args = (f, orbit, n, grid, alpha)
        assert outcome(conjugation_residual, *args) == outcome(ref_residual, *args, mask, omega)
        assert outcome(psi_approx, f, orbit, n, grid) == outcome(
            lambda: [(z, ref_psi(f, orbit, n, z, mask, omega)) for z in grid])
        assert outcome(lambda: psi_interpolation_check(f, orbit, n, alpha).errors) == outcome(
            ref_interpolation, f, orbit, n, alpha, mask, omega)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_conjugation_matches_plain_formulas_at_every_depth(case):
    # one sweep serves every depth; each n also comes last once, for the samples
    f, orbit, alpha, mask, omega = conjugation_setup(CASES[case]())
    grid = default_grid(orbit.points[0].dim) + TWINS
    for last in N_VALUES:
        n_values = tuple(n for n in N_VALUES if n != last) + (last,)
        run = run_conjugation(f, orbit, alpha, grid, n_values)
        assert (run.L, run.omega) == (sum(mask), omega)
        assert bits(run.residuals) == tuple(
            bits(ref_residual(f, orbit, n, grid, alpha, mask, omega)) for n in n_values)
        assert bits([v for _, v in run.psi_samples]) == bits(
            [ref_psi(f, orbit, last, z, mask, omega) for z in grid])
        assert [z for z, _ in run.psi_samples] == grid
        assert bits(run.interpolation.errors) == bits(
            ref_interpolation(f, orbit, last, alpha, mask, omega))


@pytest.mark.parametrize("case", ["quadpol", "expandable"])
def test_signed_zero_twins_keep_their_own_psi(case):
    # at n = 0 the sign of a zero survives tau_0 (and, where p_L keeps w, p_L), so
    # twins that compare equal under == have psi values with different bits
    f, orbit, _, mask, omega = conjugation_setup(CASES[case]())
    ref = [bits(ref_psi(f, orbit, 0, z, mask, omega)) for z in TWINS]
    assert ref[0] != ref[1] and ref[5] != ref[6]
    assert any(mask) is (case == "expandable")
    if any(mask):
        assert len({ref[0], ref[2], ref[3]}) == 3
    assert [bits(v) for _, v in psi_approx(f, orbit, 0, TWINS)] == ref


def test_sweeps_that_leave_the_domain_raise_invalid_point():
    # f is not a self-map, so psi_n of points with large w leaves the domain once
    # p_L keeps w (the residual sweep is given that mask: f's own variant is the
    # basic one); one depth names the same point as the plain formulas, several
    # depths raise for whichever point their sweep meets first
    orbit = backward_orbit(QuadraticSiegel(2.0, 0j, 1.0), SiegelPoint(1.0, (0.0,)), 0.34, 40)
    f = QuadraticSiegel(0.5, 2.0, 1.0)
    grid = default_grid(2) + [SiegelPoint(0.82, (0.9j,)), SiegelPoint(1.5, (1.2j,))]
    for n in (1, 5, 12):
        want = outcome(ref_residual, f, orbit, n, grid, 2.0, (True,), None)
        assert want[:2] == ("raised", "InvalidPoint")
        assert outcome(lambda: conjugation._residual_sweep(f, orbit, (n,), grid, 2.0, (True,), None)[0]) == want
    with pytest.raises(InvalidPoint):
        conjugation._residual_sweep(f, orbit, (1, 5, 12), grid, 2.0, (True,), None)


def test_residual_on_empty_grid_raises_value_error():
    f, orbit, alpha, _, _ = conjugation_setup(CASES["quadpol"]())
    with pytest.raises(ValueError):
        conjugation_residual(f, orbit, 3, [], alpha)


def count_evaluates(monkeypatch) -> list:
    calls = []
    original = maps.evaluate

    def counting(g, p):
        calls.append(1)
        return original(g, p)

    monkeypatch.setattr(maps, "evaluate", counting)
    monkeypatch.setattr(conjugation, "evaluate", counting)
    return calls


@pytest.mark.parametrize("n", [1, 5, 12])
def test_residual_iterates_once_per_distinct_projected_input(n, monkeypatch):
    # n steps for the rows of psi_n(Z) and psi_n(eta(Z)) together, and one
    # more for f(psi_n(Z))
    f = DiagonalLinear(2.0, (1.0,))
    orbit = backward_orbit(f, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    calls = count_evaluates(monkeypatch)
    conjugation_residual(f, orbit, n, default_grid(2), 2.0)
    assert len(calls) <= n + 1


def test_run_conjugation_shares_each_step_across_depths(monkeypatch):
    # the residuals of n = 1..12 take one sweep of 12 steps and f once more;
    # the interpolation check at n = 12 is a sweep of its own
    f = DiagonalLinear(2.0, (1.0,))
    orbit = backward_orbit(f, SiegelPoint(1.0, (0.0,)), 0.34, 40)
    calls = count_evaluates(monkeypatch)
    run_conjugation(f, orbit, 2.0, n_values=tuple(range(1, 13)))
    assert len(calls) <= (12 + 1) + 12
