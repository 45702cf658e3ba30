import cmath
import json
import math

import numpy as np
import pytest

from siegel_dynamics import cli, conjugation
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
    special_backward_construct,
)
from siegel_dynamics.dynamics import backward_orbit, multiplier_at_boundary
from siegel_dynamics.errors import ConstructionFailed
from siegel_dynamics.serialize import descriptor_to_json, dumps_canonical, load_descriptor, siegel_point_to_json
from siegel_dynamics.geometry import (
    INFINITY,
    BoundaryPoint,
    CVector,
    Rotation,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    Translation,
    apply_automorphism,
    dist_siegel,
    invert_automorphism,
)
from siegel_dynamics.maps import (
    BallProduct,
    BlaschkeDeg2,
    Conjugated,
    DiagonalLinear,
    DiskLinear,
    HalfPlaneLinear,
    Lifted,
    QuadraticSiegel,
    expandable_decompose,
)

QUADPOL = QuadraticSiegel(2.0, 1.0, 1.0)
ELLIPTIC = BallProduct((BlaschkeDeg2(0.5), DiskLinear(0.5)))
ZERO2 = BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")
ONE = SiegelPoint(1.0, (0.0,))


def quadpol_orbit(n=40):
    return backward_orbit(QUADPOL, ONE, 0.34, n)


# ---------------------------------------------------------------------------
# tau_n
# ---------------------------------------------------------------------------

def test_tau_quadpol_is_pure_dilation():
    orb = quadpol_orbit()
    for n in (0, 3, 10):
        tau = build_tau(orb, n)
        p = apply_automorphism(tau, SiegelPoint(3.0, (0.5,)))
        assert p.z == 2.0 ** -n * 3.0
        assert abs(p.w[0] - 2.0 ** (-n / 2) * 0.5) < 1e-15
    assert build_tau(orb, 0).chain == ()  # Z_0 = (1, 0): identity


def test_tau_base_point_property_all_orbits():
    f_lift = Lifted(HalfPlaneLinear(2.0))
    for f, seed in ((QUADPOL, ONE), (f_lift, SiegelPoint(2.0, (1.0,)))):
        orb = backward_orbit(f, seed, 0.4, 30)
        for n in range(len(orb.points)):
            p = apply_automorphism(build_tau(orb, n), ONE)
            assert dist_siegel(p, orb.points[n]) < 1e-12


def test_tau_expandable_adds_rotation():
    orb = quadpol_orbit(10)
    th = 0.6
    tau = build_tau(orb, 3, (cmath.exp(1j * th),))
    assert isinstance(tau.chain[-1], Rotation)
    p = apply_automorphism(tau, SiegelPoint(2.0, (1.0,)))
    assert abs(p.w[0] - 2.0 ** -1.5 * cmath.exp(-3j * th)) < 1e-14


def test_tau_index_out_of_range():
    orb = quadpol_orbit(5)
    with pytest.raises(IndexError):
        build_tau(orb, 99)


# ---------------------------------------------------------------------------
# psi approximants and residuals
# ---------------------------------------------------------------------------

def test_psi_quadpol_is_projection():
    orb = quadpol_orbit(30)
    grid = default_grid(2)
    for n in (2, 10, 20):
        for z, val in psi_approx(QUADPOL, orb, n, grid):
            assert dist_siegel(val, project(z, (False,))) < 1e-12


def test_psi_sweep_joins_rows_once_and_steps_only_deepening_rows(monkeypatch):
    """A sweep of depths up to 12 joins its finished blocks once at the end, not
    once per step, and its first rows once more only when tau_n chains of two
    kinds make them; it applies f to a row of depth n exactly n times."""
    f = Lifted(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 20)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    grid = default_grid(2)
    concat, counts = SiegelRows.concat.__func__, {"concat": 0, "rows": 0}

    def counting_concat(cls, parts):
        counts["concat"] += 1
        return concat(cls, parts)

    def counting_evaluate(h, p):
        counts["rows"] += len(p.t) if type(p) is SiegelRows else 1
        return h.evaluate(p)

    monkeypatch.setattr(SiegelRows, "concat", classmethod(counting_concat))
    monkeypatch.setattr(conjugation, "evaluate", counting_evaluate)
    assert build_tau(orb0, 0).chain == ()  # t_0 = 1: tau_0 is a chain of its own kind
    for n_values, joins in (((12,), 0), (tuple(range(1, 13)), 1), ((1, 12, 5, 5, 0), 2)):
        counts.update(concat=0, rows=0)
        conjugation._psi_rows(g, orb0, SiegelRows.of(grid), n_values, (True,), None)  # p_L keeps w
        assert counts["concat"] == joins
        assert counts["rows"] == len(grid) * sum(n_values)  # the grid's points are distinct
    counts.update(concat=0)
    psi_interpolation_check(g, orb0, 12, 2.0)
    assert counts["concat"] == 0


def test_psi_diagonal_l0_is_projection():
    f = DiagonalLinear(2.0, (1.0,))
    orb = backward_orbit(f, ONE, 0.34, 30)
    for z, val in psi_approx(f, orb, 10, default_grid(2)):
        assert dist_siegel(val, project(z, (False,))) < 1e-12


def test_psi_diagonal_expandable_is_identity():
    th = 1.1
    f = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(1j * th),))
    orb = backward_orbit(f, ONE, 0.34, 30)
    exp = expandable_decompose(f)
    assert exp.L == 1
    for z, val in psi_approx(f, orb, 12, default_grid(2)):  # the variant comes from f
        assert dist_siegel(val, z) < 1e-12


def test_residual_quadpol_zero():
    orb = quadpol_orbit(30)
    grid = default_grid(2)
    for n in (1, 5, 10, 20):
        assert conjugation_residual(QUADPOL, orb, n, grid, 2.0) <= 1e-12


def test_residual_diagonal_expandable_zero():
    th = 0.4
    f = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(1j * th),))
    orb = backward_orbit(f, ONE, 0.34, 30)
    res = conjugation_residual(f, orb, 10, default_grid(2), 2.0)
    assert res <= 1e-12


def test_expandable_direction_second_is_kept():
    # Lambda = (1, sqrt 2): the expandable direction is w_2, not the first one.  From
    # (5, 0, 0), tau_n is a dilation by t_n = 5 / 2^n, so psi_n = (5z, 0, sqrt(5) w_2)
    # at every n, and the residual is 0 with w_1 dropped and w_2 kept
    f = DiagonalLinear(2.0, (1.0, math.sqrt(2.0)))
    orb = backward_orbit(f, SiegelPoint(5.0, (0j, 0j)), 0.34, 40)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    pts = [SiegelPoint(2.0, (0.3, 0.4j)), SiegelPoint(0.7 + 0.2j, (-0.1, 0.2 + 0.1j))]
    run = run_conjugation(g, orb0, orb.multiplier_estimate, default_grid(3) + pts, tuple(range(1, 14)))
    assert (run.L, run.omega) == (1, (1.0, 1.0))
    assert max(run.residuals) <= 1e-12
    for n in range(1, 14):
        for z, val in psi_approx(g, orb0, n, pts):
            assert dist_siegel(val, SiegelPoint(5.0 * z.z, (0j, math.sqrt(5.0) * z.w[1]))) < 1e-12


def test_default_grid_offsets_each_tangential_coordinate():
    # at each Re z: no offset, then +-0.05 and +-0.05i in w_1, w_2, ... in turn; dimension 2
    # keeps the grid it always had, bit for bit (0.05j and -0.05j carry a real part +0.0 and -0.0)
    zs = np.logspace(-1, 1, 5)
    old2 = [SiegelPoint(complex(z), w) for z in zs for w in [(0.0,), (0.05 + 0j,), (-0.05 + 0j,), (0.05j,), (-0.05j,)]]
    bits = lambda grid: [tuple((c.real.hex(), c.imag.hex()) for c in p.coords) for p in grid]
    assert bits(default_grid(2)) == bits(old2)
    assert [p.coords for p in default_grid(1)] == [(complex(z),) for z in zs]
    grid3 = default_grid(3)
    assert len(grid3) == 5 * 9 and grid3[0].w == (0j, 0j)
    assert [p.w for p in grid3[1:9]] == [(0.05, 0j), (-0.05, 0j), (0.05j, 0j), (-0.05j, 0j),
                                         (0j, 0.05), (0j, -0.05), (0j, 0.05j), (0j, -0.05j)]


def test_conjugate_report_samples_psi_on_the_second_tangential_direction(tmp_path, capsys):
    # DiagonalLinear(2, (1, sqrt 2)) is expandable in w_2 only: psi = (5z, 0, sqrt(5) w_2), so the
    # report's psi samples read w_2 != 0 where the grid has a w_2 offset (the grid once had none)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(descriptor_to_json(DiagonalLinear(2.0, (1.0, math.sqrt(2.0))))))
    assert cli.main(["conjugate", "--map", str(path), "--start", "5,0"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])  # after the residual table
    assert report["L"] == 1 and max(float(r) for r in report["residuals"]) == 0.0
    moved = [psi for z, psi in report["psi"] if z["re"][2] != 0.0 or z["im"][2] != 0.0]
    assert len(moved) == 20 and all(psi["re"][2] != 0.0 or psi["im"][2] != 0.0 for psi in moved)
    assert all(psi["re"][1] == psi["im"][1] == 0.0 for _, psi in report["psi"])


@pytest.mark.parametrize("argv", [["--map", name] for name in cli.FIXTURES]
                         + [["--A", "2", "--B", "0", "--C", "1.4142135623730951"],
                            ["--map", "lifted2z", "--start", "1.2,0,0.7,0"]],
                         ids=[*cli.FIXTURES, "expandable", "lifted2z_translation_chart"])
def test_conjugate_report_writes_the_runs_grid_and_psi_samples(argv, tmp_path, capsys, monkeypatch):
    # the report writes psi from the run's rows and shares each grid point's JSON: the text is
    # what siegel_point_to_json gives of the grid and of the psi_samples points, bit for bit
    runs, real = [], conjugation.run_conjugation
    monkeypatch.setattr(conjugation, "run_conjugation", lambda *a, **k: runs.append(real(*a, **k)) or runs[-1])
    assert cli.main(["conjugate", *argv, "--out", str(tmp_path)]) in (0, 3)
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    (run,) = runs
    assert len(report["grid"]) == len(report["psi"]) == len(run.grid) == 5 * (4 * run.orbit.points[0].dim - 3)
    assert dumps_canonical(report["grid"]) == dumps_canonical([siegel_point_to_json(p) for p in run.grid])
    assert dumps_canonical(report["psi"]) == dumps_canonical(
        [[siegel_point_to_json(z), siegel_point_to_json(v)] for z, v in run.psi_samples])


def test_default_grid_is_built_once_and_returned_as_a_new_list():
    first = default_grid(2)
    first.append(SiegelPoint(1.0, (0j,)))
    second = default_grid(2)
    assert second is not first and len(second) == 25
    assert second == first[:25] == default_grid(2)
    second.pop()
    assert len(default_grid(2)) == 25


def test_expandable_directions_with_phases_in_dimension_four():
    # expandable only at w_2 and w_3, each with its own phase
    f = DiagonalLinear(2.0, (0.5, math.sqrt(2.0) * cmath.exp(0.4j), math.sqrt(2.0) * cmath.exp(-1.1j)))
    exp = expandable_decompose(f)
    assert exp.mask == (False, True, True) and exp.L == 2
    orb = backward_orbit(f, SiegelPoint(5.0, (0j,) * 3), 0.34, 40)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    pts = [SiegelPoint(2.0, (0.3, 0.4j, -0.2 + 0.1j)), SiegelPoint(0.7 + 0.2j, (-0.1, 0.2 + 0.1j, 0.05))]
    run = run_conjugation(g, orb0, orb.multiplier_estimate, default_grid(4) + pts, tuple(range(1, 14)))
    assert (run.L, run.omega) == (2, exp.omega)
    assert max(run.residuals) <= 1e-12
    for z, val in run.psi_samples[-2:]:  # psi = (5z, 0, sqrt(5) w_2, sqrt(5) w_3) up to the phases
        assert val.w[0] == 0 and abs(abs(val.w[1]) - math.sqrt(5.0) * abs(z.w[1])) < 1e-12
        assert abs(abs(val.w[2]) - math.sqrt(5.0) * abs(z.w[2])) < 1e-12


def assert_base_familys_variant(f, orb):
    """run_conjugation on the recentred Conjugated map takes the variant of the
    family under the Conjugated layers, as `conjugate` took it."""
    exp = expandable_decompose(f.base if isinstance(f, Conjugated) else f)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    assert isinstance(g, Conjugated) and exp.L == 1
    n_values, grid = tuple(range(1, 13)), default_grid(2)
    run = run_conjugation(g, orb0, orb.multiplier_estimate, grid, n_values)
    assert (run.L, run.omega) == (exp.L, exp.omega)
    assert list(run.residuals) == conjugation._residual_sweep(
        g, orb0, n_values, SiegelRows.of(grid), orb.multiplier_estimate, exp.mask, exp.omega)[0]
    assert max(run.residuals) < 1e-11


def test_conjugated_by_inversion_takes_the_base_familys_variant():
    # the orbit tends to infinity, so the run is on Conjugated(f, Inversion)
    f = DiagonalLinear(0.5, (math.sqrt(0.5) * cmath.exp(0.3j),))
    assert_base_familys_variant(f, backward_orbit(f, ONE, 0.34, 40))


def test_loaded_conjugated_descriptor_takes_the_base_familys_variant(tmp_path):
    # recentring wraps the loaded Conjugated map in a second Conjugated layer
    by = SiegelAutomorphism((Translation(0.5, (0.2 + 0j,)),))
    base = DiagonalLinear(2.0, (math.sqrt(2.0) * cmath.exp(0.7j),))
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps(descriptor_to_json(Conjugated(base, by))))
    f = load_descriptor(str(path))
    assert_base_familys_variant(f, backward_orbit(f, apply_automorphism(by, SiegelPoint(5.0, (0j,))), 0.34, 40))


def test_residual_elliptic_fixture_decreases():
    orb = special_backward_construct(ELLIPTIC, INFINITY, 4.0 / 3.0, 0.5, 45)
    g, orb0, _ = recenter_orbit_at_zero(ELLIPTIC, orbit=orb)
    grid = default_grid(2)
    res = [conjugation_residual(g, orb0, n, grid, 4.0 / 3.0) for n in (5, 15, 30)]
    assert res[2] < res[0]
    assert res[2] < 1e-3


def test_expandable_l0_matches_basic():
    # all tangential eigenvalues below sqrt(alpha): an expandable sweep with an
    # empty mask and trivial Omega reproduces the basic run exactly, which is the
    # variant psi takes for such a map
    f = DiagonalLinear(2.0, (1.0,))
    orb = backward_orbit(f, ONE, 0.34, 20)
    rows = SiegelRows.of(default_grid(2))
    assert conjugation._variant(f) == ((False,), None)
    basic = [v for _, v in psi_approx(f, orb, 8, default_grid(2))]
    expd = conjugation._psi_rows(f, orb, rows, (8,), (False,), (1.0 + 0j,))
    for i, v in enumerate(basic):
        assert v.coords == expd.point(i).coords


def test_eta_model_properties():
    eta = eta_model(2.0, 2)
    p = apply_automorphism(eta, SiegelPoint(1.5, (0.3,)))
    assert p.z == 3.0 and abs(p.w[0] - math.sqrt(2.0) * 0.3) < 1e-15
    # eta is the linear model: its multiplier at 0 is alpha exactly
    f = DiagonalLinear(2.0, (math.sqrt(2.0),))
    assert abs(multiplier_at_boundary(f, ZERO2) - 2.0) < 1e-9
    # p_L and eta^{-1} are diagonal, hence commute
    inv = invert_automorphism(eta_model(2.0, 2))
    for z in default_grid(2):
        a = project(apply_automorphism(inv, z), (False,))
        b = apply_automorphism(inv, project(z, (False,)))
        assert a.coords == b.coords


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolation_quadpol_exact():
    orb = quadpol_orbit(40)
    rep = psi_interpolation_check(QUADPOL, orb, 20, 2.0, 10)
    assert len(rep.errors) == 11
    assert max(rep.errors) <= 1e-12


def test_interpolation_base_point():
    orb = quadpol_orbit(10)
    rep = psi_interpolation_check(QUADPOL, orb, 4, 2.0, 0)
    assert rep.errors[0] <= 1e-12  # psi_n(1, 0) = Z_0


def test_interpolation_lifted_improves_with_n():
    f = Lifted(HalfPlaneLinear(2.0))
    orb = backward_orbit(f, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    g, orb0, _ = recenter_orbit_at_zero(f, orb)
    e_small = psi_interpolation_check(g, orb0, 6, 2.0, 3).errors
    e_large = psi_interpolation_check(g, orb0, 24, 2.0, 3).errors
    assert max(e_large) <= max(e_small) + 1e-12
    assert max(e_large) < 1e-8


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def test_run_conjugation_quadpol():
    orb = quadpol_orbit(25)
    run = run_conjugation(QUADPOL, orb, 2.0, n_values=tuple(range(1, 21)))
    assert max(run.residuals) <= 1e-12
    assert max(run.interpolation.errors) <= 1e-10
    assert len(run.psi_samples) == len(run.grid)


# ---------------------------------------------------------------------------
# special backward sequences
# ---------------------------------------------------------------------------

def test_special_construct_quadpol():
    orb = special_backward_construct(QUADPOL, ZERO2, 2.0, 0.5, 40)
    assert not orb.at_infinity
    assert abs(orb.steps[-1] - 1.0 / 3.0) < 1e-9
    assert abs(orb.multiplier_estimate - 2.0) < 1e-9


def test_special_construct_diagonal():
    f = DiagonalLinear(2.0, (1.0,))
    orb = special_backward_construct(f, ZERO2, 2.0, 0.5, 30)
    for p in orb.points:
        assert abs(p.w[0]) < 1e-15
    assert abs(orb.steps[-1] - 1.0 / 3.0) < 1e-9


def test_special_construct_at_infinity_seeds_in_the_map_dimension():
    # DiagonalLinear(1/2, Lambda) on H^3 repels from infinity with alpha = 2
    f = DiagonalLinear(0.5, (0.5, 0.5))
    orb = special_backward_construct(f, INFINITY, 2.0, 0.5, 20)
    assert orb.at_infinity and len(orb.points) == 21
    assert all(p.dim == 3 for p in orb.points)
    assert orb.multiplier_estimate == 2.0


def test_special_construct_elliptic_steps_to_one_seventh():
    orb = special_backward_construct(ELLIPTIC, INFINITY, 4.0 / 3.0, 0.5, 60)
    assert orb.at_infinity
    assert abs(orb.steps[-1] - 1.0 / 7.0) < 1e-4
    assert abs(orb.multiplier_estimate - 4.0 / 3.0) < 1e-6


def test_special_construct_rejects_attracting():
    with pytest.raises(ConstructionFailed):
        special_backward_construct(QUADPOL, ZERO2, 0.5, 0.5, 10)


def test_run_conjugation_needs_an_n():
    g, orbit0, _ = recenter_orbit_at_zero(QUADPOL, quadpol_orbit())
    with pytest.raises(ValueError, match="n_values"):
        run_conjugation(g, orbit0, 2.0, n_values=())
