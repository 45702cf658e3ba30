"""A map family defined only here: one class with the four protocol members
(`dim`, `evaluate`, `preimages`, `fixed_point_set`) is enough for the module
functions of `maps`, the backward solver, `Conjugated` and, with an `evaluate`
that returns `type(p)`, the batched Julia check.  A batch that fails in a
family's own way still raises the per-point error of its first failing row."""

from dataclasses import dataclass

import pytest

from siegel_dynamics import maps
from siegel_dynamics.dynamics import backward_orbit, julia_inclusion_check
from siegel_dynamics.errors import DimensionMismatch, InvalidPoint
from siegel_dynamics.geometry import (
    INFINITY,
    SiegelAutomorphism,
    SiegelPoint,
    SiegelRows,
    Translation,
    apply_automorphism,
    invert_automorphism,
)

from test_sampled_parity import julia_bits, ref_julia_inclusion_check


@dataclass(frozen=True)
class DoubleZ:
    """(z, w) |-> (2z, w) on H^2: repelling at the boundary point 0 with alpha = 2."""

    dim = 2

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        return type(p)(2.0 * p.z, p.w)

    def preimages(self, p: SiegelPoint) -> list[tuple[complex, ...]]:
        return [(p.z / 2.0,) + p.w]

    def fixed_point_set(self) -> maps.FixedPointSet:
        return maps.FixedPointSet("origin_infinity")


F = DoubleZ()
BY = SiegelAutomorphism((Translation(0.5, (0.1 - 0.2j,)),))
P = SiegelPoint(1.0 + 0.5j, (0.3 + 0.1j,))


def test_module_functions_delegate_to_the_family():
    assert maps.evaluate(F, P) == SiegelPoint(2.0 + 1.0j, (0.3 + 0.1j,))
    assert maps.iterate(F, 3, P) == SiegelPoint(8.0 + 4.0j, (0.3 + 0.1j,))
    assert maps.preimage_candidates(F, P) == [(0.5 + 0.25j, 0.3 + 0.1j)]
    assert F.fixed_point_set().kind == "origin_infinity"


def test_backward_orbit_of_the_new_family():
    orbit = backward_orbit(F, SiegelPoint(1.0, (0.0,)), 0.34, 20)
    assert len(orbit.points) == 21
    assert [p.z for p in orbit.points] == [2.0 ** -k for k in range(21)]
    assert all(abs(s - 1.0 / 3.0) < 1e-12 for s in orbit.steps)
    assert orbit.multiplier_estimate == pytest.approx(2.0, abs=1e-12)
    assert not orbit.at_infinity


def test_conjugated_wraps_the_new_family():
    g = maps.Conjugated(F, BY)
    assert g.dim == 2
    direct = apply_automorphism(BY, F.evaluate(apply_automorphism(invert_automorphism(BY), P)))
    assert maps.evaluate(g, P) == direct
    cands = maps.preimage_candidates(g, P)
    assert len(cands) == 1
    img = maps.evaluate(g, SiegelPoint(cands[0][0], cands[0][1:]))
    assert abs(img.z - P.z) < 1e-14 and abs(img.w[0] - P.w[0]) < 1e-14
    assert g.fixed_point_set().kind == "origin_infinity"
    start = apply_automorphism(BY, SiegelPoint(1.0, (0.0,)))
    orbit = backward_orbit(g, start, 0.34, 20)
    assert len(orbit.points) == 21
    assert orbit.multiplier_estimate == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("x, alpha", [(maps.ORIGIN2, 2.0), (INFINITY, 0.5)], ids=["zero", "infinity"])
def test_julia_check_runs_the_new_family_on_rows(x, alpha):
    # `evaluate` alone serves a whole batch: the class has no member for rows
    assert [m for m in vars(DoubleZ) if "rows" in m] == []
    for seed in range(3):
        got = julia_bits(julia_inclusion_check, F, x, alpha, n_samples=300, seed=seed)
        assert got[1] == 0
        assert got == julia_bits(ref_julia_inclusion_check, F, x, alpha, n_samples=300, seed=seed)


FAMILIES = [maps.QuadraticSiegel(2.0, 0.5, 1.0), maps.Lifted(maps.HalfPlaneAffine(2.0, 1.0)),
            maps.DiagonalLinear(2.0, (1.0, 0.5j)),
            maps.BallProduct((maps.BlaschkeDeg2(0.5), maps.DiskLinear(0.5), maps.DiskLinear(0.5j))),
            maps.Conjugated(maps.QuadraticSiegel(2.0, 0.5, 1.0), BY), F]


@pytest.mark.parametrize("f", FAMILIES, ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("shift", [-1, 1], ids=["fewer", "more"])
def test_evaluate_refuses_a_point_of_another_dimension(f, shift):
    # `maps.evaluate` checks the dimension once, for every family, before the family's own steps
    p = SiegelPoint(3.0, (0.5j,) * (f.dim + shift - 1))
    for x in (p, SiegelRows.of([p, p])):
        with pytest.raises(DimensionMismatch, match=rf"^{type(f).__name__} dim {f.dim}, point dim {p.dim}$"):
            maps.evaluate(f, x)


@dataclass(frozen=True)
class ShiftZ:
    """(z, w) |-> (z - 1, w), not a self-map.  Its rows fail with one generic error,
    and whenever a row's new defect is below 1e-3, a stricter test than its points'."""

    dim = 2

    def evaluate(self, p: SiegelPoint) -> SiegelPoint:
        if type(p) is SiegelRows:
            if not (p.t - 1.0 >= 1e-3).all():
                raise InvalidPoint("some row left the domain")
            return SiegelRows(p.z - 1.0, p.w)
        return SiegelPoint(p.z - 1.0, p.w)


def test_a_failed_batch_raises_the_first_failing_points_error():
    good, tight = SiegelPoint(3.0, (0.5,)), SiegelPoint(1.2505, (0.5,))  # images' defects 1.75, 5e-4
    first, second = SiegelPoint(1.0 + 2j, (0.5j,)), SiegelPoint(1.5, (0.9,))
    rows = SiegelRows.of([good, tight, first, good, second])
    with pytest.raises(InvalidPoint) as err:
        maps.evaluate(ShiftZ(), rows)
    assert str(err.value) == "defect -0.25 <= 0: not in the Siegel domain"
    # no point fails: the batch's own error stands
    with pytest.raises(InvalidPoint, match="^some row left the domain$"):
        maps.evaluate(ShiftZ(), SiegelRows.of([good, tight]))
    assert maps.evaluate(ShiftZ(), SiegelRows.of([good])).point(0) == SiegelPoint(2.0, (0.5,))
