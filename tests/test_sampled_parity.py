"""The batched sampled checks, bit for bit against per-point references.

`verify`'s sampled sections, `julia_inclusion_check`, `elliptic_growth_constant`
and `dist_ball_rows` run their numpy arithmetic once per batch.  The references
below are the per-point loops they replace: they draw the same variates (one at a
time for `verify`'s metric and isometry sections, as whole columns for its
distance-ratio section and the Julia check) and then compute point by point
(`dist_ball` on each pair); every float is compared by `float.hex` (`verify`
details are 17-significant-digit strings, which tell any two doubles apart).
"""

import itertools
import math
import sys

import numpy as np
import pytest

from siegel_dynamics import cli
from siegel_dynamics import dynamics as dyn
from siegel_dynamics import geometry as geo
from siegel_dynamics import serialize as ser
from siegel_dynamics.geometry import BallPoint, CVector, SiegelPoint, julia_quotient
from siegel_dynamics.maps import BallProduct, DiskLinear, evaluate, evaluate_ball

FIXTURE_DIR = cli.fixture_path("quadpol").parent
MAPS = {name: ser.load_descriptor(str(FIXTURE_DIR / f"{name}.json")) for name in cli.FIXTURES}
ZERO2 = geo.BoundaryPoint(v=CVector((0.0, 0.0)), model="siegel")


# ---------------------------------------------------------------------------
# references: the per-point loops
# ---------------------------------------------------------------------------

ref_dist_ball = geo.dist_ball


def ref_siegel(re, im, log_t, y, scale):
    """The sampled point (10^log_t + ||w||^2 + i y, w) with w = (re + i im) * scale."""
    w = (re + 1j * im) * scale
    return SiegelPoint(10.0 ** float(log_t) + np.sum(np.abs(w) ** 2) + 1j * y, tuple(w))


def ref_julia_inclusion_check(f, x, alpha, n_samples=10000, seed=0):
    rng = np.random.default_rng(seed)
    k = f.dim - 1
    log_t = rng.uniform(-3, 3, n_samples)
    re, im = rng.normal(size=(n_samples, k)), rng.normal(size=(n_samples, k))
    scale = rng.uniform(0, 1, n_samples)
    y = rng.normal(size=n_samples) * 2.0
    violations = 0
    max_ratio = 0.0
    for i in range(n_samples):
        p = ref_siegel(re[i], im[i], log_t[i], y[i], scale[i])
        q_in = julia_quotient(p, x)
        q_out = julia_quotient(evaluate(f, p), x)
        ratio = q_out / (alpha * q_in)
        max_ratio = max(max_ratio, ratio)
        if ratio > 1.0 + 1e-10:
            violations += 1
    return dyn.JuliaReport(n_samples, violations, max_ratio, seed)


def ref_verify_sampled(seed, samples):
    """The first four checks of `cli._verify_checks`."""
    rng = np.random.default_rng(seed)

    def rand_siegel(dim: int) -> geo.SiegelPoint:
        return ref_siegel(rng.normal(size=dim - 1), rng.normal(size=dim - 1),
                          rng.uniform(-2, 2), rng.normal(), 0.5)

    # metric consistency through the Cayley transform
    worst = 0.0
    for _ in range(samples):
        p, q = rand_siegel(2), rand_siegel(2)
        worst = max(worst, abs(geo.dist_siegel(p, q)
                               - ref_dist_ball(geo.siegel_to_ball(p), geo.siegel_to_ball(q))))
    yield "metric_consistency", worst < 1e-12, ser.sig17(worst)

    # automorphism isometry
    auto = geo.SiegelAutomorphism((
        geo.Dilation(2.5),
        geo.Translation(0.7, (0.3 - 0.2j,)),
        geo.Rotation((complex(math.cos(1.0), math.sin(1.0)),),),
        geo.Inversion(),
    ))
    worst = 0.0
    for _ in range(samples):
        p, q = rand_siegel(2), rand_siegel(2)
        d0 = geo.dist_siegel(p, q)
        d1 = geo.dist_siegel(geo.apply_automorphism(auto, p), geo.apply_automorphism(auto, q))
        worst = max(worst, abs(d0 - d1))
    yield "automorphism_isometry", worst < 1e-12, ser.sig17(worst)

    # norm-ratio bound (1-||W||)/(1-||Z||) <= (1+d)/(1-d||Z||)
    # drawn as columns: every pair's dimension, then per dimension those of the
    # Z points and those of the W points (Re w, Im w, log10 t, Im z, scale)
    dims = rng.integers(1, 4, size=samples).tolist()
    columns = {}
    for dim in (1, 2, 3):
        m = dims.count(dim)
        columns[dim] = [(rng.normal(size=(m, dim)), rng.normal(size=(m, dim)), rng.uniform(-2, 2, m),
                         rng.normal(size=m), rng.uniform(0.2, 1.0, m)) for _ in "ZW"]
    violations = 0
    for n, dim in enumerate(dims):
        i = dims[:n].count(dim)  # the row of this pair in its dimension's columns
        zb, wb = (np.array(geo.siegel_to_ball(ref_siegel(re[i], im[i], log_t[i], y[i], 0.5)).v.coords[:dim])
                  * scale[i] for re, im, log_t, y, scale in columns[dim])
        # padded with zero coordinates to dim 3, as verify measures them
        z = geo.BallPoint(geo.CVector(tuple(zb) + (0j,) * (3 - dim)))
        w = geo.BallPoint(geo.CVector(tuple(wb) + (0j,) * (3 - dim)))
        d = ref_dist_ball(z, w)
        lhs = (1.0 - w.v.norm()) / (1.0 - z.v.norm())
        rhs = (1.0 + d) / (1.0 - d * z.v.norm())
        if lhs > rhs * (1.0 + 1e-10):
            violations += 1
    yield "distance_ratio_bound", violations == 0, str(violations)

    # Julia-type inclusions on the quadratic and diagonal fixtures
    quadpol = MAPS["quadpol"]
    diag = MAPS["diaglinear"]
    zero2 = geo.BoundaryPoint(v=geo.CVector((0.0, 0.0)), model="siegel")
    inf_pt = geo.BoundaryPoint(at_infinity=True, model="siegel")
    total_viol = 0
    for f, x, alpha in ((quadpol, zero2, 2.0), (quadpol, inf_pt, 0.5),
                        (diag, zero2, 2.0), (diag, inf_pt, 0.5)):
        rep = ref_julia_inclusion_check(f, x, alpha, n_samples=samples, seed=seed)
        total_viol += rep.violations
    yield "julia_inclusions", total_viol == 0, str(total_viol)


def ref_elliptic_growth_constant(f, r0, n_grid=32, n_angles=64):
    if not 0.0 < r0 < 1.0:
        raise ValueError("r0 must lie in (0, 1)")
    dim = f.dim
    radii = np.linspace(r0, 1.0 - 1.0 / (2 * n_grid), n_grid)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    # direction grid: per-coordinate magnitudes from a simplex-like sweep
    rng = np.random.default_rng(12345)
    n_dirs = n_angles
    mags = np.abs(rng.normal(size=(n_dirs, dim)))
    mags /= np.linalg.norm(mags, axis=1, keepdims=True)
    # coordinate axes are extremal for product maps; sample them exactly
    mags = np.vstack([np.eye(dim), mags])
    n_dirs += dim
    m_vals = []
    c = 0.0
    for r in radii:
        best = 0.0
        for d in range(n_dirs):
            for th in thetas[:: max(1, n_angles // 8)]:
                v = r * mags[d] * np.exp(1j * (th + thetas[: dim]))
                img = evaluate_ball(f, BallPoint(CVector(tuple(v))))
                best = max(best, img.v.norm())
        m_vals.append(best)
        c = max(c, (1.0 - r) / (1.0 - best)) if best < 1.0 else max(c, math.inf)
    flagged = c >= 1.0
    return dyn.EllipticGrowthReport(float(c), flagged, tuple(float(r) for r in radii),
                                    tuple(float(m) for m in m_vals))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def hexes(values):
    return [v.hex() for v in values]


def julia_bits(fn, *args, **kwargs):
    try:
        rep = fn(*args, **kwargs)
    except Exception as err:  # the same exception must come out of both sides
        return "raised", type(err).__name__, str(err)
    return rep.n_samples, rep.violations, float(rep.max_quotient_ratio).hex(), rep.seed


def ball_pair_bits(za, zb, d):
    return (tuple((c.real.hex(), c.imag.hex()) for c in za),
            tuple((c.real.hex(), c.imag.hex()) for c in zb), d.hex())


@pytest.mark.parametrize("seed", range(20))
def test_verify_sampled_checks_match_per_point_loops(seed, monkeypatch):
    # besides the reported details, every ball pair and distance that the metric
    # and ratio-bound sections compute must match (the ratio bound reports a count)
    batched_pairs, ref_pairs = [], []
    rows_kernel, ref_kernel = geo.dist_ball_rows, ref_dist_ball

    def recording_rows(za, zb):
        ds = rows_kernel(za, zb)
        batched_pairs.extend(map(ball_pair_bits, za.tolist(), zb.tolist(), ds))
        return ds

    def recording_ref(a, b):
        d = ref_kernel(a, b)
        ref_pairs.append(ball_pair_bits(a.v.coords, b.v.coords, d))
        return d

    monkeypatch.setattr(geo, "dist_ball_rows", recording_rows)
    monkeypatch.setattr(sys.modules[__name__], "ref_dist_ball", recording_ref)
    for samples in (1, 37, 200):
        batched_pairs.clear()
        ref_pairs.clear()
        batched = list(itertools.islice(cli._verify_checks(FIXTURE_DIR, seed, samples), 4))
        assert batched == list(ref_verify_sampled(seed, samples)), samples
        assert len(ref_pairs) == 2 * samples
        assert sorted(batched_pairs) == sorted(ref_pairs), samples


@pytest.mark.parametrize("name", ["quadpol", "diaglinear", "lifted2z"])
def test_julia_reports_match_per_point_loop(name):
    for x, alpha in ((ZERO2, 2.0), (geo.INFINITY, 0.5)):
        for seed in range(5):
            args = (MAPS[name], x, alpha)
            assert (julia_bits(dyn.julia_inclusion_check, *args, n_samples=300, seed=seed)
                    == julia_bits(ref_julia_inclusion_check, *args, n_samples=300, seed=seed))


# ||f|| is the same at every point of a sphere, so M(r) is the largest rounding
# of it over the whole grid and shows the last bits of every grid vector
ISOTROPIC = BallProduct((DiskLinear(0.6 + 0.3j), DiskLinear(0.3 - 0.6j)))
ISOTROPIC3 = BallProduct((DiskLinear(0.6 + 0.3j), DiskLinear(0.3 - 0.6j), DiskLinear(-0.45j)))
GROWTH_CASES = ([(MAPS["elliptic"], grid) for grid in ((8, 16), (5, 7), (32, 64))]
                + [(f, grid) for f in (ISOTROPIC, ISOTROPIC3) for grid in ((8, 16), (5, 7))])


def test_julia_report_large_batch_matches_per_point_loop():
    # 20 000 complex w: beyond the size at which numpy computes an operator on a
    # temporary array in place
    args = (MAPS["quadpol"], geo.INFINITY, 0.5)
    assert (julia_bits(dyn.julia_inclusion_check, *args, n_samples=20000, seed=8)
            == julia_bits(ref_julia_inclusion_check, *args, n_samples=20000, seed=8))


@pytest.mark.parametrize("r0", [0.3, 0.5, 0.77, 0.95])
def test_growth_reports_match_per_point_loop(r0):
    for f, (n_grid, n_angles) in GROWTH_CASES:
        got = dyn.elliptic_growth_constant(f, r0, n_grid, n_angles)
        want = ref_elliptic_growth_constant(f, r0, n_grid, n_angles)
        assert got.c.hex() == want.c.hex()
        assert got.flagged == want.flagged
        assert hexes(got.radii) == hexes(want.radii)
        assert hexes(got.m_values) == hexes(want.m_values)


def ball_pairs(rng, n, dim):
    """n ball pairs in dim coordinates: a third generic, a third near the sphere,
    a third nearly equal."""
    pairs = []
    for i in range(n):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if i % 3 == 0:
            a *= rng.uniform(0.0, 0.999) / np.linalg.norm(a)
            b *= rng.uniform(0.0, 0.999) / np.linalg.norm(b)
        elif i % 3 == 1:
            a *= (1.0 - 10.0 ** rng.uniform(-12, -2)) / np.linalg.norm(a)
            b = a * (1.0 - 10.0 ** rng.uniform(-6, -1))
        else:
            a *= rng.uniform(0.0, 0.99) / np.linalg.norm(a)
            b = a + b * 10.0 ** rng.uniform(-14, -8)
        pairs.append((BallPoint(CVector(tuple(a))), BallPoint(CVector(tuple(b)))))
    return pairs


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_dist_ball_matches_per_pair_formula(dim):
    pairs = ball_pairs(np.random.default_rng(40 + dim), 600, dim)
    want = [ref_dist_ball(a, b) for a, b in pairs]
    assert sum(d < 1e-6 for d in want) >= 150  # nearly equal pairs are drawn
    rows = geo.dist_ball_rows(np.array([a.v.coords for a, _ in pairs]),
                              np.array([b.v.coords for _, b in pairs]))
    assert hexes(rows) == hexes(want)


@pytest.mark.parametrize("dim", [1, 2])
def test_dist_ball_keeps_its_bits_under_zero_padding(dim):
    # verify measures pairs of dims 1-3 in one call, padded to dim 3
    pairs = ball_pairs(np.random.default_rng(50 + dim), 600, dim)
    pad = (0j,) * (3 - dim)
    padded = [ref_dist_ball(BallPoint(CVector(a.v.coords + pad)), BallPoint(CVector(b.v.coords + pad)))
              for a, b in pairs]
    assert hexes(padded) == hexes(ref_dist_ball(a, b) for a, b in pairs)


def test_dist_ball_rows_large_batch_matches_per_pair_formula():
    # 2 x 9000 complex entries: beyond the size at which numpy reuses a
    # temporary array as the output of an arithmetic operator
    pairs = ball_pairs(np.random.default_rng(44), 9000, 2)
    rows = geo.dist_ball_rows(np.array([a.v.coords for a, _ in pairs]),
                              np.array([b.v.coords for _, b in pairs]))
    assert hexes(rows) == hexes(ref_dist_ball(a, b) for a, b in pairs)


def test_draw_identities_hold():
    """The batched code draws U(lo, hi) as lo + (hi - lo) * random() and N(0, 1)
    as standard_normal(); both reproduce numpy's own stream."""
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for i in range(5000):
        for lo, hi in ((-2, 2), (-3, 3), (0, 1), (0.2, 1.0)):
            assert a.uniform(lo, hi).hex() == (lo + (hi - lo) * b.random()).hex()
        k = 1 + i % 3
        assert hexes(a.normal(size=k).tolist()) == hexes(b.standard_normal() for _ in range(k))
        assert a.normal().hex() == b.standard_normal().hex()


def test_julia_check_calls_numpy_abs_once_per_batch(monkeypatch):
    calls = []
    real_abs = np.abs

    def counting_abs(*args, **kwargs):
        calls.append(1)
        return real_abs(*args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    counts = []
    for n in (50, 500):
        calls.clear()
        dyn.julia_inclusion_check(MAPS["quadpol"], ZERO2, 2.0, n_samples=n, seed=3)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
