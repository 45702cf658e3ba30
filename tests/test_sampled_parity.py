"""The batched sampled checks, bit for bit against per-point references.

`verify`'s sampled sections, `julia_inclusion_check`, `elliptic_growth_constant`
and `dist_ball_rows` run their numpy arithmetic once per batch.  The references
below are the per-point loops they replace: they draw the same variates (one at a
time for `verify`'s metric and isometry sections, as whole columns for its
distance-ratio section and the Julia check) and then compute point by point
(`dist_ball` on each pair); every float is compared by `float.hex` (`verify`
details are 17-significant-digit strings, which tell any two doubles apart).
`multiplier_at_boundary`'s radial samples, `verify`'s orbit exactness,
`orbit_asymptotics`, the orbit recentering and the interpolation distances are
batches too; their references are the per-sample loops they replaced, and the
stubs check that a batch stops where its loop stopped: at a divergent ratio or
a failed distance before a later sample's error, or at the first failing
sample, with that sample's own error.
"""

import itertools
import math
import sys
import warnings

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
    for samples in (1, 2, 3, 37, 200):  # at 2 and 3, some dimension of the ratio bound has one pair or none
        batched_pairs.clear()
        ref_pairs.clear()
        batched = list(itertools.islice(cli._verify_checks(FIXTURE_DIR, seed, samples), 4))
        assert batched == list(ref_verify_sampled(seed, samples)), samples
        assert len(ref_pairs) == 2 * samples
        assert sorted(batched_pairs) == sorted(ref_pairs), samples


def test_verify_builds_one_batch_per_sampled_section(monkeypatch):
    # metric, isometry, ratio bound and one Julia draw for the two dim-2 maps: a
    # _siegel_samples each; siegel_to_ball_rows once in the metric and ratio sections
    counts = {"_siegel_samples": 0, "siegel_to_ball_rows": 0}
    for module, name in ((dyn, "_siegel_samples"), (geo, "siegel_to_ball_rows")):
        def counting(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    assert all(ok for _, ok, _ in cli._verify_checks(FIXTURE_DIR, 7, 200))
    assert counts == {"_siegel_samples": 4, "siegel_to_ball_rows": 2}


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
    as standard_normal(), k of them at once by standard_normal(out=buf) into a
    buffer of length k; all reproduce numpy's own stream."""
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    buf = np.empty(3)
    for i in range(5000):
        for lo, hi in ((-2, 2), (-3, 3), (0, 1), (0.2, 1.0)):
            assert a.uniform(lo, hi).hex() == (lo + (hi - lo) * b.random()).hex()
        k = 1 + i % 3
        assert hexes(a.normal(size=k).tolist()) == hexes(b.standard_normal() for _ in range(k))
        assert a.normal().hex() == b.standard_normal().hex()
        b.standard_normal(out=buf[:k])
        assert hexes(buf[:k].tolist()) == hexes(a.normal() for _ in range(k))
    assert a.bit_generator.state == b.bit_generator.state


def ref_pair_samples(rng, samples):
    """`samples` pairs of dim-2 points, each drawn by scalar calls (Re w, Im w, log10 t, Im z), as
    `verify`'s metric and isometry sections drew them point by point; the first points, then the second."""
    points = [ref_siegel(rng.normal(size=1), rng.normal(size=1), rng.uniform(-2, 2), rng.normal(), 0.5)
              for _ in range(2 * samples)]
    return points[0::2] + points[1::2]


@pytest.mark.parametrize("samples", [1, 2, 3, 200, 2000])
def test_pair_samples_keep_the_per_scalar_stream(samples):
    # the values, and the generator's state after them: the ratio-bound draws that follow keep their stream
    for seed in (0, 7, 13, 2041, 911):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows, want = dyn._pair_samples(a, samples), ref_pair_samples(b, samples)
        got = [rows.point(i) for i in range(len(rows.t))]
        assert [(hexes([p.z.real, p.z.imag]), hexes([p.w[0].real, p.w[0].imag])) for p in got] == \
            [(hexes([p.z.real, p.z.imag]), hexes([p.w[0].real, p.w[0].imag])) for p in want]
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random().hex() == b.random().hex()


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


# ---------------------------------------------------------------------------
# per-sample loops of the checks job: the multiplier's radial samples, the
# orbit's exactness, its asymptotics, and the orbit maps of the conjugation
# ---------------------------------------------------------------------------

def ref_multiplier_at_boundary(f, q):
    """The per-sample loop: one point, one evaluate and one gap per sample, in order."""
    decay = 0.5
    qb = geo.boundary_ball_coords(q, f.dim)
    nq = math.sqrt(geo.sq_norm(qb))
    ratios = []
    for k in range(1, 41):
        s = decay ** k
        c = geo._siegel_coords(tuple((1.0 - s) * x for x in qb))
        fp = evaluate(f, SiegelPoint(c[0], c[1:]))
        ratios.append(geo.boundary_gap(fp) / (s * nq + (1.0 - nq)))
        if not math.isfinite(ratios[-1]) or ratios[-1] > 1e9:
            return math.inf
    r0, r1 = ratios[24:26]
    return (r1 - decay * r0) / (1.0 - decay)


def outcome(fn, *args):
    """A float's bits, a tuple's, a bool, or the exception that came out."""
    try:
        value = fn(*args)
    except Exception as err:  # the same exception must come out of both sides
        return "raised", type(err).__name__, str(err)
    return value.hex() if isinstance(value, float) else value


INFINITY2 = geo.INFINITY
REPELLING = {name: INFINITY2 if name == "elliptic" else ZERO2 for name in cli.FIXTURES}


@pytest.mark.parametrize("name", cli.FIXTURES)
def test_fixture_multipliers_match_per_sample_loop(name):
    f = MAPS[name]
    for q in (ZERO2, INFINITY2):
        assert outcome(dyn.multiplier_at_boundary, f, q) == outcome(ref_multiplier_at_boundary, f, q)
    known = {"quadpol": "0x1.0000000000001p+1", "lifted2z": "0x1.0000000000001p+1",
             "diaglinear": "0x1.0000000000001p+1", "elliptic": "0x1.5555554000000p+0"}
    assert dyn.multiplier_at_boundary(f, REPELLING[name]).hex() == known[name]


def sweep_cases(rng, n):
    """(map, q) pairs: every family (and `Conjugated` layers on them) in dimensions 1 to 4,
    at 0, at infinity, at finite Siegel boundary points and at the Siegel images of ball
    directions."""
    from siegel_dynamics import maps as mp

    def rc(s):
        return complex(rng.normal(0, s), rng.normal(0, s))

    def family(dim):
        kind = rng.integers(5) if dim == 2 else rng.choice([2, 3, 4])
        if kind == 0:
            return mp.QuadraticSiegel(10 ** rng.uniform(-1, 1.5), rc(0.5), rc(0.7))
        if kind == 1:
            c = 10 ** rng.uniform(0, 1)
            return mp.Lifted(mp.HalfPlaneAffine(c, rng.normal()) if rng.random() < 0.5 else mp.HalfPlaneLinear(c))
        if kind == 2:
            a = 10 ** rng.uniform(-1, 1.2)
            return mp.DiagonalLinear(a, tuple(math.sqrt(a) * rng.random() * np.exp(1j * rng.uniform(0, 6))
                                              for _ in range(dim - 1)))
        if kind == 3:
            return BallProduct((mp.BlaschkeDeg2(rng.uniform(0.05, 0.95)),)
                               + tuple(DiskLinear(0.9 * rng.random() * np.exp(1j * rng.uniform(0, 6)))
                                       for _ in range(dim - 1)))
        chain = [(geo.Inversion(),), (geo.Translation(rng.normal(), tuple(rc(0.3) for _ in range(dim - 1))),),
                 (geo.Dilation(10 ** rng.uniform(-1, 1)), geo.Inversion())][rng.integers(3)]
        return mp.Conjugated(family(dim), geo.SiegelAutomorphism(chain))

    def point(dim):
        kind = rng.integers(4)
        if kind == 0:
            return geo.BoundaryPoint(v=CVector((0.0,) * dim), model="siegel")
        if kind == 1:
            return INFINITY2
        if kind == 2:
            w = tuple(rc(rng.choice([0.01, 0.3, 2.0])) for _ in range(dim - 1))
            return geo.BoundaryPoint(v=CVector((1j * rng.normal() + geo.sq_norm(w),) + w), model="siegel")
        v = [rc(1.0) for _ in range(dim)]
        r = math.sqrt(geo.sq_norm(v)) * (1.0 - rng.choice([0.0, 9e-13, -9e-13]))
        # the Siegel image of a ball point within the boundary tolerance, put on Re z = ||w||^2
        z, *w = geo._siegel_coords(tuple(c / r for c in v))
        return geo.BoundaryPoint(v=CVector((complex(geo.sq_norm(w), z.imag), *w)))

    for _ in range(n):
        dim = int(rng.choice([1, 2, 2, 2, 3, 4]))
        yield family(dim), point(dim)


def test_multiplier_sweep_matches_per_sample_loop():
    results = []
    for f, q in sweep_cases(np.random.default_rng(2023), 300):
        got = outcome(dyn.multiplier_at_boundary, f, q)
        assert got == outcome(ref_multiplier_at_boundary, f, q), (f, q)
        results.append(got)
    infinite = results.count(math.inf.hex())
    raised = sum(isinstance(r, tuple) for r in results)
    assert infinite >= 30 and raised >= 5 and len(results) - infinite - raised >= 100


def test_a_sample_whose_image_overflows_abs_raises_as_the_loop_did():
    # f(Z) = 1.2e308 Z at the first sample toward (2i) is finite, but |z + 1| is beyond the double
    # range: CPython's abs raised OverflowError in the loop, where the rows' np.hypot gives inf
    from siegel_dynamics.maps import DiagonalLinear

    q = geo.BoundaryPoint(v=CVector((2j,)), model="siegel")
    with np.errstate(all="ignore"):
        got = outcome(dyn.multiplier_at_boundary, DiagonalLinear(1.2e308), q)
    assert got == outcome(ref_multiplier_at_boundary, DiagonalLinear(1.2e308), q)
    assert got == ("raised", "OverflowError", "absolute value too large")


def test_a_batch_that_overflows_raises_without_numpy_warnings():
    # the same overflow in dimension 2: the rows' multiply and hypot overflow, and the batch
    # runs under np.errstate(all="ignore"), so with warnings as errors only the loop's error comes out
    from siegel_dynamics.maps import DiagonalLinear

    q = geo.BoundaryPoint(v=CVector((2j, 0j)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="absolute value too large"):
            dyn.multiplier_at_boundary(DiagonalLinear(1.2e308, (1,)), q)


class RadialStub:
    """The identity on H^2, except that a point with Re z >= big goes to (1, 0) (the ratio at
    the sample is then about 1/s) and one with Re z >= fail raises a ValueError naming it.
    Rows that hold a failing point raise a ValueError of their own, which `evaluate`'s replay
    must turn into the first failing point's."""

    dim = 2

    def __init__(self, big: float, fail: float):
        self.big, self.fail = big, fail

    def evaluate(self, p):
        if type(p) is geo.SiegelRows:
            if (p.z.real >= self.fail).any():
                raise ValueError("a batch with a failing row")
            deep = p.z.real >= self.big
            z = geo.ComplexRows(np.where(deep, 1.0, p.z.real), np.where(deep, 0.0, p.z.imag))
            return geo.SiegelRows(z, (geo.ComplexRows(np.where(deep, 0.0, p.w[0].real),
                                                      np.where(deep, 0.0, p.w[0].imag)),))
        if p.z.real >= self.fail:
            raise ValueError(f"sample at Re z = {p.z.real!r}")
        return SiegelPoint(1.0, (0j,)) if p.z.real >= self.big else p


@pytest.mark.parametrize("big, fail, expected", [
    (2.0 ** 29, 2.0 ** 34, math.inf.hex()),  # ratio 2^30 > 1e9 at k = 30, a raise from k = 34
    (2.0 ** 29, 2.0 ** 20, ("raised", "ValueError", "sample at Re z = 2097151.0")),  # k = 20 first
    (2.0 ** 29, 2.0 ** 29, ("raised", "ValueError", "sample at Re z = 1073741823.0")),  # ratio 2^29 before
    (2.0 ** 50, 2.0 ** 50, (1.0).hex()),  # neither is reached: the identity's multiplier 1
])
def test_a_divergent_ratio_wins_over_a_later_samples_error(big, fail, expected):
    # at infinity the sample k is (2^(k+1) - 1, 0)
    f = RadialStub(big, fail)
    got = outcome(dyn.multiplier_at_boundary, f, INFINITY2)
    assert got == outcome(ref_multiplier_at_boundary, f, INFINITY2) == expected


def ref_asymptotics(orbit, recenter):
    """The per-point loop of `orbit_asymptotics`: the four ratio tuples and `special`."""
    pts = [geo.apply_automorphism(recenter, p) for p in orbit.points]
    t = [geo.defect(p) for p in pts]
    return (tuple(p.z.real / tk for p, tk in zip(pts, t)), tuple(p.z.imag / tk for p, tk in zip(pts, t)),
            tuple(geo.sq_norm(p.w) / tk for p, tk in zip(pts, t)),
            tuple(t[k] / t[k + 1] for k in range(len(t) - 1)), geo.sq_norm(pts[-1].w) / pts[-1].z.real < 1e-6)


def asymptotics_bits(orbit, recenter):
    rep = dyn.orbit_asymptotics(orbit, recenter)
    return [hexes(r) for r in (rep.re_ratio, rep.im_ratio, rep.w_ratio, rep.t_ratio)], rep.special


def test_asymptotics_match_per_point_loop_in_each_chart():
    from siegel_dynamics.maps import DiagonalLinear, HalfPlaneLinear, Lifted

    quadpol, elliptic = MAPS["quadpol"], MAPS["elliptic"]
    lifted = Lifted(HalfPlaneLinear(2.0))
    curve = geo.recentering_translation(geo.BoundaryPoint(v=CVector((0.64, 0.8j)), model="siegel"))
    cases = [
        (dyn.backward_orbit(quadpol, SiegelPoint(1.0, (0.0,)), 0.34, 40), geo.SiegelAutomorphism()),
        (dyn.backward_orbit(quadpol, geo.apply_automorphism(geo.invert_automorphism(curve), SiegelPoint(1.0, (0j,))),
                            0.34, 40), curve),
        (dyn.backward_orbit(DiagonalLinear(2.0), SiegelPoint(3.0 + 1j), 0.5, 40), geo.SiegelAutomorphism()),
        (dyn.backward_orbit(elliptic, SiegelPoint(3.5 + 0.5j, (0j,)), 0.34, 40),
         geo.SiegelAutomorphism((geo.Inversion(),))),
    ]
    lifted_orbit = dyn.backward_orbit(lifted, SiegelPoint(2.0, (1.0,)), 0.34, 40)
    near_curve = dyn.backward_orbit(quadpol, SiegelPoint(1.0, (0.1j,)), 0.34, 40)  # w = 0.1i throughout
    cases += [(lifted_orbit, geo.recentering_translation(lifted_orbit.limit)),
              (near_curve, geo.SiegelAutomorphism()), (near_curve, geo.recentering_translation(near_curve.limit))]
    for orbit, chart in cases:
        rep = ref_asymptotics(orbit, chart)
        assert asymptotics_bits(orbit, chart) == ([hexes(r) for r in rep[:4]], rep[4])


def test_asymptotics_raise_what_the_first_failing_point_raises():
    # Dilation(1e-303) sends a defect above about 1.8e5 beyond the double range
    orbit = dyn.backward_orbit(MAPS["elliptic"], SiegelPoint(5.0, (0j,)), 0.34, 40)
    chart = geo.SiegelAutomorphism((geo.Dilation(1e-303),))
    ref = outcome(lambda: ref_asymptotics(orbit, chart))
    assert ref[:2] == ("raised", "InvalidPoint")
    assert outcome(lambda: asymptotics_bits(orbit, chart)) == ref


def point_bits(p):
    return tuple((c.real.hex(), c.imag.hex()) for c in p.coords) + (p.t.hex(),)


@pytest.mark.parametrize("start", [(5.0, 0j), (2.0, 0j), (3.5 + 0.5j, 0j), (20.0, 0j), (5.0, 0.05)])
def test_recentering_maps_the_orbit_with_the_per_point_bits(start):
    from siegel_dynamics.conjugation import recenter_orbit_at_zero

    f = MAPS["elliptic"]
    orbit = dyn.backward_orbit(f, SiegelPoint(start[0], start[1:]), 0.34, 40)
    _, moved, chart = recenter_orbit_at_zero(f, orbit)
    assert chart.chain  # the Inversion chart: the orbit runs to infinity
    ref = [geo.apply_automorphism(chart, p) for p in orbit.points]
    assert [point_bits(p) for p in moved.points] == [point_bits(p) for p in ref]
    assert hexes(moved.defects) == hexes(p.t for p in ref)


@pytest.mark.parametrize("name, k_max", [("quadpol", None), ("lifted2z", 6), ("diaglinear", 0), ("elliptic", None)])
def test_interpolation_errors_match_per_point_distances(name, k_max):
    from siegel_dynamics.conjugation import psi_approx, psi_interpolation_check, recenter_orbit_at_zero

    f = MAPS[name]
    g, orbit, _ = recenter_orbit_at_zero(f, dyn.backward_orbit(f, SiegelPoint(5.0, (0j,)), 0.34, 40))
    alpha, n = 2.0 if name != "elliptic" else 4.0 / 3.0, 12
    k = min(n // 2 if k_max is None else k_max, len(orbit.points) - 1)
    a = [SiegelPoint(alpha ** (-j), (0.0,)) for j in range(k + 1)]
    ref = [geo.dist_siegel(v, orbit.points[j]) for j, (_, v) in enumerate(psi_approx(g, orbit, n, a))]
    assert hexes(psi_interpolation_check(g, orbit, n, alpha, k_max).errors) == hexes(ref)


def exactness(monkeypatch, evaluate_stub):
    """The `backward_exactness` outcome of `verify`, and that of the per-point loop it
    replaced, with `maps.evaluate` (as `cli` calls it) replaced by evaluate_stub."""
    from siegel_dynamics import maps as mp
    from siegel_dynamics.policy import DEFAULT_POLICY

    orbit = dyn.backward_orbit(MAPS["quadpol"], SiegelPoint(1.0, (0.0,)), 0.34, 40)
    monkeypatch.setattr(mp, "evaluate", evaluate_stub)

    def batch():
        for name, ok, _ in cli._verify_checks(FIXTURE_DIR, 0, 5):
            if name == "backward_exactness":
                return ok

    def loop():
        return all(geo.dist_siegel(mp.evaluate(MAPS["quadpol"], orbit.points[k + 1]), orbit.points[k])
                   < DEFAULT_POLICY.orbit_tol for k in range(len(orbit.points) - 1))

    return outcome(batch), outcome(loop)


@pytest.mark.parametrize("off, fail, expected", [
    (3, 10, False),  # f(Z_4) is off before Z_11 raises: False
    (10, 3, ("raised", "ValueError", "point 3")),  # the raise comes first
    (None, None, True),
    (None, 40, ("raised", "ValueError", "point 40")),  # the last point raises
    (39, None, False),  # the last distance fails
])
def test_exactness_stops_where_the_per_point_loop_stopped(monkeypatch, off, fail, expected):
    from siegel_dynamics import maps as mp

    real = mp.evaluate
    points = dyn.backward_orbit(MAPS["quadpol"], SiegelPoint(1.0, (0.0,)), 0.34, 40).points

    def stub(f, p):
        if type(p) is geo.SiegelRows:  # row by row, in order: a failing row raises its point's error
            return geo.SiegelRows.of([stub(f, p.point(i)) for i in range(len(p.t))])
        k = points.index(p)
        if k == fail:
            raise ValueError(f"point {k}")
        q = real(f, p)
        return SiegelPoint(q.z + 1e-6, q.w) if off is not None and k == off + 1 else q  # d_off fails

    batch, loop = exactness(monkeypatch, stub)
    assert batch == loop == expected
