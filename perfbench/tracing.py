"""Spans around the package's functions, from wrappers the benchmark installs.

A wrapper goes around each target at every module namespace of the package
that binds it (``dynamics`` and ``conjugation`` import ``geometry`` names
directly), plus ``SiegelPoint.__post_init__`` for point construction.  The
tiny helpers ``sq_norm``, ``herm`` and ``defect`` stay unwrapped, so their cost
lands in their caller's self time.  Spans are kept in memory; ``restore``
puts every original object back.
"""

from __future__ import annotations

import gzip
import importlib
import time
from pathlib import Path
from typing import NamedTuple


def _backward_orbit_shortfall(args, kwargs, result) -> int:
    requested = kwargs["n"] if "n" in kwargs else args[3]
    return requested - (len(result.points) - 1)


def _residual_psi_evals(args, kwargs, result) -> int:
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    return 2 * len(grid)  # psi(eta(Z)) and psi(Z) for each grid point


# (span name, module, attribute, counter of items done by one call)
TARGETS = (
    ("geometry.siegel_point", "geometry", "SiegelPoint.__post_init__", None),
    ("geometry.dist_siegel", "geometry", "dist_siegel", None),
    ("geometry.dist_ball", "geometry", "dist_ball", None),
    ("geometry.apply_automorphism", "geometry", "apply_automorphism", None),
    ("geometry.cayley_to_siegel", "geometry", "cayley_to_siegel", None),
    ("geometry.siegel_to_ball", "geometry", "siegel_to_ball", None),
    ("geometry.julia_quotient", "geometry", "julia_quotient", None),
    ("geometry.koranyi_ratio", "geometry", "koranyi_ratio", None),
    ("maps.evaluate", "maps", "evaluate", None),
    ("maps.evaluate_ball", "maps", "evaluate_ball", None),
    ("maps.preimage_candidates", "maps", "preimage_candidates",
     lambda a, k, r: -1 if r is None else len(r)),
    ("maps.quadratic_iterate_closed", "maps", "quadratic_iterate_closed", None),
    ("dynamics.backward_step", "dynamics", "backward_step", None),
    ("dynamics.backward_orbit", "dynamics", "backward_orbit", _backward_orbit_shortfall),
    ("dynamics.julia_inclusion_check", "dynamics", "julia_inclusion_check", None),
    ("dynamics.multiplier_at_boundary", "dynamics", "multiplier_at_boundary", None),
    ("dynamics.elliptic_growth_constant", "dynamics", "elliptic_growth_constant", None),
    ("dynamics.verify_defect_decay", "dynamics", "verify_defect_decay", None),
    ("dynamics.orbit_asymptotics", "dynamics", "orbit_asymptotics", None),
    ("conjugation.run_conjugation", "conjugation", "run_conjugation", None),
    ("conjugation.conjugation_residual", "conjugation", "conjugation_residual",
     _residual_psi_evals),
    ("conjugation.psi_approx", "conjugation", "psi_approx", lambda a, k, r: len(r)),
    ("conjugation.psi_interpolation_check", "conjugation", "psi_interpolation_check",
     lambda a, k, r: len(r.errors)),
    ("conjugation.build_tau", "conjugation", "build_tau", None),
    ("conjugation.recenter_orbit_at_zero", "conjugation", "recenter_orbit_at_zero", None),
    ("serialize.dumps_canonical", "serialize", "dumps_canonical",
     lambda a, k, r: len(r.encode("utf-8"))),
    ("serialize.load_descriptor", "serialize", "load_descriptor", None),
    ("serialize.siegel_point_to_json", "serialize", "siegel_point_to_json", None),
    ("cli.main", "cli", "main", None),  # its self time holds the command bodies
)
PACKAGE = "siegel_dynamics"
MODULES = ("", ".geometry", ".maps", ".dynamics", ".conjugation", ".serialize", ".cli")
LAYERS = ("geometry", "maps", "dynamics", "conjugation", "serialize", "cli")
STEP_ERRORS = ("NoBackwardStep", "InvalidPoint", "SolverFailure")
PSI_SPANS = ("conjugation.conjugation_residual", "conjugation.psi_approx",
             "conjugation.psi_interpolation_check")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    job: object        # job index in the run, or a probe row label
    error: str | None  # exception type the call ended with
    items: int         # target-specific count (see TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.job: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                t1 = clock()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.job, type(err).__name__, 0)
                raise
            t1 = clock()
            stack.pop()
            items = count(args, kwargs, result) if count else 0
            spans[idx] = Span(name, t0, t1, parent, self.job, None, items)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE + m) for m in MODULES]
        for name, module, attr, count in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\terror\titems\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.job}\t"
                         f"{s.error or ''}\t{s.items}\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        for name, *_ in TARGETS:
            if name.startswith(layer + "."):
                out.append((f"{name}.calls", "count", "lower"))
                if name != "cli.main":  # cli.self_s already
                    out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("geometry.dist_siegel.ball_fallbacks", "count", "lower"),
        ("geometry.dist_siegel.fallback_ratio", "ratio", "lower"),
        ("geometry.invalid_point", "count", "lower"),
        ("maps.preimage_candidates.returned", "count", "lower"),
        ("dynamics.backward_step.failures", "count", "lower"),
    ]
    out += [(f"dynamics.backward_step.failures.{e}", "count", "lower") for e in STEP_ERRORS]
    out += [
        ("dynamics.step_success_ratio", "ratio", "higher"),
        ("dynamics.candidate_use_ratio", "ratio", "higher"),
        ("dynamics.newton_fallbacks", "count", "lower"),
        ("dynamics.backward_orbit.truncated", "count", "lower"),
        ("conjugation.evaluates_per_psi", "ratio", "lower"),
        ("serialize.bytes", "B", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], keep) -> dict[str, float]:
    """Per-layer metrics over the spans whose job satisfies `keep`."""
    n = len(spans)
    child_time = [0.0] * n
    in_conj = [False] * n
    fallback_parents: set[int] = set()
    invalid_parents: set[int] = set()
    for i, s in enumerate(spans):
        p = s.parent
        in_conj[i] = s.name.startswith("conjugation.") or (p >= 0 and in_conj[p])
        if p < 0:
            continue
        child_time[p] += s.end - s.start
        if s.name == "geometry.siegel_to_ball" and spans[p].name == "geometry.dist_siegel":
            fallback_parents.add(p)
        if s.error == "InvalidPoint":
            invalid_parents.add(p)

    m: dict[str, float] = {name: 0.0 for name, _, _ in catalog()}
    psi_evals = conj_evaluates = 0
    for i, s in enumerate(spans):
        if not keep(s.job):
            continue
        self_s = (s.end - s.start) - child_time[i]
        layer = s.name.split(".")[0]
        m[f"{layer}.self_s"] += self_s
        if f"{s.name}.calls" in m:
            m[f"{s.name}.calls"] += 1
        if f"{s.name}.self_s" in m:
            m[f"{s.name}.self_s"] += self_s
        if s.error == "InvalidPoint" and i not in invalid_parents:
            m["geometry.invalid_point"] += 1
        if s.name == "geometry.dist_siegel" and i in fallback_parents:
            m["geometry.dist_siegel.ball_fallbacks"] += 1
        elif s.name == "maps.preimage_candidates":
            if s.items < 0:
                m["dynamics.newton_fallbacks"] += 1
            else:
                m["maps.preimage_candidates.returned"] += s.items
        elif s.name == "maps.evaluate":
            outermost = s.parent < 0 or spans[s.parent].name != "maps.evaluate"
            conj_evaluates += outermost and in_conj[i]
        elif s.name == "dynamics.backward_step" and s.error:
            m["dynamics.backward_step.failures"] += 1
            key = f"dynamics.backward_step.failures.{s.error}"
            if key in m:
                m[key] += 1
        elif s.name == "dynamics.backward_orbit" and s.items > 0:
            m["dynamics.backward_orbit.truncated"] += 1
        elif s.name in PSI_SPANS:
            psi_evals += s.items
        elif s.name == "serialize.dumps_canonical":
            m["serialize.bytes"] += s.items

    steps = m["dynamics.backward_step.calls"] - m["dynamics.backward_step.failures"]
    m["geometry.dist_siegel.fallback_ratio"] = _ratio(
        m["geometry.dist_siegel.ball_fallbacks"], m["geometry.dist_siegel.calls"])
    m["dynamics.step_success_ratio"] = _ratio(steps, m["dynamics.backward_step.calls"])
    m["dynamics.candidate_use_ratio"] = _ratio(steps, m["maps.preimage_candidates.returned"])
    m["conjugation.evaluates_per_psi"] = _ratio(conj_evaluates, psi_evals)
    return m
