"""Benchmark of siegel-dynamics: one closed-loop client, one workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload checks --seed 1 --seconds 30 --trace 0

Workloads are `checks`, `conjugate` and `deep_orbit` (see perfbench/README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
a prefix of the same jobs untraced and then traced, reports per-layer metrics
and the tracing overhead, reproduces the ROADMAP baseline table, and writes
the spans under .perfbench_out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Jobs whose output
misses a check with the signature of a known defect of the package are not
counted in "failed" but lower `success_share`; any other miss is a failure
and makes the run incorrect.
"""

from __future__ import annotations

import os

# one BLAS thread for this process and the set-up interpreters it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import probe, tracing, workloads  # noqa: E402
from perfbench.calibration import reference_seconds  # noqa: E402

SETUP_INTERPRETERS = 11
SETUP_CODE = (
    "import siegel_dynamics\n"
    "from siegel_dynamics import cli, serialize\n"
    "for name in cli.FIXTURES:\n"
    "    serialize.load_descriptor(str(cli.fixture_path(name)))\n"
    "from perfbench.calibration import kernel_seconds\n"
    "print(*(kernel_seconds() for _ in range(3)))\n"
)
TAIL_BEYOND = 10
TRACE_SHARE = 0.25  # share of --seconds spent on the untraced pass of a traced run
OUT_DIR = ".perfbench_out"

# name of each generic end-to-end metric on each workload, and its unit scale
WORKLOAD_NAMES = {
    "checks": ("checks_p50_s", "checks_tail_s", "samples_per_s", "s", 1.0),
    "conjugate": ("conjugate_p50_s", "conjugate_tail_s", "psi_evals_per_s", "s", 1.0),
    "deep_orbit": ("step_p50_us", "step_tail_us", "steps_per_s", "us", 1e6),
}


def tail(values: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples beyond it, and its percentile; never
    below the median when there are fewer samples."""
    xs = sorted(values)
    idx = max(len(xs) - TAIL_BEYOND - 1, (len(xs) - 1) // 2)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def measure_setup(root: Path) -> list[float]:
    """Set-up time of fresh interpreters that import the package and load the
    four fixtures, at the reference speed: each then runs the calibration
    kernel three times, whose time is taken out of its wall time and whose
    median gives the speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    times = []
    for _ in range(SETUP_INTERPRETERS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              check=True, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        kernels = [float(x) for x in proc.stdout.split()]
        k = statistics.median(kernels)
        times.append(reference_seconds(wall - sum(kernels), k, k))
    return times


def summarize(workload: str, outcomes: list[workloads.Outcome], seconds: list[float]) -> dict:
    """End-to-end figures of one run under the workload's own names, from
    per-job times `seconds` (raw or at the reference speed)."""
    p50_name, tail_name, rate_name, unit, scale = WORKLOAD_NAMES[workload]
    if workload == "deep_orbit":  # per step, over successful orbits
        per_op = [t / o.steps for o, t in zip(outcomes, seconds) if o.cause is None and o.steps]
    else:
        per_op = list(seconds)
    busy = sum(seconds)
    tail_value, tail_pct = tail(per_op)
    return {
        "busy_s": busy,
        "samples": len(per_op),
        p50_name: (statistics.median(per_op) * scale, unit),
        tail_name: (tail_value * scale, unit, tail_pct),
        rate_name: (sum(o.work for o in outcomes if o.cause is None) / busy, "1/s"),
    }


def print_summary(workload: str, summary: dict, label: str) -> None:
    p50_name, tail_name, rate_name, _, _ = WORKLOAD_NAMES[workload]
    n = summary["samples"]
    value, unit = summary[p50_name]
    print(f"{p50_name} = {value:.6g} {unit}  (n = {n}, {label})")
    value, unit, pct = summary[tail_name]
    print(f"{tail_name} = {value:.6g} {unit}  (p{pct:.1f}, n = {n}, {TAIL_BEYOND} beyond, {label})")
    value, unit = summary[rate_name]
    print(f"{rate_name} = {value:.6g} {unit}  ({label})")


def tally(outcomes: list[workloads.Outcome]) -> tuple[Counter, Counter]:
    """Missed checks by cause: (known defects, failures)."""
    by_cause = Counter(o.cause for o in outcomes if o.cause is not None)
    defects = Counter({c: n for c, n in by_cause.items() if c in workloads.KNOWN_DEFECTS})
    return defects, by_cause - defects


def print_outcomes(outcomes: list[workloads.Outcome]) -> int:
    """Print attempted, known-defect and failed counts by cause; return the
    number of failed jobs."""
    defects, failures = tally(outcomes)
    missed, failed = sum(defects.values()), sum(failures.values())
    print(f"attempted = {len(outcomes)}  known_defect = {missed}  failed = {failed}  "
          f"failed_share = {(missed + failed) / len(outcomes):.6g} ratio  "
          f"(known defects included)")
    for cause, count in sorted(defects.items()):
        print(f"  known defect {cause} = {count}  ({workloads.KNOWN_DEFECTS[cause]})")
    for cause, count in sorted(failures.items()):
        print(f"  failure {cause} = {count}  (NOT A KNOWN DEFECT)")
    return failed


def environment() -> str:
    import numpy
    return (f"machine={platform.machine()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def run_untraced(lib, args, root: Path) -> dict:
    setup = measure_setup(root)
    workloads.run_job(lib, workloads.WARMUP[args.workload])
    outcomes = workloads.run_for(lib, workloads.rounds(args.workload, args.seed), args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = summarize(args.workload, outcomes, [o.seconds for o in outcomes])
    ref = summarize(args.workload, outcomes, [o.ref_seconds for o in outcomes])

    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} jobs, "
          f"busy {raw['busy_s']:.3f} s, closed loop, 1 client")
    failed = print_outcomes(outcomes)
    missed = sum(1 for o in outcomes if o.cause is not None)
    print_summary(args.workload, raw, "raw wall time")
    print_summary(args.workload, ref, "at reference speed")
    setup_s = statistics.median(setup)
    print(f"setup_s = {setup_s:.6g} s  (median of {len(setup)} fresh interpreters, "
          f"at reference speed)")
    print(f"peak_rss_mb = {rss_mb:.6g} MB")

    p50_name, tail_name, rate_name, _, _ = WORKLOAD_NAMES[args.workload]
    to_ms = 1e3 if args.workload != "deep_orbit" else 1e-3
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_share": ((len(outcomes) - missed) / len(outcomes), "ratio"),
        "op_p50_ms": (ref[p50_name][0] * to_ms, "ms"),
        "op_tail_ms": (ref[tail_name][0] * to_ms, "ms"),
        "work_per_s": (ref[rate_name][0], "1/s"),
    }
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_traced(lib, args, root: Path) -> dict:
    workloads.run_job(lib, workloads.WARMUP[args.workload])
    plain = workloads.run_for(lib, workloads.rounds(args.workload, args.seed),
                              args.seconds * TRACE_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for i, outcome in enumerate(plain):
            tracer.job = i
            traced.append(workloads.run_job(lib, outcome.job))
        tracer.job = None
        probe.run_rows(lib, tracer)
    finally:
        tracer.restore()

    untraced_s = sum(o.ref_seconds for o in plain)
    traced_s = sum(o.ref_seconds for o in traced)
    metrics = tracing.layer_metrics(tracer.spans, lambda job: isinstance(job, int))
    metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s})

    print(f"workload {args.workload} seed {args.seed}, traced: {len(traced)} jobs, "
          f"{len(tracer.spans)} spans")
    failed = print_outcomes(traced)
    print(f"tracing overhead = {traced_s - untraced_s:.6g} s at reference speed  "
          f"(traced {traced_s:.6g} s - untraced {untraced_s:.6g} s on the same jobs)")
    units = {name: unit for name, unit, _ in tracing.catalog()}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print("ROADMAP baseline, traced per-call inclusive wall time:")
    for row, roadmap, per_call, calls, flag in probe.table(tracer.spans):
        ref = f"{roadmap:.3g} s" if roadmap is not None else "-"
        print(f"  {row:36s} roadmap {ref:>9s}  traced {per_call:.3g} s  "
              f"(calls {calls})  {flag}")
    out = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(out)
    print(f"spans written to {out.relative_to(root)}")

    return {"correct": failed == 0, "attempted": len(traced), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "siegel_dynamics" / "__init__.py").is_file():
        print(f"error: no siegel_dynamics sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import siegel_dynamics
    if Path(siegel_dynamics.__file__).resolve().parent != (src / "siegel_dynamics").resolve():
        print(f"error: imported siegel_dynamics from {siegel_dynamics.__file__}", file=sys.stderr)
        return 2

    print(environment())
    lib = workloads.Library(src)
    result = run_traced(lib, args, root) if args.trace else run_untraced(lib, args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
