"""Busy time of a benchmark workload's jobs by class, at the reference speed.

    PYTHONPATH=src python3 tools/job_times.py --workload deep_orbit [--seed 7] [--rounds 40]

It runs the first ``--rounds`` rounds of the workload's seed through
``perfbench.workloads.run_job``, after the workload's warm-up job, as
``perfbench/run.py`` does, and groups the jobs by class: fixture, start family
and n on ``deep_orbit``, the fixture on ``conjugate`` (``checks`` jobs have
none, so they form one class).  Per class it prints the jobs, their causes
(``ok`` for a job that passed every check), the steps taken (``deep_orbit``)
or the work done (the others; work counts only jobs that pass), the busy time
in ms at the reference speed of ``perfbench/calibration.py``, and its share of
the total.  Busy time counts every job, also those that missed a check, as
``work_per_s`` does.  The library is whatever ``siegel_dynamics`` the
``PYTHONPATH`` names; ``perfbench`` comes from this script's own checkout.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench only; the library comes from PYTHONPATH

from perfbench import workloads  # noqa: E402


def job_class(job: workloads.Job) -> tuple:
    """(fixture, start family, n) on deep_orbit, (fixture,) otherwise."""
    if job.workload == "deep_orbit":
        return job.fixture, job.family, job.n
    return (job.fixture or job.workload,)


def run(workload: str, seed: int, rounds: int) -> list[workloads.Outcome]:
    """The outcomes of the first `rounds` rounds of the workload's seed."""
    import siegel_dynamics

    lib = workloads.Library(Path(siegel_dynamics.__file__).resolve().parents[1])
    workloads.run_job(lib, workloads.WARMUP[workload])
    batches = itertools.islice(workloads.rounds(workload, seed), rounds)
    return [workloads.run_job(lib, job) for batch in batches for job in batch]


def table(outcomes: list[workloads.Outcome]) -> str:
    """Markdown table of jobs, causes, steps or work, busy ms and share per class, and a total row."""
    groups: dict[tuple, list[workloads.Outcome]] = defaultdict(list)
    for o in outcomes:
        groups[job_class(o.job)].append(o)
    total = sum(o.ref_seconds for o in outcomes)
    deep = outcomes[0].job.workload == "deep_orbit"
    head = (["fixture", "family", "n"] if deep else ["class"]) + ["jobs", "causes", "steps" if deep else "work",
                                                                  "busy ms", "share"]
    out = ["| " + " | ".join(head) + " |", "|---" * len(head) + "|"]

    def row(label: str, group: list[workloads.Outcome]) -> str:
        causes = Counter(o.cause or "ok" for o in group)
        busy = sum(o.ref_seconds for o in group)
        work = sum(o.steps if deep else o.work for o in group)
        return (f"| {label} | {len(group)} | " + ", ".join(f"{c} {k}" for c, k in sorted(causes.items()))
                + f" | {work} | {busy * 1e3:.1f} | {100.0 * busy / total:.1f}% |")

    for key in sorted(groups):
        out.append(row(" | ".join(map(str, key)), groups[key]))
    out.append(row(" | ".join(["all"] + [""] * (len(head) - 6)), outcomes))
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args(argv)
    print(table(run(args.workload, args.seed, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
