"""Alternating parent/change pairs of the repository benchmark, summarised.

    python3 tools/bench_pairs.py --parent REF --workload conjugate --seeds 301-310

For each seed it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once on the parent commit REF and once on this
working tree, alternating which side goes first.  The parent runs from a
temporary ``git archive`` export of REF (removed afterwards; an interrupted run
leaves nothing registered in the repository).  Every raw JSON result line is
appended to ``--out``, after one machine line: the Python and numpy versions of
the ``python3`` that runs the benchmark, the processors this process may use,
the parent commit, and the commit of the working tree with whether it has
uncommitted changes.  The summary is a markdown table with each side's median
and quartiles per end-to-end metric, the pairs the change won (ties count for
neither), and whether the gap between the medians exceeds the spread between
the parent's quartiles.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """'301-303,310' -> [301, 302, 303, 310]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric from records {"side", "pair", "result"}; `better`
    maps a metric name to "lower" or "higher"."""
    sides: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    for rec in records:
        sides[rec["side"]][rec["pair"]] = rec["result"]["metrics"]
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    rows = []
    for name, direction in better.items():
        par = [sides["parent"][p][name]["value"] for p in pairs]
        chg = [sides["change"][p][name]["value"] for p in pairs]
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        pq, cq = quartiles(par), quartiles(chg)
        rows.append({"metric": name, "parent": pq, "change": cq, "wins": wins,
                     "pairs": len(pairs), "gap_exceeds_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0]})
    return rows


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def markdown(rows: list[dict], label: str) -> str:
    lines = [f"| {label} | metric | parent median [q1, q3] | change median [q1, q3] "
             "| change wins | gap > parent IQR |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        p, c = r["parent"], r["change"]
        lines.append(f"| | {r['metric']} | {_fmt(p[1])} [{_fmt(p[0])}, {_fmt(p[2])}] "
                     f"| {_fmt(c[1])} [{_fmt(c[0])}, {_fmt(c[2])}] "
                     f"| {r['wins']}/{r['pairs']} | {'yes' if r['gap_exceeds_iqr'] else 'no'} |")
    return "\n".join(lines)


def run_once(cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(["python3", "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark failed in {cwd} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def machine(parent: str) -> dict:
    """The machine line written before the records of one run."""
    versions = subprocess.run(
        ["python3", "-c", "import platform, numpy; print(platform.python_version(), "
                          "numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"machine": {"python": versions[0], "numpy": versions[1], "nproc": nproc,
                        "parent": git("rev-parse", f"{parent}^{{commit}}"),
                        "change": git("rev-parse", "HEAD"),
                        "change_uncommitted": bool(git("status", "--porcelain"))}}


def export(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 301-310 or 301,305")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=".perfbench_out/pairs.jsonl",
                        help="file the raw JSON lines are appended to")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(machine(args.parent)) + "\n")
    records = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(args.parent, Path(tmp))
        dirs = {"parent": Path(tmp), "change": ROOT}
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(dirs[side], args.workload, seed, args.seconds)
                rec = {"workload": args.workload, "side": side, "pair": pair, "seed": seed,
                       "result": result}
                records.append(rec)
                with out.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"pair {pair} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
    label = f"{args.workload} ({len(seeds)} pairs, seeds {args.seeds})"
    print(markdown(summarize(records, better), label))
    bad = [r for r in records if not r["result"]["correct"] or r["result"]["failed"]]
    print(f"\nruns not correct or with failed > 0: {len(bad)} of {len(records)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
