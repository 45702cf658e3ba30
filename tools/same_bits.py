"""Same bits: a fixed list of CLI commands on a parent commit and on this working tree.

    python3 tools/same_bits.py --parent REF

It exports commit REF with ``bench_pairs.export`` into a temporary directory
and runs every command of ``COMMANDS`` once on each side, each run in a fresh
temporary directory with ``--out out``: the parent's ``src`` from the export,
the change's from this working tree as it is (untracked files included).  For
each command it compares stdout, stderr, the exit code and the files the run
wrote, prints the command with the parts that differ, and exits 1 if any
command differs, else 0.  The commands are ``verify --seed 0`` to ``13``,
``verify --seed 7`` with ``--samples 1`` and ``2`` (the ends of its sampled
sections: at 2, some dimension of the ratio bound has at most one pair),
``conjugate`` of each fixture from its default start, from ``5,0`` and from
``5,0`` with ``--n-conj 30`` (so k_max = 15), ``conjugate`` of
``lifted2z`` from ``1.2,0,0.7,0`` (a finite limit, so a Translation chart), the
expandable ``conjugate``, ``orbit --backward --format both`` of each fixture
from ``1,0``, ``5,0`` and the two near-curve starts ``1.2,0,0.7,0`` and
``0.41,0,0,0.6``, ``orbit --forward --format both`` of each fixture from
``1,0``, ``5,0`` and ``1.2,0,0.7,0`` and of the quadratic map whose
Denjoy-Wolff estimate is ``(0, 0)``, the three ``classify`` cases of the
goldens and of a map that is not a self-map, ``classify`` of the three
fixtures it refuses, and two commands that fail with one ``error:`` line on
stderr.  Every golden's command is among them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import ROOT, export  # noqa: E402

FIXTURES = ("quadpol", "lifted2z", "diaglinear", "elliptic")
COMMANDS = (
    [["verify", "--seed", str(seed)] for seed in range(14)]
    + [["verify", "--seed", "7", "--samples", samples] for samples in ("1", "2")]
    + [["conjugate", "--map", name, *start] for name in FIXTURES
       for start in ([], ["--start", "5,0"], ["--start", "5,0", "--n-conj", "30"])]
    + [["conjugate", "--map", "lifted2z", "--start", "1.2,0,0.7,0"]]
    + [["conjugate", "--A", "2", "--B", "0", "--C", "1.4142135623730951"]]
    + [["orbit", "--backward", "--map", name, "--start", start, "--format", "both"]
       for name in FIXTURES for start in ("1,0", "5,0", "1.2,0,0.7,0", "0.41,0,0,0.6")]
    + [["orbit", "--forward", "--map", name, "--start", start, "--format", "both"]
       for name in FIXTURES for start in ("1,0", "5,0", "1.2,0,0.7,0")]
    + [["orbit", "--forward", "--A", "0.5", "--B", "0.25", "--C", "0.5", "--start", "1,0", "--format", "both"]]
    + [["classify", "--map", "quadpol"], ["classify", "--A", "2", "--B", "1", "--C", "1"],
       ["classify", "--A", "1", "--B", "0", "--C", "1.2"]]
    + [["classify", "--map", name] for name in FIXTURES[1:]]
    + [["conjugate", "--A", "1", "--B", "0", "--C", "1.2", "--start", "2,0,0.5,0"],
       ["orbit", "--backward", "--map", "quadpol", "--start", "1,0", "--a", "0.0001"]]
)


def run_command(src: Path, argv: list[str]) -> dict[str, object]:
    """stdout, stderr, exit code and every file written, of one CLI run of the library in src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="same-bits-run-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "siegel_dynamics.cli", *argv, "--out", "out"],
                              cwd=cwd, env=env, capture_output=True, check=False)
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in Path(cwd).rglob("*") if p.is_file()}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode, **files}


def differing(parent: Path, change: Path, commands=COMMANDS) -> list[tuple[list[str], list[str]]]:
    """(command, the parts that differ) for each command whose runs in the two trees differ."""
    found = []
    for argv in commands:
        a, b = run_command(parent / "src", argv), run_command(change / "src", argv)
        parts = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if parts:
            found.append((argv, parts))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bits-parent-") as parent:
        export(args.parent, Path(parent))
        found = differing(Path(parent), ROOT)
    for command, parts in found:
        print(f"differs: {' '.join(command)} ({', '.join(parts)})")
    print(f"{len(COMMANDS) - len(found)} of {len(COMMANDS)} commands gave the same bits")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
