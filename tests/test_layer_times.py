"""tools/layer_times.py: one short run on one fixture, its JSON line and its summary table,
also without the library on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import load_tool

layer_times = load_tool("layer_times")
TOOL = Path(layer_times.__file__)


def test_one_run_appends_one_line_with_every_layer(tmp_path, capsys):
    out = tmp_path / "layers.jsonl"
    for label in ("parent", "change"):
        argv = ["--repeats", "1", "--fixtures", "elliptic", "--label", label, "--out", str(out)]
        assert layer_times.main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "| fixture | " + " | ".join(layer_times.LAYERS) + " |"
    assert table[2].startswith("| elliptic | ")
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert [rec["label"] for rec in lines] == ["parent", "change"]
    for rec in lines:
        assert rec["unit"] == "us" and rec["repeats"] == 1
        assert list(rec["layers"]) == ["elliptic"]
        assert list(rec["layers"]["elliptic"]) == list(layer_times.LAYERS)
        assert all(t > 0.0 for t in rec["layers"]["elliptic"].values())
    assert layer_times.main(["--summary", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert summary[0] == "| fixture | layer | parent µs | change µs | change |"
    assert len(summary) == 2 + len(layer_times.LAYERS)


def test_summary_takes_the_median_of_each_label():
    lines = [{"label": label, "layers": {"quadpol": {"backward_step": t}}}
             for label, t in [("parent", 10.0), ("change", 8.0), ("parent", 12.0), ("change", 6.0),
                              ("parent", 11.0), ("change", 7.0)]]
    assert layer_times.summary(lines).splitlines()[2] == "| quadpol | backward_step | 11 | 7 | -36.4% |"


def test_summary_runs_without_a_library_on_the_path(tmp_path):
    # --summary only reads its file: no siegel_dynamics import may come first
    out = tmp_path / "layers.jsonl"
    out.write_text("".join(json.dumps({"label": label, "layers": {"quadpol": {"backward_step": t}}}) + "\n"
                           for label, t in [("parent", 10.0), ("change", 8.0)]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(TOOL), "--summary", str(out)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[2] == "| quadpol | backward_step | 10 | 8 | -20.0% |"


def test_summary_reads_only_the_layer_lines_of_a_pooled_bench_file(tmp_path, capsys):
    # a BENCH_<pr>.json: bench_pairs.py's machine line and pair records, then layer lines
    pair = {"workload": "checks", "side": "parent", "pair": 0, "seed": 1,
            "result": {"correct": True, "metrics": {"op_p50_ms": {"value": 10.0, "unit": "ms"}}}}
    records = [{"machine": {"python": "3.11.7", "nproc": 2}}, pair, dict(pair, side="change")]
    records += [{"label": label, "layers": {"quadpol": {"verify": t, "julia": t / 10}}}
                for label, t in [("parent", 10.0), ("change", 8.0), ("parent", 12.0), ("change", 9.0)]]
    out = tmp_path / "BENCH_0.json"
    out.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert layer_times.main(["--summary", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["| quadpol | verify | 11 | 8.5 | -22.7% |",
                                                        "| quadpol | julia | 1.1 | 0.85 | -22.7% |"]
