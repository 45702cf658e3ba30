"""Summary code of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"op_p50_ms": "lower", "work_per_s": "higher"}


def line(side, pair, p50, work):
    metrics = {"op_p50_ms": {"value": p50, "unit": "ms"},
               "work_per_s": {"value": work, "unit": "1/s"}}
    return json.dumps({"side": side, "pair": pair, "seed": 300 + pair,
                       "result": {"correct": True, "attempted": 9, "failed": 0,
                                  "metrics": metrics}})


def records(parent, change):
    lines = [line("parent", i, *v) for i, v in enumerate(parent)]
    lines += [line("change", i, *v) for i, v in enumerate(change)]
    return [json.loads(s) for s in lines]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("301-303,310") == [301, 302, 303, 310]
    assert bench_pairs.parse_seeds("7") == [7]


def test_quartiles_inclusive_and_single_value():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_summary_counts_wins_by_direction_and_ignores_ties():
    parent = [(36.0, 5000.0), (35.0, 4900.0), (37.0, 5100.0), (36.0, 5000.0)]
    change = [(15.0, 14000.0), (15.5, 4900.0), (38.0, 13000.0), (36.0, 14500.0)]
    rows = {r["metric"]: r for r in bench_pairs.summarize(records(parent, change), BETTER)}
    p50, work = rows["op_p50_ms"], rows["work_per_s"]
    assert (p50["wins"], p50["pairs"]) == (2, 4)  # pair 2 lost, pair 3 tied
    assert work["wins"] == 3                        # pair 1 tied
    assert p50["parent"] == pytest.approx((35.75, 36.0, 36.25))
    assert p50["change"][1] == pytest.approx(25.75)
    assert p50["gap_exceeds_iqr"] and work["gap_exceeds_iqr"]


def test_summary_gap_within_parent_spread_and_unpaired_runs():
    parent = [(30.0, 1.0), (40.0, 1.0), (35.0, 1.0)]
    change = [(33.0, 1.0), (34.0, 1.0)]  # the third pair never finished
    rows = {r["metric"]: r for r in bench_pairs.summarize(records(parent, change), BETTER)}
    assert rows["op_p50_ms"]["pairs"] == 2
    assert rows["op_p50_ms"]["gap_exceeds_iqr"] is False  # |33.5 - 35| < 37.5 - 32.5


def test_markdown_table():
    parent = [(36.0, 5000.0), (35.0, 4900.0)]
    change = [(15.0, 14000.0), (15.5, 14100.0)]
    text = bench_pairs.markdown(bench_pairs.summarize(records(parent, change), BETTER),
                                "conjugate (2 pairs, seeds 300-301)")
    rows = text.splitlines()
    assert rows[0].startswith("| conjugate (2 pairs, seeds 300-301) | metric | parent")
    assert rows[2] == "| | op_p50_ms | 35.5 [35.25, 35.75] | 15.25 [15.12, 15.38] | 2/2 | yes |"
    assert rows[3].startswith("| | work_per_s | 4950 [4925, 4975] | 1.405e+04")
