"""Summary code of tools/bench_pairs.py on canned benchmark result lines."""

import json
import subprocess

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")

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


def test_summary_pairs_the_records_of_several_invocations_by_seed():
    # each invocation numbers its pairs from 0; a pair is the two runs of one seed
    def run(seeds, parent, change):
        return [json.loads(s) | {"seed": seed} for i, seed in enumerate(seeds)
                for s in (line("parent", i, *parent[i]), line("change", i, *change[i]))]

    first = run([2521, 2522], [(30.0, 1.0), (32.0, 1.0)], [(29.0, 2.0), (33.0, 2.0)])
    second = run([2526, 2527, 2528], [(31.0, 1.0), (30.0, 1.0), (34.0, 1.0)],
                 [(25.0, 2.0), (31.0, 0.5), (20.0, 2.0)])
    rows = {r["metric"]: r for r in bench_pairs.summarize(first + second[::-1], BETTER)}
    assert (rows["op_p50_ms"]["wins"], rows["op_p50_ms"]["pairs"]) == (3, 5)  # 2522 and 2527 lost
    assert (rows["work_per_s"]["wins"], rows["work_per_s"]["pairs"]) == (4, 5)  # 2527 lost
    assert rows["op_p50_ms"]["parent"][1] == 31.0 and rows["op_p50_ms"]["change"][1] == 29.0


def test_markdown_table():
    parent = [(36.0, 5000.0), (35.0, 4900.0)]
    change = [(15.0, 14000.0), (15.5, 14100.0)]
    text = bench_pairs.markdown(bench_pairs.summarize(records(parent, change), BETTER),
                                "conjugate (2 pairs, seeds 300-301)")
    rows = text.splitlines()
    assert rows[0].startswith("| conjugate (2 pairs, seeds 300-301) | metric | parent")
    assert rows[2] == "| | op_p50_ms | 35.5 [35.25, 35.75] | 15.25 [15.12, 15.38] | 2/2 | yes |"
    assert rows[3].startswith("| | work_per_s | 4950 [4925, 4975] | 1.405e+04")


@pytest.mark.skipif(not (bench_pairs.ROOT / ".git").exists(), reason="needs a git checkout")
def test_machine_line_names_versions_processors_and_commits():
    head = bench_pairs.git("rev-parse", "HEAD")
    line = bench_pairs.machine("HEAD")["machine"]
    assert set(line) == {"python", "numpy", "nproc", "parent", "change", "change_uncommitted"}
    assert line["python"].count(".") == 2 and line["numpy"][0].isdigit()
    assert isinstance(line["nproc"], int) and line["nproc"] >= 1
    assert line["parent"] == line["change"] == head and len(head) == 40
    assert isinstance(line["change_uncommitted"], bool)


def test_out_starts_with_the_machine_line(tmp_path, monkeypatch, capsys):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
    result = {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}
    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda cwd, workload, seed, seconds: result)
    monkeypatch.setattr(bench_pairs, "machine", lambda parent: {"machine": {"parent": parent}})
    out = tmp_path / "pairs.jsonl"
    argv = ["--parent", "abc", "--workload", "checks", "--seeds", "5-6", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.main(argv) == 0  # a second run appends its own machine line
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert len(lines) == 10
    for run in (lines[:5], lines[5:]):
        assert run[0] == {"machine": {"parent": "abc"}}
        assert [(r["side"], r["seed"]) for r in run[1:]] == [
            ("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    assert "| checks (2 pairs, seeds 5-6) |" in capsys.readouterr().out


def test_workload_list_runs_each_after_one_machine_line(tmp_path, monkeypatch, capsys):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_once(cwd, workload, seed, seconds):
        calls.append(workload)
        metrics = {m["name"]: {"value": float(seed), "unit": m["unit"]} for m in bench["end_to_end"]}
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "machine", lambda parent: {"machine": {"parent": parent}})
    out = tmp_path / "pairs.jsonl"
    argv = ["--parent", "abc", "--workload", "conjugate,checks", "--seeds", "5-6", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == ["conjugate"] * 4 + ["checks"] * 4
    lines = [json.loads(s) for s in out.read_text().splitlines()]
    assert lines[0] == {"machine": {"parent": "abc"}}
    assert [(r["workload"], r["side"], r["pair"]) for r in lines[1:]] == [
        (w, side, pair) for w in ("conjugate", "checks")
        for pair, side in ((0, "parent"), (0, "change"), (1, "change"), (1, "parent"))]
    text = capsys.readouterr().out
    first, second = text.index("| conjugate (2 pairs, seeds 5-6) |"), text.index("| checks (2 pairs, seeds 5-6) |")
    assert first < second and text.count("| | op_p50_ms |") == 2
    assert "runs not correct or with failed > 0: 0 of 8" in text


def test_machine_line_counts_only_tracked_edits_as_uncommitted(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       capture_output=True, check=True)

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "untracked.txt").write_text("stray\n")
    assert bench_pairs.machine("HEAD")["machine"]["change_uncommitted"] is False
    (tmp_path / "tracked.txt").write_text("two\n")
    assert bench_pairs.machine("HEAD")["machine"]["change_uncommitted"] is True


def test_change_export_holds_tracked_edits_but_no_untracked_file(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                              capture_output=True, check=True, text=True).stdout

    git("init", "-q")
    (repo / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.export(None, tmp_path / "clean")  # no edits: HEAD
    assert (tmp_path / "clean" / "tracked.txt").read_text() == "one\n"
    (repo / "tracked.txt").write_text("two\n")
    (repo / "untracked.txt").write_text("stray\n")
    bench_pairs.export(None, tmp_path / "edited")
    assert (tmp_path / "edited" / "tracked.txt").read_text() == "two\n"
    assert not (tmp_path / "edited" / "untracked.txt").exists()
    # the working tree, the index and the stash list are as they were
    assert (repo / "tracked.txt").read_text() == "two\n" and (repo / "untracked.txt").exists()
    assert git("stash", "list") == "" and git("status", "--porcelain") == " M tracked.txt\n?? untracked.txt\n"


def test_both_sides_run_from_their_own_export(tmp_path, monkeypatch):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
    exports, cwds = {}, {}

    def run_once(cwd, workload, seed, seconds):
        cwds.setdefault(cwd, []).append(seed)
        return {"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: exports.setdefault(ref, dest))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "machine", lambda parent: {"machine": {"parent": parent}})
    argv = ["--parent", "abc", "--workload", "checks", "--seeds", "5-6", "--out", str(tmp_path / "p.jsonl")]
    assert bench_pairs.main(argv) == 0
    assert set(exports) == {"abc", None}  # None: the working tree's tracked files
    assert cwds == {exports["abc"]: [5, 6], exports[None]: [5, 6]}
    assert bench_pairs.ROOT not in cwds and exports["abc"] != exports[None]
