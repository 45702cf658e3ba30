"""tools/job_times.py: the job classes and their table, on synthetic outcomes and one `conjugate` round."""

from conftest import load_tool

job_times = load_tool("job_times")  # puts the checkout's perfbench on sys.path
from perfbench.calibration import NOMINAL_S  # noqa: E402
from perfbench.workloads import FIXTURES, Job, Outcome  # noqa: E402


def outcome(job: Job, ms: float, cause=None, steps=0, work=0) -> Outcome:
    """An outcome of `ms` milliseconds at the reference speed (kernel at its nominal time)."""
    return Outcome(job, ((ms * 1e-3, NOMINAL_S, NOMINAL_S),), cause, steps, work)


def test_deep_orbit_classes_are_fixture_family_and_n():
    ell = Job("deep_orbit", "elliptic", "infinity", (5 + 0j, 0j), 500)
    quad = Job("deep_orbit", "quadpol", "axis", (1 + 0j, 0j), 40)
    outcomes = [outcome(ell, 6.0, "alpha_frozen", 500, 500), outcome(quad, 1.0, None, 40, 40),
                outcome(ell, 2.0, "alpha_frozen", 500, 500), outcome(quad, 1.0, None, 40, 40)]
    assert job_times.job_class(ell) == ("elliptic", "infinity", 500)
    assert job_times.table(outcomes).splitlines() == [
        "| fixture | family | n | jobs | causes | steps | busy ms | share |",
        "|---|---|---|---|---|---|---|---|",
        "| elliptic | infinity | 500 | 2 | alpha_frozen 2 | 1000 | 8.0 | 80.0% |",
        "| quadpol | axis | 40 | 2 | ok 2 | 80 | 2.0 | 20.0% |",
        "| all |  |  | 4 | alpha_frozen 2, ok 2 | 1080 | 10.0 | 100.0% |",
    ]


def test_other_workloads_class_by_fixture_and_count_work():
    checks = [outcome(Job("checks", verify_seed=s), 14.0, None, work=200) for s in (1, 2)]
    assert job_times.job_class(checks[0].job) == ("checks",)
    assert job_times.table(checks).splitlines()[2:] == [
        "| checks | 2 | ok 2 | 400 | 28.0 | 100.0% |", "| all | 2 | ok 2 | 400 | 28.0 | 100.0% |"]
    conj = [outcome(Job("conjugate", name), 5.0, cause, work=0 if cause else 300)
            for name, cause in (("quadpol", None), ("elliptic", "residual"), ("quadpol", None))]
    assert job_times.table(conj).splitlines() == [
        "| class | jobs | causes | work | busy ms | share |",
        "|---|---|---|---|---|---|",
        "| elliptic | 1 | residual 1 | 0 | 5.0 | 33.3% |",
        "| quadpol | 2 | ok 2 | 600 | 10.0 | 66.7% |",
        "| all | 3 | ok 2, residual 1 | 600 | 15.0 | 100.0% |",
    ]


def test_one_conjugate_round(capsys):
    assert job_times.main(["--workload", "conjugate", "--seed", "7", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" | ")[0] for line in lines[2:]] == [f"| {name}" for name in sorted(FIXTURES)] + ["| all"]
    assert all(line.split(" | ")[1:3] == ["1", "ok 1"] for line in lines[2:-1])
    assert lines[-1].endswith(" | 100.0% |")
