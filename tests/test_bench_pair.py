"""The summary of scripts/bench_pair.py on synthetic pairs of runs: the
verdicts and the failure totals; and its refusal of a malformed plan, tag
or parent.
Nothing is run as a subprocess."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}


def synthetic_run(value, attempted=100, failed=0, correct=True):
    """One run of one side, with the fields every recorded run holds."""
    metrics = {"wall_s": {"value": value}, "rate": {"value": value}}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "correct": correct}


def verdict(metric, parent, change):
    runs = [{"parent": synthetic_run(p), "change": synthetic_run(c)} for p, c in zip(parent, change)]
    return bench_pair.summary(runs, [metric])[metric["name"]]["verdict"]


TIGHT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]  # IQR about 0.2
WIDE = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 15.0]  # IQR 5.5, over 25%


@pytest.mark.parametrize("parent, change, want", [
    # 10 of 10 won, the median 2.0 lower against an IQR of about 0.2
    (TIGHT, [8.0] * 10, "gain"),
    # 9 of 10 is enough
    (TIGHT, [8.0] * 9 + [11.0], "gain"),
    # 8 of 10 is not, and 2% is within the bound
    (TIGHT, [9.8] * 8 + [11.0] * 2, "same"),
    # 9 of 10 won, but by less than the parent's IQR
    (TIGHT, [p - 0.01 for p in TIGHT[:9]] + [11.0], "same"),
    # the change's median is 30% worse; 20% is still within the bound
    (TIGHT, [13.0] * 10, "worse"),
    (TIGHT, [12.0] * 10, "same"),
    # a parent IQR over the bound leaves a mixed result unresolved...
    (WIDE, [p + (0.5 if i % 2 else -0.5) for i, p in enumerate(WIDE)], "unresolved"),
    # ... but not a change that wins every pair, with or without a gain
    (WIDE, [p - 0.1 for p in WIDE], "same"),
    (WIDE, [p - 6.0 for p in WIDE], "gain"),
])
def test_verdict_lower_is_better(parent, change, want):
    assert verdict(LOWER, parent, change) == want


def test_verdict_follows_the_direction_of_the_metric():
    assert verdict(HIGHER, TIGHT, [12.0] * 10) == "gain"
    assert verdict(HIGHER, TIGHT, [7.0] * 10) == "worse"
    assert verdict(LOWER, TIGHT, [7.0] * 10) == "gain"
    assert verdict(LOWER, TIGHT, [12.0] * 10) == "same"


def test_failures_are_summed_per_side():
    runs = [
        {"parent": synthetic_run(1.0, 100), "change": synthetic_run(1.0, 90, failed=2)},
        {"parent": synthetic_run(1.0, 120), "change": synthetic_run(1.0, 80, failed=1, correct=False)},
        {"parent": synthetic_run(1.0, 110), "change": synthetic_run(1.0, 95)},
    ]
    got = bench_pair.summary(runs, [LOWER])
    assert got["parent"] == {"attempted": 330, "failed": 0, "correct": True}
    assert got["change"] == {"attempted": 265, "failed": 3, "correct": False}
    assert got["wall_s"]["verdict"] == "same"


@pytest.mark.parametrize("plan", [
    ["bruteforce"],  # no pair count
    ["bruteforce:0"],  # no pairs
    ["deep_memory:1", "no_such_workload:1"],  # refused before deep_memory runs
])
def test_malformed_plan_is_a_usage_error(plan, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("subprocess run for a malformed plan")

    monkeypatch.setattr(bench_pair.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--parent", "HEAD", "--tag", "t", "--seconds", "1", *plan])
    assert exc.value.code == 2
    assert "is not WORKLOAD:PAIRS" in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["a/b", "", "pr 23", "../x"])
def test_tag_that_is_not_a_plain_name_is_a_usage_error(tag, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("subprocess run for a malformed tag")

    monkeypatch.setattr(bench_pair.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--parent", "HEAD", "--tag", tag, "--seconds", "1", "deep_memory:1"])
    assert exc.value.code == 2
    assert "is not a plain name" in capsys.readouterr().err


def test_parent_that_is_not_a_commit_is_a_usage_error(monkeypatch, capsys):
    calls = []

    def git(cmd, **kwargs):
        calls.append(cmd)
        if cmd[:2] != ["git", "rev-parse"]:
            raise AssertionError(f"{cmd} run for a parent that is not a commit")
        raise bench_pair.subprocess.CalledProcessError(128, cmd)

    monkeypatch.setattr(bench_pair.subprocess, "run", git)
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--parent", "nosuchrev", "--tag", "t", "--seconds", "1", "deep_memory:1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'nosuchrev' does not resolve to a commit" in err
    assert "Traceback" not in err and len(calls) == 1
