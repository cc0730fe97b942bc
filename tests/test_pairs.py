"""tools/pairs.py: the summary of alternating benchmark pairs, on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "train_units_per_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def result(train, setup, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"train_units_per_s": {"value": train, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def canned(base, change, workload="large-kg", failed=(0, 0)):
    """Run records of pairs whose metrics are (train, setup) tuples."""
    runs = []
    for seed, (b, c) in enumerate(zip(base, change)):
        runs.append({"side": "base", "workload": workload, "seed": seed,
                     "result": result(*b, failed=failed[0])})
        runs.append({"side": "change", "workload": workload, "seed": seed,
                     "result": result(*c, failed=failed[1])})
    return runs


def rows_by_metric(runs):
    return {row["metric"]: row for row in pairs.summarize(runs, METRICS)}


def test_a_clear_gain_holds_the_claim():
    base = [(100.0 + i, 1.0) for i in range(10)]
    change = [(110.0 + i, 1.0) for i in range(10)]
    change[3] = (90.0, 1.0)                        # one pair lost: 9 of 10 still won
    row = rows_by_metric(canned(base, change))["train_units_per_s"]
    assert row["pairs"] == 10 and row["wins"] == 9
    assert row["base"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert row["change"]["median"] == 114.5 and row["ratio"] == pytest.approx(114.5 / 104.5)
    assert row["claim_holds"] and not row["bound_crossed"]


@pytest.mark.parametrize("shift, lost, why", [(1.0, 0, "gap inside the base IQR"),
                                              (10.0, 2, "only 8 of 10 pairs won")])
def test_a_claim_fails_on_either_rule(shift, lost, why):
    base = [(100.0 + i, 1.0) for i in range(10)]
    change = [(b + shift, s) for b, s in base]
    for i in range(lost):
        change[i] = (base[i][0] - 1.0, 1.0)
    row = rows_by_metric(canned(base, change))["train_units_per_s"]
    assert row["wins"] == 10 - lost and not row["claim_holds"], why


def test_lower_is_better_metrics_count_wins_and_bounds_downward():
    base = [(100.0, 1.0)] * 4
    slower = rows_by_metric(canned(base, [(100.0, 1.3)] * 4))["setup_s"]
    assert slower["wins"] == 0 and slower["bound_crossed"] and slower["ratio"] == 1.3
    within = rows_by_metric(canned(base, [(100.0, 1.2)] * 4))["setup_s"]
    assert not within["bound_crossed"]
    faster = rows_by_metric(canned(base, [(100.0, 0.5)] * 4))["setup_s"]
    assert faster["wins"] == 4 and not faster["bound_crossed"]
    # equal runs win nothing and cross nothing
    equal = rows_by_metric(canned(base, base))["train_units_per_s"]
    assert equal["wins"] == 0 and not equal["claim_holds"] and not equal["bound_crossed"]


def test_a_larger_failed_share_crosses_its_bound():
    base = [(100.0, 1.0)] * 3
    row = rows_by_metric(canned(base, base, failed=(0, 2)))["failed_share"]
    assert row["change"]["median"] == 0.02 and row["bound_crossed"]
    assert not rows_by_metric(canned(base, base))["failed_share"]["bound_crossed"]


def test_workloads_are_summarised_apart_and_unpaired_runs_dropped():
    runs = (canned([(100.0, 1.0)] * 2, [(120.0, 1.0)] * 2)
            + canned([(10.0, 1.0)] * 3, [(5.0, 1.0)] * 3, workload="diverse-decode"))
    runs.append({"side": "base", "workload": "large-kg", "seed": 99,
                 "result": result(1.0, 9.0)})
    rows = pairs.summarize(runs, METRICS)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        (w, m) for w in ("large-kg", "diverse-decode")
        for m in ("train_units_per_s", "setup_s", "failed_share")]
    assert rows[0]["pairs"] == 2 and rows[0]["base"]["median"] == 100.0
    assert rows[3]["pairs"] == 3 and rows[3]["bound_crossed"]


def test_main_alternates_the_first_side_and_leaves_the_bounds_file_alone(
        tmp_path, monkeypatch, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    for tree in (base, change):
        tree.mkdir()
    bench = json.dumps({"end_to_end": METRICS})
    (base / "BENCHMARK.json").write_text(bench)
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return result(110.0 if tree == change else 100.0, 1.0)
    monkeypatch.setattr(pairs, "run_once", fake_run)
    out = tmp_path / "runs.json"
    status = pairs.main(["--base", str(base), "--change", str(change), "--workload", "large-kg",
                         "--pairs", "3", "--seconds", "5", "--first-seed", "40",
                         "--out", str(out)])
    assert status == 0
    assert calls == [("base", "large-kg", 40, 5.0), ("change", "large-kg", 40, 5.0),
                     ("change", "large-kg", 41, 5.0), ("base", "large-kg", 41, 5.0),
                     ("base", "large-kg", 42, 5.0), ("change", "large-kg", 42, 5.0)]
    assert (base / "BENCHMARK.json").read_text() == bench
    assert not (change / "BENCHMARK.json").exists()
    records = json.loads(out.read_text())
    assert [(r["side"], r["seed"], r["first"]) for r in records] == [
        ("base", 40, "base"), ("change", 40, "base"), ("change", 41, "change"),
        ("base", 41, "change"), ("base", 42, "base"), ("change", 42, "base")]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and "won 3/3" in lines[0] and "claim holds" in lines[0]
