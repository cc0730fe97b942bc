"""Smoke runs of every workload at a tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    _, result = run.run(run.WORKLOADS[name].tiny(), seed=3, seconds=0.0, trace=trace,
                        work_root=tmp_path / "work")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert not (tmp_path / "work").exists()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_traced_counts_show_known_waste(tmp_path):
    _, result = run.run(run.WORKLOADS["diverse-decode"].tiny(), seed=3, seconds=0.0, trace=True,
                        work_root=tmp_path / "work")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["rgcn.encodes_per_unit"] == run.K + 1
    assert values["decoding.positions_per_token"] > 1
    assert values["decoding.selects_per_output"] == (run.N_SAMPLES + 1) / run.N_SAMPLES


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(layers.moe, "e_step")
    with pytest.raises(layers.StaleWrapper, match="e_step"):
        layers.Tracer().install()


def test_span_without_calls_fails_loudly():
    with pytest.raises(layers.StaleWrapper, match="rgcn.encode"):
        layers.Tracer().check_calls("diverse-decode")
