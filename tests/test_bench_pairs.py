"""The summary that tools/bench_pairs.py writes into BENCH_<n>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool()
METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "fail_ratio", "better": "lower"}]


def pair(parent, change):
    return {side: {"metrics": {name: {"value": value} for name, value in values.items()}}
            for side, values in (("parent", parent), ("change", change))}


def test_summary_on_fixed_numbers():
    parent, change = [10.0, 20.0, 30.0, 40.0, 50.0], [12.0, 20.0, 29.0, 45.0, 60.0]
    pairs = [pair({"ops_per_s": p, "fail_ratio": 0.0}, {"ops_per_s": c, "fail_ratio": 0.0})
             for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, METRICS)
    # exclusive quartiles of five values sit at positions 1.5, 3 and 4.5
    assert summary["ops_per_s"] == {
        "better": "higher",
        "parent": {"q1": 15.0, "median": 30.0, "q3": 45.0},
        "change": {"q1": 16.0, "median": 29.0, "q3": 52.5},
        "change_wins": 3,
        "ties": 1,
        "pairs": 5,
        "median_ratio": 0.9667,
    }
    # a lower-is-better metric that reads 0 on both sides: every pair ties, no ratio
    assert summary["fail_ratio"]["change_wins"] == 0
    assert summary["fail_ratio"]["ties"] == 5
    assert summary["fail_ratio"]["median_ratio"] is None


def test_lower_is_better_wins_and_a_single_pair():
    summary = bench_pairs.summarize([pair({"fail_ratio": 0.5}, {"fail_ratio": 0.25})], METRICS[1:])
    assert summary["fail_ratio"] == {
        "better": "lower",
        "parent": {"q1": 0.5, "median": 0.5, "q3": 0.5},
        "change": {"q1": 0.25, "median": 0.25, "q3": 0.25},
        "change_wins": 1,
        "ties": 0,
        "pairs": 1,
        "median_ratio": 0.5,
    }


@pytest.mark.parametrize("workload", ["certify", "pade_table", "paths"])
def test_summary_reproduces_a_recorded_file(workload):
    # BENCH_27.json's summaries were computed from its pairs with the same rule
    record = json.loads((ROOT / "BENCH_27.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.summarize(record[workload]["pairs"], metrics) == record[workload]["summary"]


def test_pairs_alternate_and_are_written(tmp_path, monkeypatch):
    # runs are faked; the first side alternates with the seed's position
    names = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run(directory, workload, seed):
        calls.append((directory.name, workload, seed))
        value = float(seed) + (0.5 if directory.name == "change" else 0.0)
        return {"correct": True, "metrics": {name: {"value": value} for name in names}}

    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--number", "99",
                             "--parent-label", "abc", "--change", "c", "--workloads", "paths",
                             "--seeds", "1", "2", "3"]) == 0
    assert calls == [("parent", "paths", 1), ("change", "paths", 1), ("change", "paths", 2),
                     ("parent", "paths", 2), ("parent", "paths", 3), ("change", "paths", 3)]
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert [pair["first"] for pair in record["paths"]["pairs"]] == ["parent", "change", "parent"]
    assert record["paths"]["summary"]["ops_per_s"]["change_wins"] == 3
    assert record["paths"]["summary"]["latency_p50_ms"]["change_wins"] == 0
