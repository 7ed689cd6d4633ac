"""The shape of every ``BENCH_<n>.json`` benchmark point (README "Benchmark
points"); the values are measurements and are not checked."""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
POINTS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
COMMIT = re.compile(r"[0-9a-f]{7,40}")


def is_number(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def check_side(side, pairs, fresh):
    assert set(side) <= {"median", "q1", "q3", "values"} and "median" in side
    assert is_number(side["median"])
    for quartile in ("q1", "q3"):
        assert is_number(side[quartile]) or (side[quartile] is None and not fresh)
    if "values" in side or fresh:
        assert len(side["values"]) == pairs and all(map(is_number, side["values"]))


def check_round(entry, fresh):
    assert set(entry) == {"pairs", "seconds", "trace", "seeds", "placement", "workloads"}
    pairs = entry["pairs"]
    assert isinstance(pairs, int) and pairs >= 1
    assert is_number(entry["seconds"]) and entry["seconds"] > 0
    assert entry["trace"] in (0, 1)
    assert len(entry["seeds"]) == pairs and all(isinstance(s, int) for s in entry["seeds"])
    assert isinstance(entry["placement"], str) and entry["placement"]
    workloads = entry["workloads"]
    assert workloads and set(workloads) <= WORKLOADS
    if fresh:
        assert set(workloads) == WORKLOADS
    for metrics in workloads.values():
        assert metrics and set(metrics) <= METRICS
        if fresh:
            assert set(metrics) == METRICS
        for metric in metrics.values():
            assert set(metric) == {"parent", "change", "change_better"}
            won = metric["change_better"]
            assert won is None or (isinstance(won, int) and 0 <= won <= pairs)
            for side in ("parent", "change"):
                check_side(metric[side], pairs, fresh)


def test_points_are_numbered_from_one():
    assert [p.name for p in POINTS] == [f"BENCH_{n}.json" for n in range(1, len(POINTS) + 1)]


@pytest.mark.parametrize("path", POINTS, ids=[p.name for p in POINTS])
def test_point_shape(path):
    point = json.loads(path.read_text())
    assert set(point) - {"note"} == {"point", "commit", "parent", "transcribed", "claim",
                                     "environment", "rounds"}
    assert point["point"] == int(path.stem.split("_")[1])
    assert isinstance(point["transcribed"], bool)
    fresh = not point["transcribed"]
    # a fresh point's own commit is the one that adds it
    assert (point["commit"] is None) if fresh else COMMIT.fullmatch(point["commit"])
    assert COMMIT.fullmatch(point["parent"])
    assert isinstance(point.get("note", ""), str)
    claim = point["claim"]
    assert claim is None or (set(claim) == {"workload", "metric"}
                             and claim["workload"] in WORKLOADS and claim["metric"] in METRICS)
    env = point["environment"]
    assert set(env) == {"nproc", "cpu", "python", "numpy"}
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    for key in ("cpu", "python", "numpy"):
        assert isinstance(env[key], str) or (env[key] is None and not fresh)
    assert point["rounds"]
    for entry in point["rounds"]:
        check_round(entry, fresh)
