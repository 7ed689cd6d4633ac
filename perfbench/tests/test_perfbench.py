"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real jobs at the benchmark's own sizes, so they take about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

MODULES = worker.load_program()
IN_PROCESS = (workloads.SIM_SMALL, workloads.SIM_LARGE, workloads.GRID_REFINE)


def _command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_smoke_in_process_workload(workload):
    result = worker.run_jobs(workload, 11, 0.0, True, MODULES)
    loop = measure.LoopResult(**result["loop"])
    assert loop.failed == 0, loop.failures
    assert loop.attempted == 3 and loop.traced and loop.untraced
    metrics = measure.layer_metrics(measure.spans_from_json(result["spans"]), loop)
    assert set(metrics) == set(run.LAYER_UNITS)
    assert 0.9 < metrics["trace.accounted_frac"] <= 1.0 + 1e-9


def test_smoke_cli_workload():
    run.RUN_DIR.mkdir(exist_ok=True)
    loop, spans, extras, peak_kb = run.cli_jobs(11, 0.0, True, run.child_env())
    assert loop.failed == 0, loop.failures
    metrics = measure.layer_metrics(spans, loop, extras)
    assert metrics["riccati.calls"] == 2 * metrics["riccati.distinct_types"] == 50
    assert metrics["cli.csv_bytes"] > 0 and metrics["cli.solve_s"] > 0
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)


def test_command_prints_the_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _command(ROOT, workloads.GRID_REFINE, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {m["name"]: m["unit"] for m in declared[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _command(tmp_path, workloads.GRID_REFINE, 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _grid_output(seed):
    inputs = workloads.make_inputs(workloads.GRID_REFINE, seed)
    job, check = worker.prepare(workloads.GRID_REFINE, inputs, MODULES)
    return inputs, job, check


def test_tampered_output_counts_as_failed():
    _, job, check = _grid_output(5)

    def run_job(index, traced):
        out = job()
        if index == 1:
            out["curves"][0] = out["curves"][0][::-1]  # F now decreases
        check(out)
        return 1.0

    loop = measure.timed_loop(run_job, 0.0, alternate=False)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "decreases" in loop.failures[0]


def test_tampered_sim_paths_fail_the_check():
    inputs = workloads.make_inputs(workloads.SIM_SMALL, 5)
    job, check = worker.prepare(workloads.SIM_SMALL, inputs, MODULES)
    report, replications = job()
    check((report, replications))
    paths = np.stack([r.l_path.values for r in replications[0].results])
    f = MODULES["creditpool"].solve_limit(
        worker.build_measure(MODULES["creditpool"], inputs["measure"]["atoms"]),
        MODULES["creditpool"].TimeGrid(1.0, 1000)).f.values
    distances = report.cells[0].distances
    workloads.check_sim(workloads.SIM_SMALL, inputs, paths, f, distances)
    for tamper in (lambda p: p.__setitem__((0, -1), p[0, -2] - 0.01),   # L decreases
                   lambda p: p.__setitem__((1, 5), 0.5 / 100),          # not a count / N
                   lambda p: p.__setitem__((2, 0), 0.01)):              # does not start at 0
        bad = paths.copy()
        tamper(bad)
        with pytest.raises(workloads.CheckFailed):
            workloads.check_sim(workloads.SIM_SMALL, inputs, bad, f, distances)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_sim(workloads.SIM_SMALL, inputs, paths, f + 0.3, distances)


def test_tampered_grid_and_cli_outputs_fail_the_check(tmp_path):
    inputs, job, _ = _grid_output(5)
    out = job()
    workloads.check_grid(inputs, out["residuals"], out["gaps"], out["curves"])
    with pytest.raises(workloads.CheckFailed, match="did not halve"):
        workloads.check_grid(inputs, out["residuals"][::-1], out["gaps"], out["curves"])
    with pytest.raises(workloads.CheckFailed, match="two-route gap"):
        workloads.check_grid(inputs, out["residuals"], [1e-3] * 3, out["curves"])

    cli_inputs = workloads.make_inputs(workloads.LIMIT_CLI, 5)
    cli_inputs["grid"]["n_steps"] = 50
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cli_inputs))
    code = MODULES["cli"].main(["limit", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    workloads.check_cli(cli_inputs, tmp_path)
    csv_path = tmp_path / "limit.csv"
    csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(workloads.CheckFailed, match="rows"):
        workloads.check_cli(cli_inputs, tmp_path)


def test_same_seed_gives_identical_checked_outputs(tmp_path):
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 8) == workloads.make_inputs(workload, 8)
        assert workloads.make_inputs(workload, 8) != workloads.make_inputs(workload, 9)

    outputs = []
    for _ in range(2):
        _, job, _ = _grid_output(8)
        outputs.append(job())
    assert outputs[0]["residuals"] == outputs[1]["residuals"]
    assert outputs[0]["gaps"] == outputs[1]["gaps"]
    for first, second in zip(outputs[0]["curves"], outputs[1]["curves"]):
        np.testing.assert_array_equal(first, second)

    paths = []
    for _ in range(2):
        job, _ = worker.prepare(workloads.SIM_SMALL,
                                workloads.make_inputs(workloads.SIM_SMALL, 8), MODULES)
        paths.append([r.l_path.values for r in job()[1][0].results])
    np.testing.assert_array_equal(paths[0], paths[1])

    csvs = []
    for name in ("a", "b"):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(workloads.make_inputs(workloads.LIMIT_CLI, 8)))
        out = tmp_path / name
        assert MODULES["cli"].main(["limit", "--config", str(config), "--out", str(out)]) == 0
        csvs.append((out / "limit.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_self_time_is_span_minus_children():
    spans = [measure.Span("a", None, 1, 0.0, 10.0),
             measure.Span("b", 0, 1, 1.0, 4.0),
             measure.Span("c", 1, 1, 2.0, 3.0),
             measure.Span("d", 0, 1, 5.0, 9.0)]
    assert measure.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_restores_patched_functions():
    limit = MODULES["limit"]
    original = limit.solve_q
    tracer = measure.Tracer()
    with tracer.installed(MODULES):
        assert limit.solve_q is not original
        assert limit.solve_q.__wrapped__ is original
    assert limit.solve_q is original
