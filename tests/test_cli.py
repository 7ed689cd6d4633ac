import contextlib
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import TimeGrid, ValidationError, convergence, run_replications
from creditpool.cli import DEFAULT_CONFIG, MAX_SIZE, load_config, main, resolve_config
from creditpool.errors import (
    ConfigError,
    CreditPoolError,
    FieldError,
    NoConvergenceError,
    NonFiniteResultError,
    NonFiniteStateError,
    bounded_repr,
)

cli_module = import_module("creditpool.cli")

SMALL_GRID = ["--set", "grid.n_steps=80"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


class TestLimitCommand:
    def test_writes_curves_and_manifest(self, tmp_path):
        assert main(["limit", "--out", str(tmp_path), *SMALL_GRID]) == 0
        header, rows = read_csv(tmp_path / "limit.csv")
        assert header == ["t", "F", "Q", "b_0"]
        assert len(rows) == 81
        f = column(header, rows, "F")
        assert f[0] == 0.0 and f[-1] <= 1.0
        manifest = json.loads((tmp_path / "limit_manifest.json").read_text())
        assert manifest["command"] == "limit"
        assert manifest["solver_residual"] <= 1e-10
        assert manifest["config"]["grid"]["n_steps"] == 80

    def test_zero_contagion_zeroes_q_column(self, tmp_path):
        code = main(
            ["limit", "--out", str(tmp_path), *SMALL_GRID,
             "--set", "measure.atoms.0.beta_c=0.0"]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "limit.csv")
        assert all(q == 0.0 for q in column(header, rows, "Q"))

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["limit", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["limit", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_validation_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [{"sigma": -1.0}]}}))
        assert main(["limit", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_no_convergence_exit_code(self, tmp_path):
        code = main(
            ["limit", "--out", str(tmp_path), *SMALL_GRID, "--set", "solver.max_iter=2"]
        )
        assert code == 3

    def test_unknown_key_rejected(self, tmp_path):
        assert main(["limit", "--out", str(tmp_path), "--set", "grid.steps=5"]) == 2

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["limit", "--out", str(out1), *SMALL_GRID]) == 0
        # the manifest doubles as a config: rerunning must reproduce the data
        assert main(
            ["limit", "--config", str(out1 / "limit_manifest.json"), "--out", str(out2)]
        ) == 0
        assert (out1 / "limit.csv").read_bytes() == (out2 / "limit.csv").read_bytes()

    def test_manifest_records_convergence_and_write_time(self, tmp_path):
        assert main(["limit", "--out", str(tmp_path), *SMALL_GRID]) == 0
        manifest = json.loads((tmp_path / "limit_manifest.json").read_text())
        history = manifest["residual_history"]
        assert len(history) == manifest["solver_iterations"]
        assert history[-1] == manifest["solver_residual"]
        assert manifest["timing"]["write_seconds"] >= 0.0

    def test_manifest_records_levels_and_error_estimate(self, tmp_path):
        # 80 steps is one level with no estimate; 1000 steps is 250, 500, 1000
        assert main(["limit", "--out", str(tmp_path / "a"), *SMALL_GRID]) == 0
        one = json.loads((tmp_path / "a" / "limit_manifest.json").read_text())
        assert one["levels"] == [{"n_steps": 80, "sweeps": one["solver_iterations"]}]
        assert one["f_error_estimate"] is None
        assert main(["limit", "--out", str(tmp_path / "b"), "--set", "grid.n_steps=1000"]) == 0
        nested = json.loads((tmp_path / "b" / "limit_manifest.json").read_text())
        assert [level["n_steps"] for level in nested["levels"]] == [250, 500, 1000]
        assert nested["levels"][-1]["sweeps"] == nested["solver_iterations"]
        assert 0.0 < nested["f_error_estimate"] < 1e-6

    def test_atoms_of_one_type_write_equal_b_columns(self, tmp_path):
        atom = {"alpha": 4.0, "lambda_bar": 0.5, "sigma": 0.9, "beta_c": 2.0}
        atoms = json.dumps([dict(atom, lambda_init=0.2, weight=0.5),
                            dict(atom, lambda_init=0.8, weight=0.5)])
        assert main(["limit", "--out", str(tmp_path), *SMALL_GRID,
                     "--set", f"measure.atoms={atoms}"]) == 0
        header, rows = read_csv(tmp_path / "limit.csv")
        assert column(header, rows, "b_0", str) == column(header, rows, "b_1", str)

    @pytest.mark.parametrize("override", [
        "solver.tol=0",
        "solver.tol=-1e-8",
        "solver.tol=true",
        "solver.relaxation=0",
        "solver.relaxation=2",
        'solver.method="x"',
        "solver.max_iter=0",
        "solver.max_iter=2.5",
        "grid.n_steps=1.5",
        'grid.n_steps="many"',
    ])
    def test_invalid_solver_or_grid_value_exit_code(self, tmp_path, capsys, override):
        code = main(["limit", "--out", str(tmp_path), *SMALL_GRID, "--set", override])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err

    def test_integral_float_step_count_accepted(self, tmp_path):
        assert main(["limit", "--out", str(tmp_path), "--set", "grid.n_steps=80.0"]) == 0
        _, rows = read_csv(tmp_path / "limit.csv")
        assert len(rows) == 81

    def test_csv_floats_round_trip(self, tmp_path):
        assert main(["limit", "--out", str(tmp_path), *SMALL_GRID]) == 0
        header, rows = read_csv(tmp_path / "limit.csv")
        for r in rows[:5]:
            for cell in r:
                assert repr(float(cell)) == cell


SIM_ARGS = [
    "--set", "sim.n_firms=60",
    "--set", "sim.n_reps=3",
    "--set", "grid.n_steps=60",
]


class TestSimulateCommand:
    def test_outputs(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), *SIM_ARGS]) == 0
        header, rows = read_csv(tmp_path / "paths.csv")
        assert header == ["t", "rep", "L"]
        assert len(rows) == 3 * 61
        reps = column(header, rows, "rep", int)
        assert sorted(set(reps)) == [0, 1, 2]
        agg_header, agg_rows = read_csv(tmp_path / "aggregate.csv")
        assert agg_header == ["t", "mean", "q10", "q90"]
        assert len(agg_rows) == 61

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--out", str(out1), *SIM_ARGS, "--seed", "99"]) == 0
        assert main(["simulate", "--out", str(out2), *SIM_ARGS, "--seed", "99"]) == 0
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()

    def test_manifest_records_rng_contract(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), *SIM_ARGS]) == 0
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["rng_contract"] == 7
        assert "threads_hint" not in manifest

    def test_moments_written_only_when_recorded(self, tmp_path):
        off, on = tmp_path / "off", tmp_path / "on"
        assert main(["simulate", "--out", str(off), *SIM_ARGS]) == 0
        assert not (off / "moments.csv").exists()
        assert main(["simulate", "--out", str(on), *SIM_ARGS,
                     "--set", "sim.record_moments=true"]) == 0
        assert (on / "paths.csv").read_bytes() == (off / "paths.csv").read_bytes()
        run = resolve_config(load_config(str(on / "simulate_manifest.json"), [], None))
        grid, n_reps = run.sim.grid, run.sim_reps
        expected = run_replications(run.sim, n_reps).results
        header, rows = read_csv(on / "moments.csv")
        assert header == ["t", "rep", "m1", "m2"]
        assert column(header, rows, "rep", int) == [r for r in range(n_reps)
                                                    for _ in range(grid.n_points)]
        for name in ("m1", "m2"):
            got = np.reshape(column(header, rows, name), (n_reps, grid.n_points))
            want = np.stack([getattr(r, name).values for r in expected])
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("override", [
        'sim.assignment="x"',
        "sim.n_firms=0",
        "sim.n_reps=0",
        'sim.record_moments="no"',
    ])
    def test_invalid_sim_value_exit_code(self, tmp_path, capsys, override):
        code = main(["simulate", "--out", str(tmp_path), *SIM_ARGS, "--set", override])
        assert code == 2
        field = override.split("=")[0].split(".")[1]
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("override, where", [
        ("measure.atoms.0.alpha=true", "measure.atoms[0].alpha"),
        ("measure.atoms.0.weight=true", "measure.atoms[0].weight"),
        ("measure.atoms.0.lambda_init=false", "measure.atoms[0].lambda_init"),
        ("factor.gamma=true", "factor.gamma"),
        ("factor.x_init=true", "factor.x_init"),
        ("factor.eps.value=true", "factor.eps.value"),
        ("grid.t_end=true", "grid.t_end"),
        ("factor.gamma=null", "factor.gamma"),
        ("grid.t_end=null", "grid.t_end"),
        ("factor.eps.kind=5", "factor.eps.kind"),
        ("sim.assignment=[1]", "sim.assignment"),
        ("sim.record_moments=1", "sim.record_moments"),
        ("converge.n_values=5", "converge.n_values"),
    ])
    def test_non_number_rejected(self, tmp_path, capsys, override, where):
        # float(True) is 1.0, so a boolean ran to exit 0; float(None) escaped
        # as a TypeError with exit 1
        code = main(["simulate", "--out", str(tmp_path), *SIM_ARGS, "--set", override])
        assert code == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        'factor.eps.kind="bad"',
        "factor.eps.value=-1",
        "factor.gamma=-1",
        "grid.t_end=-1",
        "grid.n_steps=0",
        'sim.assignment="x"',
        "sim.seed=-5",
        "sim.n_firms=0",
        "sim.n_reps=0",
        "converge.n_values=[]",
        "converge.n_values=[0]",
        "converge.n_reps=1",
    ])
    def test_domain_rejection_names_the_path(self, tmp_path, capsys, override):
        # the value is of the right kind, so a domain rule rejects it; the
        # message named only the section ("INVALID_VALUE at factor: ...")
        code = main(["limit", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert f"INVALID_VALUE at {override.split('=')[0]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("override, path", [
        ("sim.n_firms=2.5", "sim.n_firms"),
        ("grid.n_steps=true", "grid.n_steps"),
        ("solver.max_iter=1e400", "solver.max_iter"),
        ("measure.cap=1e400", "measure.cap"),
        ("measure.atoms=[]", "measure.atoms"),
        ('measure.atoms=[{"bogus":1}]', "measure.atoms[0]"),
        pytest.param("grid.t_end=" + "1" * 400, "grid.t_end", id="grid.t_end=400-digits"),
        ("grid.n_steps=3000000000", "grid.n_steps"),
        ("converge.n_values=[1,3000000000]", "converge.n_values[1]"),
    ])
    def test_every_rejected_value_names_its_path(self, tmp_path, capsys, override, path):
        # a wrong kind, a size over the ceiling or a literal out of range was
        # reported at the bare section, with the path inside the message
        # ("INVALID_VALUE at sim: sim.n_firms must be an integer, got 2.5")
        assert main(["limit", "--out", str(tmp_path), "--set", override]) == 2
        assert f"INVALID_VALUE at {path}: " in capsys.readouterr().err

    def test_single_firm_pool_levels(self, tmp_path):
        code = main(
            ["simulate", "--out", str(tmp_path), "--set", "sim.n_firms=1",
             "--set", "sim.n_reps=2", "--set", "grid.n_steps=60"]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "paths.csv")
        assert set(column(header, rows, "L")) <= {0.0, 1.0}

    def test_nonfinite_exit_code(self, tmp_path):
        code = main(
            ["simulate", "--out", str(tmp_path), *SIM_ARGS,
             "--set", "measure.atoms.0.alpha=1e200",
             "--set", "measure.atoms.0.lambda_bar=1e200",
             "--set", "measure.cap=1e300"]
        )
        assert code == 4

    def test_overflowing_moments_exit_code(self, tmp_path, capsys):
        # every intensity is finite, but the recorded second moment of 2e38
        # overflows float32; this escaped as a ValueError from
        # model.Trajectory, exit 1
        atom = {"alpha": 0, "lambda_bar": 0, "sigma": 0, "beta_c": 0, "beta_s": 0,
                "lambda_init": 2e38, "weight": 1}
        code = main(["simulate", "--out", str(tmp_path), "--set", "sim.record_moments=true",
                     "--set", "measure.cap=1e308", "--set", f"measure.atoms=[{json.dumps(atom)}]",
                     "--set", "sim.n_firms=4", "--set", "sim.n_reps=2",
                     "--set", "grid.n_steps=20"])
        assert code == 4
        err = capsys.readouterr().err
        assert "replication 0" in err and "step 0" in err


class TestConvergeCommand:
    def test_rows_and_metadata(self, tmp_path):
        code = main(
            ["converge", "--out", str(tmp_path),
             "--set", "converge.n_values=[40,160]",
             "--set", "converge.n_reps=3",
             "--set", "grid.n_steps=100"]
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["N", "reps", "mean", "median", "q10", "q90"]
        assert column(header, rows, "N", int) == [40, 160]
        manifest = json.loads((tmp_path / "converge_manifest.json").read_text())
        pools = manifest["timing"]["pool_seconds"]
        assert [p["N"] for p in pools] == [40, 160] and all(p["seconds"] >= 0.0 for p in pools)
        assert manifest["solver_residual"] <= 1e-10
        assert "median_violations" in manifest
        assert manifest["rng_contract"] == 7

    def test_sampled_assignment_reaches_the_simulation(self, tmp_path):
        # two atoms of equal weight: a sampled assignment gives each firm its
        # own draw, so the pools, and their distances, differ from the split
        atoms = [{"beta_c": 1.0, "weight": 0.5},
                 {"alpha": 2.0, "lambda_init": 1.5, "weight": 0.5}]
        args = ["--set", f"measure.atoms={json.dumps(atoms)}",
                "--set", "converge.n_values=[10,40]", "--set", "converge.n_reps=4",
                "--set", "grid.n_steps=50"]
        runs = {}
        for assignment in ("proportional", "sampled"):
            out = tmp_path / assignment
            assert main(["converge", "--out", str(out), *args,
                         "--set", f'sim.assignment="{assignment}"']) == 0
            runs[assignment] = out / "convergence.csv"
        assert runs["sampled"].read_bytes() != runs["proportional"].read_bytes()
        run = resolve_config(load_config(str(tmp_path / "sampled" / "converge_manifest.json"),
                                         [], None))
        report = convergence.lln_experiment(run.sim.measure, run.sim.factor, run.sim.grid,
                                            run.n_values, run.converge_reps, seed=run.sim.seed,
                                            assignment="sampled")
        header, rows = read_csv(runs["sampled"])
        assert column(header, rows, "median") == [c.median for c in report.cells]

    def test_rerun_identical_bytes(self, tmp_path):
        # wall-clock time goes to the manifest, never to the data file
        args = ["--set", "converge.n_values=[20,40]", "--set", "converge.n_reps=2",
                "--set", "grid.n_steps=50"]
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["converge", "--out", str(out1), *args]) == 0
        assert main(["converge", "--out", str(out2), *args]) == 0
        assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()

    @pytest.mark.parametrize("override", [
        "converge.n_reps=1",
        "converge.n_reps=2.5",
        'converge.n_values=["a"]',
        "converge.n_values=[0]",
        "converge.n_values=[]",
    ])
    def test_invalid_converge_value_exit_code(self, tmp_path, capsys, override):
        code = main(["converge", "--out", str(tmp_path), "--set", "grid.n_steps=50",
                     "--set", override])
        assert code == 2
        assert override.split("=")[0] in capsys.readouterr().err


# Each of these was ignored by some command and exited 0; now every command
# checks every section.  solver.relaxation is a removed key.
@pytest.mark.parametrize("command", ["limit", "simulate", "converge", "figures"])
@pytest.mark.parametrize("override", [
    "sim.n_firms=0",
    "converge.n_reps=1",
    "factor.eps.value=NaN",
    "measure.cap=NaN",
    "solver.relaxation=0.5",
])
def test_every_command_checks_every_section(tmp_path, capsys, command, override):
    code = main([command, "--out", str(tmp_path), *SIM_ARGS, "--set", override])
    assert code == 2
    key = override.split("=")[0]
    err = capsys.readouterr().err
    # names the section and the field
    assert key.split(".")[0] in err and key.split(".")[-1] in err
    assert not (tmp_path / f"{command}_manifest.json").exists()


# Before the size ceiling these exited 1 (numpy's "Maximum allowed size
# exceeded", "negative dimensions", "Unable to allocate 7.28 TiB") or, for
# sim.n_reps, ran on without end.  Now the resolver stops them before any
# computation, so none of them allocates.
@pytest.mark.parametrize("command, sets", [
    ("limit", ["grid.n_steps=1e308"]),
    ("simulate", ["grid.n_steps=10", "sim.n_firms=1e308"]),
    ("simulate", ["grid.n_steps=10", "sim.n_firms=1e12"]),
    ("simulate", ["grid.n_steps=10", "sim.n_reps=1e308"]),
])
def test_oversized_run_exits_before_computing(tmp_path, capsys, monkeypatch, command, sets):
    def must_not_run(*args):
        raise AssertionError("an oversized run reached the computation")

    monkeypatch.setattr(cli_module, "_run", must_not_run)
    code = main([command, "--out", str(tmp_path), *(a for e in sets for a in ("--set", e))])
    assert code == 2
    field = sets[-1].split("=")[0]
    assert f"at {field}: must be <= {MAX_SIZE}" in capsys.readouterr().err


@pytest.mark.parametrize("key, field", [
    ("grid.n_steps", "grid.n_steps"),
    ("sim.n_firms", "sim.n_firms"),
    ("sim.n_reps", "sim.n_reps"),
    ("converge.n_reps", "converge.n_reps"),
    ("converge.n_values.1", "converge.n_values[1]"),
])
def test_size_ceiling_is_inclusive(key, field):
    resolve_config(load_config(None, [f"{key}={MAX_SIZE}"], None))
    with pytest.raises(ValidationError, match=re.escape(f"at {field}: must be <= {MAX_SIZE}")):
        resolve_config(load_config(None, [f"{key}={MAX_SIZE + 1}"], None))


def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    # a size under the ceiling can still not fit; numpy raises MemoryError
    def no_room(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli_module, "run_replications", no_room)
    code = main(["simulate", "--out", str(tmp_path), "--set", "grid.n_steps=10",
                 "--set", "sim.n_firms=1e9"])
    assert code == 2
    err = capsys.readouterr().err
    assert "OUT_OF_MEMORY" in err and "7.28 TiB" in err
    assert "grid.n_steps=10, sim.n_firms=1000000000, sim.n_reps=20" in err
    assert not (tmp_path / "simulate_manifest.json").exists()


def test_converge_out_of_memory_names_the_pool_sizes(tmp_path, capsys, monkeypatch):
    def no_room(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli_module, "lln_experiment", no_room)
    code = main(["converge", "--out", str(tmp_path), "--set", "grid.n_steps=10",
                 "--set", "converge.n_values=[10,1e9]", "--set", "converge.n_reps=3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error (OUT_OF_MEMORY): converge does not fit in memory at ")
    assert "converge.n_values=[10, 1000000000], converge.n_reps=3" in err
    assert not (tmp_path / "converge_manifest.json").exists()


def test_error_names_every_broken_section(tmp_path, capsys):
    code = main(["limit", "--out", str(tmp_path), *SMALL_GRID,
                 "--set", "measure.atoms.0.sigma=-1", "--set", "converge.n_values=[]"])
    assert code == 2
    err = capsys.readouterr().err
    assert "INVALID_VALUE at measure.atoms[0].sigma: " in err and "converge.n_values" in err


@pytest.mark.parametrize("override", [
    "measure.atoms.0.sigma=-1", "measure.atoms.0.lambda_init=-1", "measure.atoms.0.alpha=1000",
    "measure.atoms.0.beta_s=-1000", "measure.atoms.0.beta_s=NaN", "measure.atoms.0.weight=NaN",
    'measure.atoms=[{"weight": 0.5}, {"weight": 0.6}]', "measure.cap=0",
])
def test_every_path_an_error_names_is_one_set_accepts(tmp_path, capsys, override):
    # the measure named attribute paths (measure.atoms[0].firm_type.sigma),
    # which --set rejects, under codes the README never mentions
    assert main(["limit", "--out", str(tmp_path), *SMALL_GRID, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (VALIDATION): ")
    for part in err.removeprefix("error (VALIDATION): ").rstrip("\n").split("; "):
        assert part.startswith("INVALID_VALUE at ")
        path = part.removeprefix("INVALID_VALUE at ").split(": ", 1)[0]
        key = re.sub(r"\[(\d+)\]", r".\1", path)
        load_config(None, [f"{key}=1"], None)  # raises ConfigError on a key --set rejects


DEEP_LIST = b"[" * 500 + b"]" * 500  # parses, but copying it recursed too deep


@pytest.mark.parametrize("content, named", [
    pytest.param(b"{not json", "cfg.json", id="not-json"),
    pytest.param(b"\xff\xfe{", "cfg.json", id="not-utf8"),
    pytest.param(b"[" * 100_000, "cfg.json", id="nested-past-the-parser"),
    pytest.param(b'{"grid": {"n_steps": ' + DEEP_LIST + b"}}", "grid.n_steps",
                 id="nested-past-a-copy"),
    pytest.param(b"[1, 2]", "cfg.json", id="not-an-object"),
    pytest.param(b'{"command": "limit", "config": 5}', "cfg.json", id="manifest-config-5"),
])
def test_malformed_config_file_exit_code(tmp_path, capsys, content, named):
    # all but not-json and not-an-object escaped with a traceback, exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["limit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("value, named", [
    pytest.param("[" * 100_000, "--set grid.n_steps=", id="nested-past-the-parser"),
    pytest.param(DEEP_LIST.decode(), "grid.n_steps", id="nested-past-a-copy"),
])
def test_deeply_nested_set_value_exit_code(tmp_path, capsys, value, named):
    # too deep to parse is an error, not a raw string; both escaped, exit 1
    assert main(["limit", "--out", str(tmp_path), "--set", f"grid.n_steps={value}"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    pytest.param('measure.atoms.0.alpha="' + "x" * 5000 + '"', "measure.atoms[0].alpha",
                 id="long-string"),
    pytest.param("grid.n_steps=" + DEEP_LIST.decode(), "grid.n_steps", id="deep-list"),
])
def test_error_shows_a_bounded_prefix_of_the_value(tmp_path, capsys, override, field):
    # the whole value was echoed: 5094 bytes, or all 1000 brackets
    assert main(["limit", "--out", str(tmp_path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert len(err.encode()) < 400


def test_bounded_repr_of_a_value_too_deep_for_repr():
    value = []
    for _ in range(100_000):
        value = [value]
    assert bounded_repr(value) == "a list nested too deeply to show"
    assert bounded_repr("x" * 5000) == "'" + "x" * 79 + "..."


@pytest.mark.parametrize("cap", ["NaN", "Infinity", "-1"])
def test_cap_must_be_finite_and_positive(tmp_path, capsys, cap):
    # NaN turned every cap check off and ran; -1 reported a cap violation per field
    assert main(["limit", "--out", str(tmp_path), *SMALL_GRID,
                 "--set", f"measure.cap={cap}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (VALIDATION): INVALID_VALUE at measure.cap: ")
    assert err.count("INVALID_VALUE") == 1


@pytest.fixture
def recorded_solves(monkeypatch):
    """The keyword arguments of every solve_limit call made by the experiments."""
    calls = []
    original = convergence.solve_limit

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(convergence, "solve_limit", recording)
    return calls


@pytest.mark.parametrize("command, args", [
    ("converge", ["--set", "converge.n_values=[20]", "--set", "converge.n_reps=2"]),
    ("figures", []),
])
def test_solver_settings_reach_the_solver(tmp_path, recorded_solves, command, args):
    code = main([command, "--out", str(tmp_path), "--set", "grid.n_steps=40",
                 "--set", "solver.tol=1e-9", "--set", "solver.max_iter=50", *args])
    assert code == 0
    assert recorded_solves
    assert all(call["tol"] == 1e-9 and call["max_iter"] == 50 for call in recorded_solves)


# (file, swept FirmType field, param_value groups) of each curve family
FIGURE_FAMILIES = [
    ("fig1_betaC.csv", "beta_c", [0.0, 1.0, 2.0, 4.0]),
    ("fig2_alpha.csv", "alpha", [2.0, 4.0, 8.0]),
    ("fig3_lambdabar.csv", "lambda_bar", [0.25, 0.5, 1.0]),
]


class TestFiguresCommand:
    def test_files_groups_and_ordering(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path), *SMALL_GRID]) == 0
        grid = TimeGrid(1.0, 80)
        for name, field, groups in FIGURE_FAMILIES:
            header, rows = read_csv(tmp_path / name)
            assert header == ["t", "param_value", "F"]
            values = np.array(column(header, rows, "param_value"))
            assert sorted(set(values)) == groups
            f = np.array(column(header, rows, "F"))
            for value, curve in convergence.figure_sweep(field, groups, grid):
                assert np.array_equal(f[values == value], curve.values)
        header, rows = read_csv(tmp_path / "fig1_betaC.csv")
        assert header == ["t", "param_value", "F"]
        values = column(header, rows, "param_value")
        groups = sorted(set(values))
        assert groups == [0.0, 1.0, 2.0, 4.0]
        by_group = {
            g: np.array([float(r[2]) for r, v in zip(rows, values) if v == g])
            for g in groups
        }
        for lo, hi in zip(groups, groups[1:]):
            assert np.all(by_group[hi] >= by_group[lo] - 1e-12)

    def test_rerun_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["figures", "--out", str(out1), *SMALL_GRID]) == 0
        assert main(["figures", "--out", str(out2), *SMALL_GRID]) == 0
        for name in ("fig1_betaC.csv", "fig2_alpha.csv", "fig3_lambdabar.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestConfigPlumbing:
    def test_set_accepts_json_values(self, tmp_path):
        code = main(
            ["converge", "--out", str(tmp_path),
             "--set", "converge.n_values=[30]",
             "--set", "converge.n_reps=2",
             "--set", "grid.n_steps=50"]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 1

    def test_atom_list_replacement(self, tmp_path):
        atoms = json.dumps([
            {"alpha": 4.0, "lambda_bar": 0.5, "sigma": 0.9, "beta_c": 2.0,
             "lambda_init": 0.5, "weight": 0.5},
            {"alpha": 2.0, "lambda_bar": 0.3, "sigma": 0.5, "beta_c": 1.0,
             "lambda_init": 0.4, "weight": 0.5},
        ])
        code = main(
            ["limit", "--out", str(tmp_path), *SMALL_GRID,
             "--set", f"measure.atoms={atoms}"]
        )
        assert code == 0
        header, _ = read_csv(tmp_path / "limit.csv")
        assert header == ["t", "F", "Q", "b_0", "b_1"]

    def test_atom_field_omitted_takes_the_default_atoms(self, tmp_path):
        # an omitted field read 0.0, so this atom solved to F = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"atoms": [{"beta_c": 4.0}]},
                                   "grid": {"n_steps": 50}}))
        assert main(["limit", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main(["limit", "--out", str(tmp_path / "set"), "--set", "measure.atoms.0.beta_c=4",
                     "--set", "grid.n_steps=50"]) == 0
        limit_csv = [(tmp_path / out / "limit.csv").read_bytes() for out in ("file", "set")]
        assert limit_csv[0] == limit_csv[1]

    def test_config_file_merges_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n_steps": 40}}))
        assert main(["limit", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "limit.csv")
        assert len(rows) == 41

    def test_bad_seed_rejected(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--seed", "-3"]) == 2

    @pytest.mark.parametrize("overrides, loaded, where", [
        pytest.param(["grid=3"], None, "grid", id="set-grid"),
        pytest.param(["factor.eps=0.5"], None, "factor.eps", id="set-eps"),
        pytest.param(["measure.atoms=5"], None, "measure.atoms", id="set-atoms"),
        pytest.param([], {"measure": 3}, "measure", id="file-measure"),
        pytest.param([], {"factor": {"eps": "fixed"}}, "factor.eps", id="file-eps"),
    ])
    def test_malformed_section_exit_code(self, tmp_path, capsys, overrides, loaded, where):
        # a scalar in place of an object section escaped as a TypeError, exit 1
        args = ["limit", "--out", str(tmp_path), *SMALL_GRID]
        for expr in overrides:
            args += ["--set", expr]
        if loaded is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(loaded))
            args += ["--config", str(cfg)]
        assert main(args) == 2
        assert where in capsys.readouterr().err

    def test_set_merges_an_object_into_its_section(self, tmp_path):
        # like a config file: the keys not given keep their values
        assert main(["limit", "--out", str(tmp_path), "--set", 'grid={"n_steps": 40}']) == 0
        _, rows = read_csv(tmp_path / "limit.csv")
        assert len(rows) == 41
        assert float(rows[-1][0]) == 1.0


def test_readme_configuration_block_is_the_default_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == DEFAULT_CONFIG


def test_readme_states_the_error_contract(tmp_path, capsys):
    # every README example of a rejected config prints what it says
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"`--set (\S+)` prints\s+`(error [^`]+)`", section)
    assert {"grid.n_steps=2.5", "measure.atoms.0.sigma=-1"} <= {o for o, _ in examples}
    for override, line in examples:
        assert main(["limit", "--out", str(tmp_path), "--set", override]) == 2
        assert capsys.readouterr().err == line + "\n"


def test_readme_size_sentence_names_the_size_fields():
    # "each `key` entry" names the entries of a list, which the check calls key[]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"Size fields \((.*?)\)", readme, re.DOTALL).group(1)
    named = {name + "[]" if each else name
             for each, name in re.findall(r"(each )?`([^`]+)`", sentence)}
    assert named == set(cli_module.SIZE_FIELDS)


# Fuzz: one leaf of a tiny config replaced by a value of another kind; every
# command must leave through a documented exit code.  Size fields (pool
# sizes, replication and step counts) get invalid kinds, small values and
# 1e308, which the size ceiling rejects before anything runs.
FUZZ_SIZES = {"grid.n_steps": 20, "sim.n_firms": 20, "sim.n_reps": 2, "converge.n_reps": 2}
FUZZ_BASE = [f"{key}={value}" for key, value in FUZZ_SIZES.items()] + ["converge.n_values=[10,20]"]
FUZZ_VALUES = [True, False, None, "x", [], [1], {}, {"k": 1}, math.nan, math.inf, -math.inf,
               0, -1, 1e308]


def _leaves(node, path=()):
    """Dotted paths of every non-object value under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, dict):
            yield from _leaves(value, path + (str(key),))
        else:
            yield ".".join(path + (str(key),))
            if isinstance(value, list):
                yield from _leaves(value, path + (str(key),))


FUZZ_LEAVES = sorted(_leaves(load_config(None, FUZZ_BASE, None)))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command=st.sampled_from(["limit", "simulate", "converge", "figures"]),
       leaf=st.sampled_from(FUZZ_LEAVES), data=st.data())
def test_fuzzed_leaf_exits_with_a_documented_code(tmp_path_factory, command, leaf, data):
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    sets = [arg for expr in FUZZ_BASE + [f"{leaf}={json.dumps(value)}"]
            for arg in ("--set", expr)]
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()  # capsys is per test, not per example
    with contextlib.redirect_stderr(err):
        assert main([command, "--out", str(out), *sets]) in {0, 2, 3, 4, 5}
    if err.getvalue().startswith("error (VALIDATION)"):
        # a rejected value is named by its path, never by its bare section
        assert not re.search(r"at (measure|factor|grid|solver|sim|converge): ", err.getvalue())
        # and prints in the one form, whatever rule rejected it
        for part in err.getvalue().removeprefix("error (VALIDATION): ").split("; "):
            assert re.match(r"INVALID_VALUE at [\w.\[\]]+: ", part)


# Config input: a --config file and --set go through one overlay, and every
# key an error echoes is bounded like a value.
LONG_KEY = "k" * 3000


def test_set_with_long_key_and_deep_value_shows_a_bounded_key(tmp_path, capsys):
    # the whole key was echoed: 3070 bytes
    assert main(["limit", "--out", str(tmp_path),
                 "--set", f"{LONG_KEY}={'[' * 100_000}"]) == 2
    assert len(capsys.readouterr().err.encode()) < 400


def test_config_file_with_long_key_shows_a_bounded_key(tmp_path, capsys):
    # the whole key was echoed: 3043 bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({LONG_KEY: 1}))
    assert main(["limit", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.encode()) < 400


@pytest.mark.parametrize("how", ["set", "file"])
def test_control_character_in_a_key_keeps_one_line(tmp_path, capsys, how):
    # the newline was echoed raw: three lines
    if how == "set":
        args = ["--set", "grid.st\neps=5"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"st\neps": 5}}))
        args = ["--config", str(cfg)]
    assert main(["limit", "--out", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (CONFIG_PARSE): ") and err.count("\n") == 1
    assert "st\\neps" in err


TWO_ATOMS = [{"alpha": 4.0, "lambda_bar": 0.5, "sigma": 0.9, "beta_c": 2.0,
              "lambda_init": 0.2, "weight": 0.5},
             {"alpha": 2.0, "lambda_bar": 0.25, "sigma": 0.5, "beta_c": 1.0,
              "lambda_init": 0.8, "weight": 0.5}]


@pytest.mark.parametrize("key, value", [
    pytest.param("grid", {"n_steps": 40}, id="object-merged-into-section"),
    pytest.param("measure.atoms", TWO_ATOMS, id="list-replaced-whole"),
])
def test_config_file_and_set_overlay_alike(tmp_path, key, value):
    section, _, field = key.partition(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {field: value} if field else value}))
    from_file = load_config(str(cfg), [], None)
    assert from_file == load_config(None, [f"{key}={json.dumps(value)}"], None)
    assert from_file["grid"]["t_end"] == DEFAULT_CONFIG["grid"]["t_end"]
    if field:
        assert from_file[section][field] == value


def test_set_without_equals_sign_exit_code(tmp_path, capsys):
    assert main(["limit", "--out", str(tmp_path), "--set", "grid.n_steps"]) == 2
    assert capsys.readouterr().err == ("error (CONFIG_PARSE): --set expects key=value, "
                                       "got 'grid.n_steps'\n")


def test_set_value_that_is_not_json_is_kept_as_a_string(tmp_path):
    sizes = ["--set", "sim.n_firms=7", "--set", "sim.n_reps=3", "--set", "grid.n_steps=20"]
    raw, quoted = tmp_path / "raw", tmp_path / "quoted"
    assert main(["simulate", "--out", str(raw), *sizes, "--set", "sim.assignment=sampled"]) == 0
    assert main(["simulate", "--out", str(quoted), *sizes,
                 "--set", 'sim.assignment="sampled"']) == 0
    assert (raw / "paths.csv").read_bytes() == (quoted / "paths.csv").read_bytes()
    manifest = json.loads((raw / "simulate_manifest.json").read_text())
    assert manifest["config"]["sim"]["assignment"] == "sampled"


def test_set_negative_index_edits_the_last_atom():
    atoms = json.dumps(TWO_ATOMS)
    config = load_config(None, [f"measure.atoms={atoms}", "measure.atoms.-1.beta_c=4"], None)
    assert config["measure"]["atoms"] == [TWO_ATOMS[0], dict(TWO_ATOMS[1], beta_c=4)]


@pytest.mark.parametrize("key, segment", [
    pytest.param("measure.atoms.5.alpha", "5", id="index-out-of-range"),
    pytest.param("grid.steps", "steps", id="unknown-key"),
    pytest.param("measure.atoms.0.alpha.x", "x", id="into-a-scalar"),
])
def test_set_path_error_names_its_segment(tmp_path, capsys, key, segment):
    assert main(["limit", "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
    err = capsys.readouterr().err
    assert f"--set {key}=1" in err and err.rstrip().endswith(f"has no entry {segment}")


@pytest.mark.parametrize("error, code", [
    pytest.param(ConfigError("bad"), 2, id="config"),
    pytest.param(ValidationError([FieldError("grid", "bad")]), 2, id="validation"),
    pytest.param(MemoryError("no room"), 2, id="memory"),
    pytest.param(NoConvergenceError(2, 0.5, 1e-10), 3, id="no-convergence"),
    pytest.param(NonFiniteResultError("nan"), 4, id="nonfinite-result"),
    pytest.param(NonFiniteStateError(0, 1, 2), 4, id="nonfinite-state"),
    pytest.param(OSError("disk"), 5, id="io"),
    pytest.param(CreditPoolError("internal"), 1, id="internal"),
])
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code):
    def failing_run(*args):
        raise error

    monkeypatch.setattr(cli_module, "_run", failing_run)
    assert main(["limit", "--out", str(tmp_path), *SMALL_GRID]) == code
    err = capsys.readouterr().err
    assert err.startswith("error (") and err.count("\n") == 1 and err.endswith("\n")


def _python_m_creditpool(cwd, *args):
    """``python -m creditpool`` in a fresh process, importing this checkout's package."""
    src = str(Path(cli_module.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "creditpool", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_simulation_commands_leave_numpy_ma_unimported(tmp_path, command):
    # np.median and np.quantile import numpy.ma (about 16 ms and 1.35 MB a
    # process); the aggregates are read off one sort instead
    src = str(Path(cli_module.__file__).parents[1])
    script = ("import sys\nfrom creditpool.cli import main\n"
              "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", script, command, "--out", str(tmp_path), *SIM_ARGS,
         "--set", "converge.n_values=[20,40]", "--set", "converge.n_reps=3"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]


def test_python_m_creditpool_writes_limit_csv(tmp_path):
    done = _python_m_creditpool(tmp_path, "limit", "--set", "grid.n_steps=20")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "limit.csv").read_text().splitlines()[0] == "t,F,Q,b_0"


def test_python_m_creditpool_reports_a_bad_key_in_one_line(tmp_path):
    done = _python_m_creditpool(tmp_path, "limit", "--set", "grid.steps=5")
    assert done.returncode == 2
    assert done.stderr.startswith("error (") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["limit", "converge"])
def test_nonfinite_limit_solve_reports_in_one_line(tmp_path, command):
    # the solve's overflow is reported once, by the error, not by numpy warnings
    done = _python_m_creditpool(
        tmp_path, command, "--set", "grid.t_end=1e306", "--set", "grid.n_steps=4",
        "--set", "measure.atoms.0.alpha=0", "--set", "measure.atoms.0.sigma=0",
        "--set", "measure.atoms.0.lambda_bar=0")
    assert done.returncode == 4
    assert done.stderr.startswith("error (NONFINITE_RESULT)") and done.stderr.count("\n") == 1


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_outputs():
    """README "Outputs": per command, the files it always writes and those
    it adds with ``sim.record_moments``."""
    section = README.split("### Outputs", 1)[1].split("\n#", 1)[0]
    files = {}
    for command, cell in re.findall(r"^\| `(\w+)`\s*\| (.*?)\s*\|$", section, re.MULTILINE):
        always, _, moments = cell.partition("with `sim.record_moments` also")
        files[command] = tuple(set(re.findall(r"`([\w.]+\.(?:csv|json))`", part))
                               for part in (always, moments))
    return files


README_OUTPUTS = _readme_outputs()
# every `creditpool ...` line of README "CLI"'s code blocks, as a shell reads it
README_EXAMPLES = [shlex.split(line, comments=True)
                   for block in re.findall(r"```bash\n(.*?)```",
                                           README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0],
                                           re.DOTALL)
                   for line in block.splitlines() if line.startswith("creditpool ")]
# appended to each example; a later --set wins, but cannot rescue an unknown key
EXAMPLE_SIZES = ["--set", "grid.n_steps=20", "--set", "sim.n_firms=50", "--set", "sim.n_reps=2",
                 "--set", "converge.n_values=[20,40]", "--set", "converge.n_reps=2"]


def test_readme_examples_cover_every_command():
    assert set(README_OUTPUTS) == {"limit", "simulate", "converge", "figures"}
    assert {argv[1] for argv in README_EXAMPLES} == set(README_OUTPUTS)


@pytest.mark.parametrize("argv", README_EXAMPLES,
                         ids=[f"{i}-{argv[1]}" for i, argv in enumerate(README_EXAMPLES)])
def test_readme_cli_example_runs_as_written(argv, tmp_path):
    assert argv[0] == "creditpool"
    args = argv[1:]
    if "--out" in args:
        args[args.index("--out") + 1] = str(tmp_path)
    else:
        args += ["--out", str(tmp_path)]
    assert main([*args, *EXAMPLE_SIZES]) == 0
    always, moments = README_OUTPUTS[args[0]]
    expected = always | moments if "sim.record_moments=true" in args else always
    assert {path.name for path in tmp_path.iterdir()} == expected
    manifest = json.loads((tmp_path / f"{args[0]}_manifest.json").read_text())
    assert set(manifest["environment"]) == {"python", "numpy", "simd"}


def test_manifest_names_the_numpy_build_and_simd_dispatch(tmp_path):
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy found no SIMD extension to dispatch to on this host")
    here, less, again = tmp_path / "here", tmp_path / "less", tmp_path / "again"
    assert main(["limit", "--out", str(here), "--set", "grid.n_steps=20"]) == 0
    manifest = here / "limit_manifest.json"
    assert json.loads(manifest.read_text())["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__, "simd": found}
    # the variable acts only on the child process it is set for
    src = str(Path(cli_module.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "creditpool", "limit", "--out", str(less),
         "--set", "grid.n_steps=20"],
        env={**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": found[-1]},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    simd = json.loads((less / "limit_manifest.json").read_text())["environment"]["simd"]
    assert found[-1] not in simd and set(simd) < set(found)
    # a manifest passed back as --config still reproduces the run
    assert main(["limit", "--out", str(again), "--config", str(manifest)]) == 0
    assert (again / "limit.csv").read_bytes() == (here / "limit.csv").read_bytes()
