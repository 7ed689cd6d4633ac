import json
import math
import re
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import ValidationError, convergence, moment_diagnostic, run_replications
from creditpool.cli import DEFAULT_CONFIG, MAX_SIZE, load_config, main, resolve_config

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
        assert manifest["rng_contract"] == 3
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
        for p, name in ((1, "m1"), (2, "m2")):
            got = np.reshape(column(header, rows, name), (n_reps, grid.n_points))
            want = np.stack([moment_diagnostic(r, p).values for r in expected])
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
    ])
    def test_non_number_rejected(self, tmp_path, capsys, override, where):
        # float(True) is 1.0, so a boolean ran to exit 0; float(None) escaped
        # as a TypeError with exit 1
        code = main(["simulate", "--out", str(tmp_path), *SIM_ARGS, "--set", override])
        assert code == 2
        assert where in capsys.readouterr().err

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
        # every intensity is finite, but the pool mean of 6e307 overflows;
        # this escaped as a ValueError from model.Trajectory, exit 1
        atom = {"alpha": 0, "lambda_bar": 0, "sigma": 0, "beta_c": 0, "beta_s": 0,
                "lambda_init": 6e307, "weight": 1}
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
        assert manifest["rng_contract"] == 3

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
    assert f"{field} must be <= {MAX_SIZE}" in capsys.readouterr().err


@pytest.mark.parametrize("key, field", [
    ("grid.n_steps", "grid.n_steps"),
    ("sim.n_firms", "sim.n_firms"),
    ("sim.n_reps", "sim.n_reps"),
    ("converge.n_reps", "converge.n_reps"),
    ("converge.n_values.1", "converge.n_values[]"),
])
def test_size_ceiling_is_inclusive(key, field):
    resolve_config(load_config(None, [f"{key}={MAX_SIZE}"], None))
    with pytest.raises(ValidationError, match=re.escape(f"{field} must be <= {MAX_SIZE}")):
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


def test_error_names_every_broken_section(tmp_path, capsys):
    code = main(["limit", "--out", str(tmp_path), *SMALL_GRID,
                 "--set", "measure.atoms.0.sigma=-1", "--set", "converge.n_values=[]"])
    assert code == 2
    err = capsys.readouterr().err
    assert "measure.atoms[0].firm_type.sigma" in err and "converge.n_values" in err


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


@pytest.mark.parametrize("cap", ["NaN", "Infinity", "-1"])
def test_cap_must_be_finite_and_positive(tmp_path, capsys, cap):
    # NaN turned every cap check off and ran; -1 reported a CAP_EXCEEDED per field
    assert main(["limit", "--out", str(tmp_path), *SMALL_GRID,
                 "--set", f"measure.cap={cap}"]) == 2
    err = capsys.readouterr().err
    assert "measure.cap" in err and "CAP_EXCEEDED" not in err


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


class TestFiguresCommand:
    def test_files_groups_and_ordering(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path), *SMALL_GRID]) == 0
        for name in ("fig1_betaC.csv", "fig2_alpha.csv", "fig3_lambdabar.csv"):
            assert (tmp_path / name).exists()
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
    assert main([command, "--out", str(out), *sets]) in {0, 2, 3, 4, 5}
