"""Command-line interface: config parsing, CSV/manifest output.

The only module that touches files and process arguments.  Subcommands:

* ``limit``     solve the large-pool limit, write t,F,Q,b_* columns
* ``simulate``  run replications of the finite pool, write paths + aggregate
  (+ intensity moments when ``sim.record_moments`` is set)
* ``converge``  distance-versus-pool-size study, one CSV row per pool size
* ``figures``   the three baked-in parameter-sweep curve families

Configuration is one JSON object with sections ``measure``, ``factor``,
``grid``, ``solver``, ``sim``, ``converge``; every field is optional and
defaults are materialized into the manifest written next to each output.
A manifest can itself be passed back as ``--config`` to reproduce a run.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .convergence import (
    contagion_sweep,
    figure_sweep,
    lln_experiment,
    reversion_level_sweep,
    reversion_speed_sweep,
)
from .errors import (
    ConfigError,
    CreditPoolError,
    NoConvergenceError,
    NonFiniteResultError,
    NonFiniteStateError,
    ValidationError,
)
from .limit import solve_limit
from .model import (
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    TypeAtom,
    validate_measure,
)
from .riccati import METHODS
from .simulate import RNG_CONTRACT, SimConfig, moment_diagnostic, run_replications

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NONFINITE = 4
EXIT_IO = 5

DEFAULT_CONFIG = {
    "measure": {
        "cap": 100.0,
        "atoms": [
            {
                "alpha": 4.0,
                "lambda_bar": 0.5,
                "sigma": 0.9,
                "beta_c": 2.0,
                "beta_s": 0.0,
                "lambda_init": 0.5,
                "weight": 1.0,
            }
        ],
    },
    "factor": {"gamma": 1.0, "x_init": 0.0, "eps": {"kind": "inverse_sqrt", "value": 1.0}},
    "grid": {"t_end": 1.0, "n_steps": 1000},
    "solver": {"tol": 1e-10, "max_iter": 200, "method": "closed_form", "relaxation": 1.0},
    "sim": {
        "n_firms": 10000,
        "n_reps": 20,
        "seed": 20260810,
        "assignment": "proportional",
        "record_moments": False,
    },
    "converge": {"n_values": [100, 1000, 10000], "n_reps": 20},
}

_ATOM_KEYS = {"alpha", "lambda_bar", "sigma", "beta_c", "beta_s", "lambda_init", "weight"}


# ---------------------------------------------------------------------------
# configuration plumbing


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        out[key] = _overlay(base[key], value, where)
    return out


def _overlay(old, new, where: str):
    """``new`` in place of ``old``; an object section takes only an object, merged into it."""
    if not isinstance(old, dict):
        return copy.deepcopy(new)
    if not isinstance(new, dict):
        raise ConfigError(f"{where} must be an object, got {new!r}")
    return _deep_merge(old, new, where)


def _parse_set(expr: str) -> tuple[list[str], object]:
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_set(config: dict, segments: list[str], value, expr: str) -> None:
    node = config
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        if isinstance(node, list):
            try:
                idx = int(seg)
                node[idx]  # noqa: B018 - bounds check
            except (ValueError, IndexError):
                raise ConfigError(f"bad list index {seg!r} in --set {expr!r}") from None
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if seg not in node:
                raise ConfigError(f"unknown config key {seg!r} in --set {expr!r}")
            if last:
                node[seg] = _overlay(node[seg], value, ".".join(segments))
            else:
                node = node[seg]
        else:
            raise ConfigError(f"cannot descend into scalar at {seg!r} in --set {expr!r}")


def load_config(path: str | None, sets: list[str], seed: int | None) -> dict:
    """Defaults, overlaid by the config file, --set overrides, then --seed."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        if "command" in loaded and "config" in loaded:
            loaded = loaded["config"]  # accept a manifest as a config
        config = _deep_merge(config, loaded)
    for expr in sets:
        segments, value = _parse_set(expr)
        _apply_set(config, segments, value, expr)
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        config["sim"]["seed"] = seed
    return config


def _number(value, where: str) -> float:
    """A JSON number as a float; never a boolean, which float() reads as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(value, where: str) -> int:
    """A JSON integer, or a float with an integral value (1e3); nothing else."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def build_measure(config: dict) -> tuple[DiscreteTypeMeasure, float]:
    section = config["measure"]
    cap = _number(section["cap"], "measure.cap")
    if not isinstance(section["atoms"], list):
        raise ConfigError(f"measure.atoms must be a list of objects, got {section['atoms']!r}")
    atoms = []
    for i, entry in enumerate(section["atoms"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"measure.atoms[{i}] must be an object")
        unknown = set(entry) - _ATOM_KEYS
        if unknown:
            raise ConfigError(f"measure.atoms[{i}] has unknown keys: {sorted(unknown)}")
        fields = {key: _number(value, f"measure.atoms[{i}].{key}")
                  for key, value in entry.items()}
        try:
            atoms.append(
                TypeAtom(
                    firm_type=FirmType(
                        alpha=fields.get("alpha", 0.0),
                        lambda_bar=fields.get("lambda_bar", 0.0),
                        sigma=fields.get("sigma", 0.0),
                        beta_c=fields.get("beta_c", 0.0),
                        beta_s=fields.get("beta_s", 0.0),
                    ),
                    lambda_init=fields.get("lambda_init", 0.0),
                    weight=fields.get("weight", 1.0),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"measure.atoms[{i}]: {exc}") from exc
    try:
        measure = DiscreteTypeMeasure(atoms=tuple(atoms))
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc
    return validate_measure(measure, cap=cap), cap


def build_factor(config: dict) -> SystematicFactorConfig:
    section = config["factor"]
    eps = section["eps"]
    if not isinstance(eps, dict) or set(eps) - {"kind", "value"}:
        raise ConfigError("factor.eps must be {kind, value}")
    try:
        return SystematicFactorConfig(
            gamma=_number(section["gamma"], "factor.gamma"),
            x_init=_number(section["x_init"], "factor.x_init"),
            eps=EpsSchedule(kind=eps.get("kind", "inverse_sqrt"),
                            value=_number(eps.get("value", 1.0), "factor.eps.value")),
        )
    except ValueError as exc:
        raise ConfigError(f"factor: {exc}") from exc


def build_grid(config: dict) -> TimeGrid:
    section = config["grid"]
    n_steps = _integer(section["n_steps"], "grid.n_steps")
    try:
        return TimeGrid(t_end=_number(section["t_end"], "grid.t_end"), n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


@dataclass(frozen=True)
class SolverSettings:
    tol: float
    max_iter: int
    method: str
    relaxation: float


def build_solver(config: dict) -> SolverSettings:
    section = config["solver"]
    settings = SolverSettings(
        tol=_number(section["tol"], "solver.tol"),
        max_iter=_integer(section["max_iter"], "solver.max_iter"),
        method=section["method"],
        relaxation=_number(section["relaxation"], "solver.relaxation"),
    )
    if not (settings.tol > 0.0 and math.isfinite(settings.tol)):
        raise ConfigError(f"solver.tol must be finite and > 0, got {settings.tol!r}")
    if settings.max_iter < 1:
        raise ConfigError("solver.max_iter must be >= 1")
    if settings.method not in METHODS:
        raise ConfigError(f"solver.method must be one of {METHODS}, got {settings.method!r}")
    if not 0.0 < settings.relaxation <= 1.0:
        raise ConfigError(f"solver.relaxation must be in (0, 1], got {settings.relaxation!r}")
    return settings


def build_sim(config: dict, grid: TimeGrid) -> tuple[SimConfig, int]:
    """The ``sim`` section as a simulation config plus its replication count."""
    measure, _ = build_measure(config)
    factor = build_factor(config)
    sim = config["sim"]
    if not isinstance(sim["record_moments"], bool):
        raise ConfigError("sim.record_moments must be true or false")
    n_reps = _integer(sim["n_reps"], "sim.n_reps")
    if n_reps < 1:
        raise ConfigError("sim.n_reps must be >= 1")
    try:
        sim_config = SimConfig(
            n_firms=_integer(sim["n_firms"], "sim.n_firms"),
            measure=measure,
            factor=factor,
            grid=grid,
            seed=_integer(sim["seed"], "sim.seed"),
            assignment=sim["assignment"],
            record_moments=sim["record_moments"],
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc
    return sim_config, n_reps


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _fmt_column(values) -> list[str]:
    """:func:`_fmt` of every entry of a float array."""
    return [repr(x) for x in values.tolist()]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_manifest(path: Path, command: str, config: dict, grid: TimeGrid,
                    timing: dict, extra: dict | None = None) -> None:
    """``timing["seconds"]`` is the command's computation; other keys are phases."""
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": config["sim"]["seed"],
        "config": config,
        "grid": {"t_end": grid.t_end, "n_steps": grid.n_steps, "dt": grid.dt},
        "timing": timing,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_limit(config: dict, out: Path) -> None:
    measure, _ = build_measure(config)
    grid = build_grid(config)
    solver = build_solver(config)
    started = time.perf_counter()
    sol = solve_limit(measure, grid, tol=solver.tol, max_iter=solver.max_iter,
                      method=solver.method, relaxation=solver.relaxation)
    seconds = time.perf_counter() - started
    header = ["t", "F", "Q"] + [f"b_{i}" for i in range(len(measure))]
    columns = [_fmt_column(grid.points()), _fmt_column(sol.f.values),
               _fmt_column(sol.q.values)]
    b_columns = {}  # atoms of one firm type share their Riccati solution
    for r in sol.riccati:
        if id(r) not in b_columns:
            b_columns[id(r)] = _fmt_column(r.b.values)
        columns.append(b_columns[id(r)])
    _write_csv(out / "limit.csv", header, zip(*columns))
    write_seconds = time.perf_counter() - started - seconds
    _write_manifest(out / "limit_manifest.json", "limit", config, grid,
                    {"seconds": seconds, "write_seconds": write_seconds},
                    {"solver_iterations": sol.iterations,
                     "solver_residual": sol.residual,
                     "residual_history": list(sol.residual_history)})


def _cmd_simulate(config: dict, out: Path) -> None:
    grid = build_grid(config)
    sim_config, n_reps = build_sim(config, grid)
    started = time.perf_counter()
    reps = run_replications(sim_config, n_reps)
    seconds = time.perf_counter() - started
    t = grid.points()
    rows = (
        [_fmt(t[k]), str(r.replication), _fmt(r.l_path.values[k])]
        for r in reps.results
        for k in range(grid.n_points)
    )
    _write_csv(out / "paths.csv", ["t", "rep", "L"], rows)
    agg = (
        [_fmt(t[k]), _fmt(reps.mean.values[k]), _fmt(reps.q10.values[k]),
         _fmt(reps.q90.values[k])]
        for k in range(grid.n_points)
    )
    _write_csv(out / "aggregate.csv", ["t", "mean", "q10", "q90"], agg)
    if sim_config.record_moments:
        t_column = _fmt_column(t)
        moments = (
            row
            for r in reps.results
            for row in zip(t_column, [str(r.replication)] * grid.n_points,
                           _fmt_column(moment_diagnostic(r, 1).values),
                           _fmt_column(moment_diagnostic(r, 2).values))
        )
        _write_csv(out / "moments.csv", ["t", "rep", "m1", "m2"], moments)
    write_seconds = time.perf_counter() - started - seconds
    _write_manifest(out / "simulate_manifest.json", "simulate", config, grid,
                    {"seconds": seconds, "write_seconds": write_seconds},
                    {"rng_contract": RNG_CONTRACT})


def _cmd_converge(config: dict, out: Path) -> None:
    measure, _ = build_measure(config)
    grid = build_grid(config)
    factor = build_factor(config)
    solver = build_solver(config)
    section = config["converge"]
    if not isinstance(section["n_values"], list) or not section["n_values"]:
        raise ConfigError("converge.n_values must be a non-empty list of pool sizes")
    n_values = [_integer(n, "converge.n_values[]") for n in section["n_values"]]
    if min(n_values) < 1:
        raise ConfigError("converge.n_values must all be >= 1")
    n_reps = _integer(section["n_reps"], "converge.n_reps")
    if n_reps < 2:
        raise ConfigError("converge.n_reps must be >= 2")
    started = time.perf_counter()
    report = lln_experiment(
        measure, factor, grid, n_values, n_reps, seed=config["sim"]["seed"],
        tol=solver.tol, max_iter=solver.max_iter, method=solver.method,
        relaxation=solver.relaxation,
    )
    seconds = time.perf_counter() - started
    rows = (
        [str(c.n_firms), str(c.n_reps), _fmt(c.mean), _fmt(c.median),
         _fmt(c.q10), _fmt(c.q90), _fmt(c.seconds)]
        for c in report.cells
    )
    _write_csv(out / "convergence.csv",
               ["N", "reps", "mean", "median", "q10", "q90", "seconds"], rows)
    _write_manifest(out / "converge_manifest.json", "converge", config, grid,
                    {"seconds": seconds},
                    {"rng_contract": RNG_CONTRACT,
                     "solver_iterations": report.solver_iterations,
                     "solver_residual": report.solver_residual,
                     "median_violations": list(report.median_violations)})


_FIGURE_FILES = (
    ("fig1_betaC.csv", contagion_sweep),
    ("fig2_alpha.csv", reversion_speed_sweep),
    ("fig3_lambdabar.csv", reversion_level_sweep),
)


def _cmd_figures(config: dict, out: Path) -> None:
    grid = build_grid(config)
    solver = build_solver(config)
    t = grid.points()
    started = time.perf_counter()
    for filename, sweep_builder in _FIGURE_FILES:
        rows = []
        for value, f in figure_sweep(sweep_builder(grid), tol=solver.tol,
                                     max_iter=solver.max_iter, method=solver.method,
                                     relaxation=solver.relaxation):
            rows.extend(
                [_fmt(t[k]), _fmt(value), _fmt(f.values[k])]
                for k in range(grid.n_points)
            )
        _write_csv(out / filename, ["t", "param_value", "F"], rows)
    seconds = time.perf_counter() - started
    _write_manifest(out / "figures_manifest.json", "figures", config, grid,
                    {"seconds": seconds})


_COMMANDS = {
    "limit": _cmd_limit,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "figures": _cmd_figures,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creditpool",
        description="Default clustering in large pools: simulate the finite "
                    "pool and solve its deterministic limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("limit", "solve the large-pool limit curves F, Q, b"),
        ("simulate", "Monte Carlo replications of the finite pool"),
        ("converge", "sup-distance to the limit across pool sizes"),
        ("figures", "baked-in parameter-sweep curve families"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config (or manifest) path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config entry (repeatable, JSON values)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.set, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, out)
        return EXIT_OK
    except (ConfigError, ValidationError) as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergenceError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (NonFiniteResultError, NonFiniteStateError) as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except OSError as exc:
        print(f"error (IO): {exc}", file=sys.stderr)
        return EXIT_IO
    except CreditPoolError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
