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

A run is one pipeline: :func:`resolve_config` checks every section,
whichever command runs; the command only computes its tables; and
:func:`_run` writes them and the manifest.
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

import numpy as np

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
    Violation,
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
    whole_number,
)
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
    "solver": {"tol": 1e-10, "max_iter": 200},
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
    """``new`` in place of ``old``; an object section takes only an object, merged into it.

    ``new`` is freshly parsed JSON that nothing else holds, so it is not copied.
    """
    if not isinstance(old, dict):
        return new
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
    except RecursionError:  # valid so far, but too deep to parse: not a raw string
        raise ConfigError(f"--set {key}=...: the JSON value is nested too deeply") from None
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
            loaded = json.loads(p.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if isinstance(loaded, dict) and "command" in loaded and "config" in loaded:
            loaded = loaded["config"]  # accept a manifest as a config
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
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
    """A JSON number as a float; never a boolean (float() reads it as 0 or 1) or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the double range
        raise ConfigError(f"{where} is out of range, got {value!r}") from None


# Ceiling of every size field (steps, firms, replications, pool sizes): far
# beyond any run that fits in memory, and low enough that no array shape
# or loop count built from it overflows.
MAX_SIZE = 2**31 - 1


def _size(value, where: str) -> int:
    """An integer (see :func:`whole_number`) no larger than :data:`MAX_SIZE`."""
    n = whole_number(value, where)
    if n > MAX_SIZE:
        raise ConfigError(f"{where} must be <= {MAX_SIZE}, got {value!r}")
    return n


# One builder per section.  Each raises ConfigError for a field it checks
# itself (ValueError from whole_number); the domain constructors raise
# ValueError or ValidationError for the rules they own.


def _measure(section: dict) -> DiscreteTypeMeasure:
    cap = _number(section["cap"], "measure.cap")
    if not (cap > 0.0 and math.isfinite(cap)):
        raise ConfigError(f"measure.cap must be finite and > 0, got {cap!r}")
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
    return validate_measure(DiscreteTypeMeasure(atoms=tuple(atoms)), cap=cap)


def _factor(section: dict) -> SystematicFactorConfig:
    eps = section["eps"]
    return SystematicFactorConfig(
        gamma=_number(section["gamma"], "factor.gamma"),
        x_init=_number(section["x_init"], "factor.x_init"),
        eps=EpsSchedule(kind=eps["kind"], value=_number(eps["value"], "factor.eps.value")),
    )


def _grid(section: dict) -> TimeGrid:
    return TimeGrid(t_end=_number(section["t_end"], "grid.t_end"),
                    n_steps=_size(section["n_steps"], "grid.n_steps"))


def _solver(section: dict) -> tuple[float, int]:
    tol = _number(section["tol"], "solver.tol")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ConfigError(f"solver.tol must be finite and > 0, got {tol!r}")
    max_iter = whole_number(section["max_iter"], "solver.max_iter")
    if max_iter < 1:
        raise ConfigError("solver.max_iter must be >= 1")
    return tol, max_iter


def _sim(section: dict, measure, factor, grid) -> tuple[SimConfig, int]:
    if not isinstance(section["record_moments"], bool):
        raise ConfigError("sim.record_moments must be true or false")
    n_reps = _size(section["n_reps"], "sim.n_reps")
    if n_reps < 1:
        raise ConfigError("sim.n_reps must be >= 1")
    # SimConfig checks n_firms, seed and assignment; it does not look at
    # the measure, factor or grid, so a broken one (None) still lets it run
    sim = SimConfig(
        n_firms=_size(section["n_firms"], "sim.n_firms"),
        measure=measure,
        factor=factor,
        grid=grid,
        seed=whole_number(section["seed"], "sim.seed"),
        assignment=section["assignment"],
        record_moments=section["record_moments"],
    )
    return sim, n_reps


def _converge(section: dict) -> tuple[tuple[int, ...], int]:
    if not isinstance(section["n_values"], list) or not section["n_values"]:
        raise ConfigError("converge.n_values must be a non-empty list of pool sizes")
    n_values = tuple(_size(n, "converge.n_values[]") for n in section["n_values"])
    if min(n_values) < 1:
        raise ConfigError("converge.n_values must all be >= 1")
    n_reps = _size(section["n_reps"], "converge.n_reps")
    if n_reps < 2:
        raise ConfigError("converge.n_reps must be >= 2")
    return n_values, n_reps


@dataclass(frozen=True)
class RunConfig:
    """A whole config, checked: what any command reads."""

    sim: SimConfig  # also the measure, factor, grid and seed of every command
    sim_reps: int
    tol: float
    max_iter: int
    n_values: tuple[int, ...]
    converge_reps: int


def resolve_config(config: dict) -> RunConfig:
    """Check every section of a loaded config, whichever command will run.

    A broken section is recorded and the rest are still checked, so the one
    :class:`ValidationError` raised names every broken section.
    """
    violations: list[Violation] = []

    def checked(name: str, build, *args):
        try:
            return build(config[name], *args)
        except ValidationError as exc:
            violations.extend(Violation(v.code, f"{name}.{v.where}", v.message)
                              for v in exc.violations)
        except (ConfigError, ValueError) as exc:
            violations.append(Violation("INVALID_VALUE", name, str(exc)))
        return None

    measure = checked("measure", _measure)
    factor = checked("factor", _factor)
    grid = checked("grid", _grid)
    solver = checked("solver", _solver)
    sim = checked("sim", _sim, measure, factor, grid)
    converge = checked("converge", _converge)
    if violations:
        raise ValidationError(violations)
    return RunConfig(sim=sim[0], sim_reps=sim[1], tol=solver[0], max_iter=solver[1],
                     n_values=converge[0], converge_reps=converge[1])


# ---------------------------------------------------------------------------
# commands: each computes ([(file name, header, columns)], manifest extras);
# a column is a numpy array, written as one CSV field per entry


def _cmd_limit(run: RunConfig):
    measure, grid = run.sim.measure, run.sim.grid
    sol = solve_limit(measure, grid, tol=run.tol, max_iter=run.max_iter)
    # atoms of one firm type share their Riccati solution, so one b array
    header = ["t", "F", "Q"] + [f"b_{i}" for i in range(len(measure))]
    columns = [grid.points(), sol.f.values, sol.q.values] + [r.b.values for r in sol.riccati]
    return [("limit.csv", header, columns)], {
        "solver_iterations": sol.iterations,
        "solver_residual": sol.residual,
        "residual_history": list(sol.residual_history),
    }


def _cmd_simulate(run: RunConfig):
    grid = run.sim.grid
    reps = run_replications(run.sim, run.sim_reps)
    results = reps.results
    t = np.tile(grid.points(), len(results))
    rep = np.repeat([r.replication for r in results], grid.n_points)
    tables = [
        ("paths.csv", ["t", "rep", "L"],
         [t, rep, np.concatenate([r.l_path.values for r in results])]),
        ("aggregate.csv", ["t", "mean", "q10", "q90"],
         [grid.points(), reps.mean.values, reps.q10.values, reps.q90.values]),
    ]
    if run.sim.record_moments:
        moments = [np.concatenate([moment_diagnostic(r, p).values for r in results])
                   for p in (1, 2)]
        tables.append(("moments.csv", ["t", "rep", "m1", "m2"], [t, rep, *moments]))
    return tables, {"rng_contract": RNG_CONTRACT}


def _cmd_converge(run: RunConfig):
    sim = run.sim
    report = lln_experiment(sim.measure, sim.factor, sim.grid, run.n_values, run.converge_reps,
                            seed=sim.seed, tol=run.tol, max_iter=run.max_iter)
    columns = [np.array([getattr(c, name) for c in report.cells])
               for name in ("n_firms", "n_reps", "mean", "median", "q10", "q90")]
    header = ["N", "reps", "mean", "median", "q10", "q90"]
    return [("convergence.csv", header, columns)], {
        "timing": {"pool_seconds": [{"N": c.n_firms, "seconds": c.seconds}
                                    for c in report.cells]},
        "rng_contract": RNG_CONTRACT,
        "solver_iterations": report.solver_iterations,
        "solver_residual": report.solver_residual,
        "median_violations": list(report.median_violations),
    }


_FIGURE_FILES = (
    ("fig1_betaC.csv", contagion_sweep),
    ("fig2_alpha.csv", reversion_speed_sweep),
    ("fig3_lambdabar.csv", reversion_level_sweep),
)


def _cmd_figures(run: RunConfig):
    grid = run.sim.grid
    tables = []
    for filename, sweep_builder in _FIGURE_FILES:
        curves = figure_sweep(sweep_builder(grid), tol=run.tol, max_iter=run.max_iter)
        tables.append((filename, ["t", "param_value", "F"], [
            np.tile(grid.points(), len(curves)),
            np.repeat([value for value, _ in curves], grid.n_points),
            np.concatenate([f.values for _, f in curves]),
        ]))
    return tables, {}


_COMMANDS = {
    "limit": _cmd_limit,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "figures": _cmd_figures,
}


# ---------------------------------------------------------------------------
# output


def _fmt_column(values: np.ndarray) -> list[str]:
    """Every entry of an array: a float as the shortest decimal that
    round-trips to the same double, an integer as itself."""
    return [repr(x) for x in values.tolist()]


def _run(command: str, config: dict, run: RunConfig, out: Path) -> None:
    """Compute, then write the command's CSV files and its manifest.

    ``timing.seconds`` is the computation and ``timing.write_seconds`` the
    CSV writing; a command's own ``timing`` entries join them.  A column
    object shared by several columns or files is formatted once.
    """
    started = time.perf_counter()
    tables, extra = _COMMANDS[command](run)
    seconds = time.perf_counter() - started
    formatted: dict[int, list[str]] = {}  # by id: every column stays alive in `tables`
    for filename, header, columns in tables:
        for column in columns:
            if id(column) not in formatted:
                formatted[id(column)] = _fmt_column(column)
        with open(out / filename, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*(formatted[id(column)] for column in columns)):
                fh.write(",".join(row) + "\n")
    write_seconds = time.perf_counter() - started - seconds
    grid = run.sim.grid
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": run.sim.seed,
        "config": config,
        "grid": {"t_end": grid.t_end, "n_steps": grid.n_steps, "dt": grid.dt},
        **extra,
        "timing": {"seconds": seconds, "write_seconds": write_seconds, **extra.get("timing", {})},
    }
    with open(out / f"{command}_manifest.json", "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sizes(command: str, run: RunConfig) -> str:
    """The size fields a command's memory grows with, as ``key=value`` pairs."""
    sizes = {"grid.n_steps": run.sim.grid.n_steps}
    if command == "simulate":
        sizes |= {"sim.n_firms": run.sim.n_firms, "sim.n_reps": run.sim_reps}
    elif command == "converge":
        sizes |= {"converge.n_values": list(run.n_values), "converge.n_reps": run.converge_reps}
    return ", ".join(f"{key}={value}" for key, value in sizes.items())


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
        run = resolve_config(config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        try:
            _run(args.command, config, run, out)
        except MemoryError as exc:  # sizes under the ceiling can still be too large
            print(f"error (OUT_OF_MEMORY): {args.command} does not fit in memory at "
                  f"{_sizes(args.command, run)}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
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
