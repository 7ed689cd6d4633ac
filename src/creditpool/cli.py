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
The ``--config`` file and each ``--set`` go over the defaults through one
:func:`_overlay`; ``main`` returns the ``exit_code`` of the error it caught.

A run is one pipeline: :func:`resolve_config` checks every section,
whichever command runs; the command only computes its tables; and
:func:`_run` writes them and the manifest.  The domain constructors check
the kind and the value of each field; this module adds only the rules of
the measure's atom list, which no type owns.
"""

from __future__ import annotations

import argparse
import copy
import errno
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import BASE_CASE, BASE_LAMBDA_INIT, check_ladder, figure_sweep, lln_experiment
from .errors import (
    ConfigError,
    CreditPoolError,
    FieldError,
    ValidationError,
    bounded_repr,
    bounded_text,
)
from .limit import DEFAULT_MAX_ITER, DEFAULT_TOL, check_iteration, solve_limit
from .model import (
    DEFAULT_CAP,
    MAX_SIZE,
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    TypeAtom,
    real,
    validate_measure,
    whole_number,
)
from .simulate import RNG_CONTRACT, SimConfig, run_replications

DEFAULT_CONFIG = {
    "measure": {
        "cap": DEFAULT_CAP,
        "atoms": [{**asdict(BASE_CASE), "lambda_init": BASE_LAMBDA_INIT, "weight": 1.0}],
    },
    "factor": asdict(SystematicFactorConfig()),
    "grid": {"t_end": 1.0, "n_steps": 1000},
    "solver": {"tol": DEFAULT_TOL, "max_iter": DEFAULT_MAX_ITER},
    "sim": {"n_firms": 10000, "n_reps": 20, "seed": 20260810,
            "assignment": "proportional", "record_moments": False},
    "converge": {"n_values": [100, 1000, 10000], "n_reps": 20},
}


# ---------------------------------------------------------------------------
# configuration plumbing


def _overlay(old: dict, new, where: str) -> None:
    """Merge the object ``new`` into the object section ``old`` in place, key by key:
    an unknown key is an error, an object section is merged into, anything else
    is replaced.  Nothing is copied: ``old`` is the caller's, ``new`` fresh JSON."""
    if not isinstance(new, dict):
        raise ConfigError(f"{bounded_text(where)} must be an object, got {bounded_repr(new)}")
    for key, value in new.items():
        at = f"{where}.{key}" if where else key
        if key not in old:
            raise ConfigError(f"unknown config key: {bounded_text(at)}")
        if isinstance(old[key], dict):
            _overlay(old[key], value, at)
        else:
            old[key] = value


def _json(text: str, source: str):
    """``json.loads(text)``; JSON nested too deeply to parse is a ConfigError naming ``source``."""
    try:
        return json.loads(text)
    except RecursionError:  # valid so far, but too deep to parse
        raise ConfigError(f"{source}: the JSON value is nested too deeply") from None


def _apply_set(config: dict, expr: str) -> None:
    """One ``--set key=value`` (a JSON value, else the raw string).  Each dotted
    segment of the key is an object key or a list index (negative from the end);
    the value goes through :func:`_overlay` under an object, or replaces a list element."""
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {bounded_repr(expr)}")
    key, raw = expr.split("=", 1)
    try:
        value = _json(raw, f"--set {bounded_text(key)}=...")
    except json.JSONDecodeError:
        value = raw
    segments = key.split(".")
    node = config
    for depth, seg in enumerate(segments):
        parent = node
        try:  # TypeError: node is a scalar; ValueError: int() rejects seg
            entry = int(seg) if isinstance(node, list) else seg
            node = node[entry]
        except (TypeError, ValueError, KeyError, IndexError):
            where = bounded_text(".".join(segments[:depth])) or "the config"
            raise ConfigError(f"--set {bounded_text(expr)}: {where} has no entry "
                              f"{bounded_text(seg)}") from None
    if isinstance(parent, dict):
        _overlay(parent, {entry: value}, ".".join(segments[:-1]))
    else:
        parent[entry] = value


def load_config(path: str | None, sets: list[str], seed: int | None) -> dict:
    """Defaults, overlaid by the config file, --set overrides, then --seed."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        shown = bounded_text(path)  # echoed like a key: one line, bounded
        try:
            loaded = _json(Path(path).read_text(encoding="utf-8"), f"config file {shown}")
        except OSError as exc:  # the errors that Path.exists() reads as "no such file"
            if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
                raise OSError(exc.errno, f"{exc.strerror}: config file {shown}") from None
            raise ConfigError(f"config file not found: {shown}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {shown} is not valid JSON: {exc}") from exc
        if isinstance(loaded, dict) and "command" in loaded and "config" in loaded:
            loaded = loaded["config"]  # accept a manifest as a config
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {shown} must contain a JSON object")
        _overlay(config, loaded, "")
    for expr in sets:
        _apply_set(config, expr)
    if seed is not None:
        config["sim"]["seed"] = seed
    return config


# The value rules that no domain constructor owns.


def _measure(cap, atoms) -> DiscreteTypeMeasure:
    """``atoms`` is a list of objects, each holding only keys of the default
    atom, which fills in every key that an atom omits."""
    if not math.isfinite(real(cap, "cap")):  # validate_measure takes an infinite cap
        raise FieldError("cap", f"must be finite, got {cap!r}")
    if not isinstance(atoms, list):
        raise FieldError("atoms", f"must be a list, got {bounded_repr(atoms)}")
    default = DEFAULT_CONFIG["measure"]["atoms"][0]
    built = []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise FieldError(f"atoms[{i}]", f"must be an object, got {bounded_repr(atom)}")
        unknown = set(atom) - set(default)
        if unknown:
            raise FieldError(f"atoms[{i}]", f"has unknown keys: {bounded_repr(sorted(unknown))}")
        atom = {**default, **atom}
        try:
            built.append(TypeAtom(FirmType(**{f.name: atom[f.name] for f in fields(FirmType)}),
                                  lambda_init=atom["lambda_init"], weight=atom["weight"]))
        except FieldError as exc:  # it names its own field, under atoms[i]
            raise exc.under(f"atoms[{i}]") from None
    return validate_measure(DiscreteTypeMeasure(atoms=tuple(built)), cap=cap)


def _factor(eps: dict, **rest) -> SystematicFactorConfig:
    try:
        schedule = EpsSchedule(**eps)
    except FieldError as exc:  # it names its own field, under factor.eps
        raise exc.under("eps") from None
    return SystematicFactorConfig(eps=schedule, **rest)


@dataclass(frozen=True)
class RunConfig:
    """A whole config, checked: what any command reads, in the order of
    the checked ``sim``, ``solver`` and ``converge`` sections."""

    sim: SimConfig  # also the measure, factor, grid and seed of every command
    sim_reps: int
    tol: float
    max_iter: int
    n_values: tuple[int, ...]
    converge_reps: int


def resolve_config(config: dict) -> RunConfig:
    """Check every section of a loaded config, whichever command will run.

    Each section is built by the domain constructors, which check the kind
    and the value of every field they take.  A broken section is recorded
    and the rest are still checked, so the one :class:`ValidationError`
    raised names every broken section.
    """
    violations: list[FieldError] = []

    def checked(name: str, build):
        try:
            return build(**config[name])
        except ValidationError as exc:
            violations.extend(v.under(name) for v in exc.violations)
        except FieldError as exc:  # a value named by its path within the section
            violations.append(exc.under(name))
        return None

    def sim_section(n_reps, **rest) -> tuple[SimConfig, int]:
        n_reps = whole_number(n_reps, "n_reps", 1, MAX_SIZE)
        # SimConfig does not look at the measure, factor or grid, so a
        # broken one (None) still lets it check the sim section
        return SimConfig(measure=measure, factor=factor, grid=grid, **rest), n_reps

    measure = checked("measure", _measure)
    factor = checked("factor", _factor)
    grid = checked("grid", TimeGrid)
    solver = checked("solver", check_iteration)
    sim = checked("sim", sim_section)
    converge = checked("converge", check_ladder)
    if violations:
        raise ValidationError(violations)
    return RunConfig(*sim, *solver, *converge)


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
        "f_error_estimate": sol.f_error_estimate,
        "levels": [{"n_steps": n_steps, "sweeps": sweeps} for n_steps, sweeps in sol.levels],
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
        tables.append(("moments.csv", ["t", "rep", "m1", "m2"],
                       [t, rep, np.concatenate([r.m1.values for r in results]),
                        np.concatenate([r.m2.values for r in results])]))
    return tables, {"rng_contract": RNG_CONTRACT}


def _cmd_converge(run: RunConfig):
    sim = run.sim
    report = lln_experiment(sim.measure, sim.factor, sim.grid, run.n_values, run.converge_reps,
                            seed=sim.seed, tol=run.tol, max_iter=run.max_iter,
                            assignment=sim.assignment)
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


#: (file name, swept FirmType field, values) of each curve family
_FIGURE_FILES = (
    ("fig1_betaC.csv", "beta_c", (0.0, 1.0, 2.0, 4.0)),
    ("fig2_alpha.csv", "alpha", (2.0, 4.0, 8.0)),
    ("fig3_lambdabar.csv", "lambda_bar", (0.25, 0.5, 1.0)),
)


def _cmd_figures(run: RunConfig):
    grid = run.sim.grid
    tables = []
    for filename, field, values in _FIGURE_FILES:
        curves = figure_sweep(field, values, grid, tol=run.tol, max_iter=run.max_iter)
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
        # the limit's bits depend on the numpy build and its SIMD dispatch;
        # numpy leaves out "found" when it dispatches to no extension
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "simd": np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])},
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
            return 2
        return 0
    except CreditPoolError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error (IO): {exc}", file=sys.stderr)
        return 5
