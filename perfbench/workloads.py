"""The four benchmark workloads: inputs made from a seed, and output checks.

Nothing here imports ``creditpool``, so ``run.py`` can make inputs and
check CLI output without paying for the package import.  Inputs are plain
JSON-able dicts laid out like the CLI's config sections; the seed never reaches the
program, only what is made from it.

Every check holds for any valid random stream and reads no exact bits, so
a change of RNG scheme does not trip it.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

SIM_SMALL = "sim-small-pools"
SIM_LARGE = "sim-large-pool"
LIMIT_CLI = "limit-hetero-cli"
GRID_REFINE = "grid-refine"
WORKLOADS = (SIM_SMALL, SIM_LARGE, LIMIT_CLI, GRID_REFINE)

#: The recurring homogeneous base case of the test suite and the figures.
BASE_ATOM = {"alpha": 4.0, "lambda_bar": 0.5, "sigma": 0.9, "beta_c": 2.0,
             "beta_s": 0.0, "lambda_init": 0.5, "weight": 1.0}

# Two-atom pool with factor exposure, so the simulator's factor branch runs.
TWO_ATOMS = [
    {"alpha": 4.0, "lambda_bar": 0.5, "sigma": 0.9, "beta_c": 2.0,
     "beta_s": 1.0, "lambda_init": 0.5, "weight": 0.5},
    {"alpha": 2.0, "lambda_bar": 0.3, "sigma": 0.6, "beta_c": 1.0,
     "beta_s": 2.0, "lambda_init": 0.3, "weight": 0.5},
]

# Median sup-distance bounds for the simulator checks: about twice the
# largest median seen over seeds 0-39 (0.105 at N=100 with 10 reps, 0.026
# at N=1e4 with 2 reps).
SIM_DISTANCE_BOUND = {SIM_SMALL: 0.2, SIM_LARGE: 0.05}

# The two homogeneous routes differ at O(beta_c * dt^2); seed runs give a
# constant of about 0.12, so 1.0 leaves room for parameter jitter.
ROUTE_GAP_CONSTANT = 1.0

# limit-hetero-cli: 25 firm types x 2 initial intensities.
N_TYPES = 25
INITS = (0.3, 0.7)


class CheckFailed(Exception):
    """A job's output broke one of the workload's invariants."""


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def _jitter(rng: np.random.Generator, atom: dict, share: float) -> dict:
    """The atom with every positive parameter scaled by U[1-share, 1+share]."""
    return {k: (v * float(rng.uniform(1 - share, 1 + share)) if k != "weight" and v > 0 else v)
            for k, v in atom.items()}


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload, a pure function of ``(workload, seed)``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == SIM_SMALL:
        return {"measure": {"atoms": [dict(BASE_ATOM)]},
                "grid": {"t_end": 1.0, "n_steps": 1000},
                "sim": {"n_firms": 100, "n_reps": 10, "seed": int(rng.integers(2**32))}}
    if workload == SIM_LARGE:
        return {"measure": {"atoms": [dict(a) for a in TWO_ATOMS]},
                "grid": {"t_end": 1.0, "n_steps": 1000},
                "sim": {"n_firms": 10_000, "n_reps": 2, "seed": int(rng.integers(2**32))}}
    if workload == LIMIT_CLI:
        atoms = []
        for _ in range(N_TYPES):
            firm = {"alpha": float(rng.uniform(2.0, 6.0)),
                    "lambda_bar": float(rng.uniform(0.3, 0.7)),
                    "sigma": float(rng.uniform(0.5, 1.2)),
                    "beta_c": float(rng.uniform(0.5, 3.0)),
                    "beta_s": 0.0}
            atoms += [dict(firm, lambda_init=lam, weight=1.0 / (N_TYPES * len(INITS)))
                      for lam in INITS]
        return {"measure": {"atoms": atoms}, "grid": {"t_end": 1.0, "n_steps": 4000}}
    return {"measure": {"atoms": [_jitter(rng, BASE_ATOM, 0.1)]},
            "grid": {"t_end": 1.0, "n_steps": [1000, 2000, 4000]}}


def describe(workload: str, inputs: dict) -> str:
    """One line saying how big one job of the workload is."""
    grid = inputs["grid"]
    atoms = len(inputs["measure"]["atoms"])
    if workload in (SIM_SMALL, SIM_LARGE):
        sim = inputs["sim"]
        return (f"lln_experiment, N={sim['n_firms']}, {sim['n_reps']} reps, "
                f"{grid['n_steps']} steps, {atoms} atom(s)")
    if workload == LIMIT_CLI:
        return f"creditpool limit process, {atoms} atoms, n_steps={grid['n_steps']}"
    return f"solve + identity diagnostic + oracle at n_steps={grid['n_steps']}"


def _monotone_unit(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{name} has non-finite values")
    if values.min() < 0.0 or values.max() > 1.0:
        raise CheckFailed(f"{name} leaves [0, 1]")
    if np.any(np.diff(values) < 0.0):
        raise CheckFailed(f"{name} decreases")


def check_sim(workload: str, inputs: dict, paths: np.ndarray, f: np.ndarray,
              distances) -> None:
    """Default-rate paths ``(reps, n+1)`` against the limit curve ``f``."""
    sim = inputs["sim"]
    n_firms, n_points = sim["n_firms"], inputs["grid"]["n_steps"] + 1
    if paths.shape != (sim["n_reps"], n_points):
        raise CheckFailed(f"paths have shape {paths.shape}")
    for rep, path in enumerate(paths):
        if path[0] != 0.0:
            raise CheckFailed(f"rep {rep}: L does not start at 0")
        _monotone_unit(f"rep {rep} L", path)
        counts = path * n_firms
        if np.max(np.abs(counts - np.rint(counts))) > 1e-9:
            raise CheckFailed(f"rep {rep}: L is not a count of defaults over N")
    ours = np.max(np.abs(paths - f), axis=1)
    if len(distances) != len(ours) or np.max(np.abs(ours - np.asarray(distances))) > 1e-12:
        raise CheckFailed("reported distances disagree with sup|L - F|")
    median = float(np.median(ours))
    if median >= SIM_DISTANCE_BOUND[workload]:
        raise CheckFailed(f"median sup-distance {median:.4g} >= {SIM_DISTANCE_BOUND[workload]}")


def check_grid(inputs: dict, residuals, gaps, curves) -> None:
    """Identity residual halves per halving; two-route gap is O(beta_c dt^2)."""
    n_steps = inputs["grid"]["n_steps"]
    t_end = inputs["grid"]["t_end"]
    beta_c = inputs["measure"]["atoms"][0]["beta_c"]
    if not len(residuals) == len(gaps) == len(curves) == len(n_steps):
        raise CheckFailed("one result per grid expected")
    for n, res, gap, f in zip(n_steps, residuals, gaps, curves):
        if len(f) != n + 1:
            raise CheckFailed(f"n={n}: F has {len(f)} points")
        _monotone_unit(f"n={n} F", np.asarray(f))
        if not (np.isfinite(res) and res > 0.0):
            raise CheckFailed(f"n={n}: identity residual {res!r}")
        limit = ROUTE_GAP_CONSTANT * beta_c * (t_end / n) ** 2
        if not gap <= limit:
            raise CheckFailed(f"n={n}: two-route gap {gap:.3g} > {limit:.3g}")
    for coarse, fine in zip(residuals, residuals[1:]):
        if not fine <= 0.5 * coarse:
            raise CheckFailed(f"identity residual {coarse:.3g} -> {fine:.3g} did not halve")


def check_cli(inputs: dict, out_dir: Path) -> None:
    """``limit.csv`` has one row per grid point, one b column per atom, monotone F."""
    n_atoms = len(inputs["measure"]["atoms"])
    n_steps = inputs["grid"]["n_steps"]
    try:
        with open(out_dir / "limit.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        manifest = json.loads((out_dir / "limit_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc
    header = ["t", "F", "Q"] + [f"b_{i}" for i in range(n_atoms)]
    if not rows or rows[0] != header:
        raise CheckFailed("limit.csv header differs from t,F,Q,b_0..")
    body = rows[1:]
    if len(body) != n_steps + 1 or any(len(r) != len(header) for r in body):
        raise CheckFailed(f"limit.csv has {len(body)} rows, expected {n_steps + 1}")
    try:
        table = np.array(body, dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"limit.csv has a non-numeric cell: {exc}") from exc
    if table[0, 0] != 0.0 or abs(table[-1, 0] - inputs["grid"]["t_end"]) > 1e-9:
        raise CheckFailed("t column does not span the grid")
    _monotone_unit("F", table[:, 1])
    if manifest.get("grid", {}).get("n_steps") != n_steps:
        raise CheckFailed("manifest grid differs from the config")
