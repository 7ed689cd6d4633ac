"""Experiments connecting the finite pool to its deterministic limit.

Three instruments:

* :func:`lln_experiment` measures sup-norm distances between simulated
  default-rate paths and the limit curve across a ladder of pool sizes,
  and reports per-size statistics (the distances should shrink as the
  pool grows).
* :func:`figure_sweep` produces families of limit curves as one model
  parameter is swept, for plotting and monotonicity checks.
* :func:`q_identity_diagnostic` checks the internal identity
  "contagion forcing = effective sensitivity x slope of the default
  rate" by re-evaluating its right side with a higher-order quadrature;
  the residual measures discretization error and must shrink under grid
  refinement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .limit import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LimitSolution,
    contagion_identity_rhs,
    solve_limit,
)
from .model import (
    DEFAULT_CAP,
    DiscreteTypeMeasure,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    homogeneous_measure,
    validate_measure,
)
from .simulate import SimConfig, run_replications

SWEEPABLE_FIELDS = ("alpha", "lambda_bar", "sigma", "beta_c", "beta_s", "lambda_init")


@dataclass(frozen=True)
class ConvergenceCell:
    """Distance statistics for one pool size."""

    n_firms: int
    n_reps: int
    mean: float
    median: float
    q10: float
    q90: float
    seconds: float
    distances: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-distance statistics across pool sizes, plus solver metadata."""

    cells: tuple[ConvergenceCell, ...]
    grid: TimeGrid
    solver_iterations: int
    solver_residual: float
    #: pool sizes whose median distance did not improve on the previous
    #: (smaller) size; reported, never fatal, since small ladders are noisy
    median_violations: tuple[int, ...]

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(c.n_firms for c in self.cells)


def lln_experiment(
    measure: DiscreteTypeMeasure,
    factor: SystematicFactorConfig,
    grid: TimeGrid,
    n_values: list[int],
    n_reps: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    limit: LimitSolution | None = None,
) -> ConvergenceReport:
    """Simulate across pool sizes and compare against the limit curve.

    The limit is solved once per grid (or supplied, in which case it must
    have been solved for this measure and grid).  Each pool size runs
    ``n_reps`` replications (at least two, since the report is
    statistics); per replication the distance is the max over grid points
    of |simulated default rate - limit|.
    """
    if n_reps < 2:
        raise ValueError("need at least 2 replications per pool size")
    if any(n < 1 for n in n_values):
        raise ValueError("pool sizes must be >= 1")
    if limit is None:
        limit = solve_limit(measure, grid, tol=tol, max_iter=max_iter)
    elif limit.grid != grid or limit.measure != measure:
        raise ValueError("the supplied limit was solved for another grid or measure")
    f = limit.f

    cells = []
    for n_firms in n_values:
        config = SimConfig(n_firms=n_firms, measure=measure, factor=factor, grid=grid, seed=seed)
        started = time.perf_counter()
        reps = run_replications(config, n_reps)
        seconds = time.perf_counter() - started
        distances = tuple(r.l_path.sup_distance(f) for r in reps.results)
        arr = np.array(distances)
        cells.append(
            ConvergenceCell(
                n_firms=n_firms,
                n_reps=n_reps,
                mean=float(arr.mean()),
                median=float(np.median(arr)),
                q10=float(np.quantile(arr, 0.1)),
                q90=float(np.quantile(arr, 0.9)),
                seconds=seconds,
                distances=distances,
            )
        )

    violations = tuple(
        cells[i].n_firms
        for i in range(1, len(cells))
        if cells[i].median > cells[i - 1].median
    )
    return ConvergenceReport(
        cells=tuple(cells),
        grid=grid,
        solver_iterations=limit.iterations,
        solver_residual=limit.residual,
        median_violations=violations,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter family of homogeneous pools."""

    base: FirmType
    lambda_init: float
    field: str
    values: tuple[float, ...]
    grid: TimeGrid
    cap: float = DEFAULT_CAP

    def __post_init__(self):
        if self.field not in SWEEPABLE_FIELDS:
            raise ValueError(f"field must be one of {SWEEPABLE_FIELDS}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            validate_measure(self.measure_for(v), cap=self.cap)

    def measure_for(self, value: float) -> DiscreteTypeMeasure:
        if self.field == "lambda_init":
            return homogeneous_measure(self.base, value)
        return homogeneous_measure(replace(self.base, **{self.field: value}),
                                   self.lambda_init)


def figure_sweep(
    spec: SweepSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[tuple[float, Trajectory], ...]:
    """One limit solve per swept value, all on the shared grid."""
    rows = []
    for value in spec.values:
        sol = solve_limit(spec.measure_for(value), spec.grid, tol=tol, max_iter=max_iter)
        rows.append((value, sol.f))
    return tuple(rows)


# The base parameter case used by the curve-family outputs: a homogeneous
# pool with sigma=0.9, alpha=4, lambda_bar=0.5, lambda_init=0.5.
BASE_CASE = FirmType(alpha=4.0, lambda_bar=0.5, sigma=0.9, beta_c=2.0, beta_s=0.0)
BASE_LAMBDA_INIT = 0.5


def contagion_sweep(grid: TimeGrid) -> SweepSpec:
    return SweepSpec(BASE_CASE, BASE_LAMBDA_INIT, "beta_c", (0.0, 1.0, 2.0, 4.0), grid)


def reversion_speed_sweep(grid: TimeGrid) -> SweepSpec:
    return SweepSpec(BASE_CASE, BASE_LAMBDA_INIT, "alpha", (2.0, 4.0, 8.0), grid)


def reversion_level_sweep(grid: TimeGrid) -> SweepSpec:
    return SweepSpec(BASE_CASE, BASE_LAMBDA_INIT, "lambda_bar", (0.25, 0.5, 1.0), grid)


def q_identity_diagnostic(limit: LimitSolution) -> float:
    """Sup-norm residual of the identity q = B(surviving population) * dF/dt.

    The right side is evaluated with Simpson quadrature at the converged
    forcing, so the residual reflects the trapezoid discretization error
    of the solve (not the Picard stopping tolerance) and should drop by at
    least half when the step is halved.
    """
    rhs = contagion_identity_rhs(limit)
    return float(np.max(np.abs(limit.q.values - rhs.values)))
