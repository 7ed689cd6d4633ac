"""Experiments connecting the finite pool to its deterministic limit.

Three instruments:

* :func:`lln_experiment` measures sup-norm distances between simulated
  default-rate paths and the limit curve across a ladder of pool sizes,
  and reports per-size statistics (the distances should shrink as the
  pool grows).
* :func:`figure_sweep` produces a family of limit curves as one
  :class:`FirmType` field of the base case is swept, for plotting and
  monotonicity checks.
* :func:`q_identity_diagnostic` compares the solved forcing q with the
  Picard map's image of q under Simpson quadrature; the gap measures the
  solver's trapezoid discretization error and must shrink under grid
  refinement.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import FieldError, bounded_repr
from .limit import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LimitSolution,
    contagion_identity_rhs,
    solve_limit,
)
from .model import (
    MAX_SIZE,
    DiscreteTypeMeasure,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    homogeneous_measure,
    whole_number,
)
from .simulate import SimConfig, median_q10_q90, run_replications


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
    solver_iterations: int
    solver_residual: float
    #: pool sizes whose median distance did not improve on the previous
    #: (smaller) size; reported, never fatal, since small ladders are noisy
    median_violations: tuple[int, ...]


def check_ladder(n_values: Sequence[int], n_reps: int) -> tuple[tuple[int, ...], int]:
    """The rules of every pool-size ladder, checked: a sequence of at least
    one pool size, each a whole number in [1, :data:`MAX_SIZE`], and ``n_reps``
    >= 2 replications per size.  Returns the sizes as a tuple and ``n_reps``,
    as ints; a bad entry is named ``n_values[i]``."""
    if isinstance(n_values, str) or not isinstance(n_values, Sequence):
        raise FieldError("n_values", f"must be a list, got {bounded_repr(n_values)}")
    sizes = tuple(whole_number(n, f"n_values[{i}]", high=MAX_SIZE) for i, n in enumerate(n_values))
    if not sizes or min(sizes) < 1:
        raise FieldError("n_values", f"must be a non-empty list of pool sizes >= 1, "
                                     f"got {bounded_repr(n_values)}")
    return sizes, whole_number(n_reps, "n_reps", 2, MAX_SIZE)


def lln_experiment(
    measure: DiscreteTypeMeasure,
    factor: SystematicFactorConfig,
    grid: TimeGrid,
    n_values: Sequence[int],
    n_reps: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    limit: LimitSolution | None = None,
    assignment: str = "proportional",
) -> ConvergenceReport:
    """Simulate across pool sizes and compare against the limit curve.

    The limit is solved once per grid (or supplied, in which case it must
    have been solved for this measure and grid).  Each pool size runs
    ``n_reps`` replications (at least two, since the report is
    statistics), its firms given atoms by ``assignment`` (a
    :class:`SimConfig` assignment); per replication the distance is the
    max over grid points of |simulated default rate - limit|.
    """
    n_values, n_reps = check_ladder(n_values, n_reps)
    if limit is None:
        limit = solve_limit(measure, grid, tol=tol, max_iter=max_iter)
    elif limit.grid != grid or limit.measure != measure:
        raise ValueError("the supplied limit was solved for another grid or measure")
    f = limit.f

    cells = []
    for n_firms in n_values:
        config = SimConfig(n_firms=n_firms, measure=measure, factor=factor, grid=grid, seed=seed,
                           assignment=assignment)
        started = time.perf_counter()
        reps = run_replications(config, n_reps)
        seconds = time.perf_counter() - started
        distances = tuple(r.l_path.sup_distance(f) for r in reps.results)
        arr = np.array(distances)
        median, q10, q90 = median_q10_q90(arr)
        cells.append(
            ConvergenceCell(
                n_firms=n_firms,
                n_reps=n_reps,
                mean=float(arr.mean()),
                median=float(median),
                q10=float(q10),
                q90=float(q90),
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
        solver_iterations=limit.iterations,
        solver_residual=limit.residual,
        median_violations=violations,
    )


# The base parameter case of the curve families: a homogeneous pool with
# sigma=0.9, alpha=4, lambda_bar=0.5, lambda_init=0.5.
BASE_CASE = FirmType(alpha=4.0, lambda_bar=0.5, sigma=0.9, beta_c=2.0, beta_s=0.0)
BASE_LAMBDA_INIT = 0.5


def figure_sweep(
    field: str,
    values: tuple[float, ...],
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[tuple[float, Trajectory], ...]:
    """F for the base case with one :class:`FirmType` field set to each value.

    One limit solve per value, all on the shared grid.
    """
    rows = []
    for value in values:
        measure = homogeneous_measure(replace(BASE_CASE, **{field: value}), BASE_LAMBDA_INIT)
        rows.append((value, solve_limit(measure, grid, tol=tol, max_iter=max_iter).f))
    return tuple(rows)


def q_identity_diagnostic(limit: LimitSolution) -> float:
    """Sup-norm gap between q and the Picard map's image of the solved q
    under Simpson quadrature (:func:`~creditpool.limit.contagion_identity_rhs`).

    The solve itself uses the trapezoid rule, so the gap reflects its
    discretization error (not the Picard stopping tolerance) and should
    drop by at least half when the step is halved.  A pool with no
    contagion, or with no intensity mass anywhere on the grid, gives 0.
    """
    rhs = contagion_identity_rhs(limit)
    return float(np.max(np.abs(limit.q.values - rhs.values)))
