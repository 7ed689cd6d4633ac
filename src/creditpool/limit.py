"""Deterministic large-pool limit of the portfolio default rate.

In the infinite-pool limit, surviving firms feel past defaults only
through a deterministic contagion forcing q(t), the unique nonnegative
fixed point of a Volterra-type integral equation.  Because the underlying
dynamics are affine, every atom's survival probability has the exponential
closed form

    S_a(t) = exp( -b_a(t) lam0_a - integral_0^t b_a(t-r) (q(r) + alpha_a
             lambda_bar_a) dr ),

with b_a the Riccati trajectory of the atom's firm class, and the limit
default rate is F(t) = 1 - sum_a w_a S_a(t).  The fixed point is computed
by Picard iteration with trapezoid quadrature for all time-convolutions
on a shared uniform grid; one private loop, :func:`_picard`, holds the
stop rule of every route.  Atoms of one firm type share one Riccati
solve, and a sweep convolves q with each distinct kernel once, through
FFT spectra cached for the grid being solved.

The Picard map sends q to sum_a w_a beta_c_a D_a exp(-E_a), where E_a
is the exponent above and D_a its time-slope.  :func:`solve_q` returns a
:class:`LimitSolution`: q, F built from the last sweep's exponents, and
the per-atom E_a and D_a; it holds no solver state.  dF/dt
(:func:`f_derivative`) and :func:`contagion_identity_rhs`, the Picard
map's image of the solved q under Simpson quadrature, read that solution
instead of sweeping again.  :func:`compute_f` is the fresh evaluation of
F at a given q.

One private loop, :func:`_solve`, runs :func:`solve_q` on its grid and
:func:`solve_limit` on nested grids, halving the step down to a floor.  A
coarse grid reads the finest grid's Riccati rows at its stride (the bits
of its own closed form) and starts from a Richardson-corrected
prolongation of the coarser q, so fine grids stop after a sweep or two.
The grid below gives the error estimate |F_n - F_{n/2}| / 3.

A second, independent route exists for single-class pools: iterate on F
itself in the integral equation

    F(t) = 1 - exp( -alpha lambda_bar int_0^t b - beta_c int_0^t F(r)
           b_dot(t-r) dr - b(t) lam0 ),

implemented by :func:`solve_homogeneous_f` and used as an oracle for the
general path.  Both routes stop by the same rule and report a non-finite
sweep the same way.  The two discretizations agree at O(beta_c * dt^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, NoConvergenceError, NonFiniteResultError
from .model import (DiscreteTypeMeasure, FirmType, TimeGrid, Trajectory,
                    homogeneous_measure, real, validate_measure, whole_number)
from .quadrature import TrapezoidKernel, conv_simpson, prefix_trapezoid
from .quadrature import conv_trapezoid  # noqa: F401 - perfbench patches it here
from .riccati import RiccatiSolution, solve_riccati

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
#: :func:`solve_limit`'s coarsest grid has at least this many steps
LADDER_FLOOR = 250


def riccati_for_measure(
    measure: DiscreteTypeMeasure, grid: TimeGrid
) -> tuple[RiccatiSolution, ...]:
    """One closed-form Riccati solution per atom, on the shared grid.

    Each distinct firm type is solved once; its atoms share that solution.
    """
    solved: dict[FirmType, RiccatiSolution] = {}
    for atom in measure.atoms:
        if atom.firm_type not in solved:
            solved[atom.firm_type] = solve_riccati(atom.firm_type, grid)
    return tuple(solved[a.firm_type] for a in measure.atoms)


def _check_pool(measure: DiscreteTypeMeasure, riccati, grid: TimeGrid) -> None:
    """The forcing route's one door: checks the measure as the simulator does
    (signs, finiteness and weight sum; no cap), then one Riccati solution per
    atom, of the atom's firm type, on ``grid``.  Each public entry that takes
    Riccati solutions calls it once; :func:`solve_limit`, which solves its
    own, checks only the measure, and a :class:`LimitSolution` was checked
    by its solve."""
    validate_measure(measure, cap=math.inf)
    if len(riccati) != len(measure.atoms):
        raise ValueError("need exactly one Riccati solution per atom")
    for atom, ric in zip(measure.atoms, riccati):
        if ric.grid != grid:
            raise ValueError("Riccati solutions must share the solver grid")
        if ric.firm_type != atom.firm_type:
            raise ValueError("Riccati solution does not match its atom")


class _AtomKernels:
    """Per-atom coefficients over one kernel row per distinct Riccati solution.

    Every function that needs E and D builds one, on a measure and Riccati
    solutions that its public entry has checked (:func:`_check_pool`); it
    checks nothing itself.  It holds no bulk array.

    Rows are keyed by the identity of each solution object:
    :func:`riccati_for_measure` shares one object per firm type, so atoms
    of one type share a row, while two separately solved kernels (say a
    closed-form and an RK4 one) keep a row each.

    Atom a, whose Riccati solution is (b, b_dot), has the exponent
    E_a = lam0_a b + conv(b, q + c_a) and its slope
    D_a = lam0_a b_dot + conv(b_dot, q + c_a), with c_a = alpha lambda_bar.
    Linearity, conv(h, q + c) = conv(h, q) + c conv(h, 1), leaves one
    convolution with q per distinct kernel; atoms then pick their rows.
    """

    def __init__(self, measure, riccati, grid):
        atoms = measure.atoms
        rows: dict[int, int] = {}
        distinct = []
        row_of_atom = []
        for ric in riccati:
            if id(ric) not in rows:
                rows[id(ric)] = len(distinct)
                distinct.append(ric)
            row_of_atom.append(rows[id(ric)])
        self.dt = grid.dt
        self.n_steps = grid.n_steps
        self.distinct = distinct
        self.weight = np.array([a.weight for a in atoms])
        # the Picard map's weights: q = contagion @ (D exp(-E))
        self.contagion = self.weight * np.array([a.firm_type.beta_c for a in atoms])
        self.lam0 = np.array([a.lambda_init for a in atoms])[:, None]
        self.force = np.array([a.firm_type.alpha * a.firm_type.lambda_bar for a in atoms])[:, None]
        row = np.array(row_of_atom)
        self.index = np.stack([row, row + len(distinct)])

    @property
    def kernels(self) -> np.ndarray:
        """Rows 0..T-1 hold each distinct b, rows T..2T-1 its b_dot; row 0 of
        the (2, A) ``index`` picks each atom's b row, row 1 its b_dot row.
        Stacked on demand: the Riccati solutions already hold the rows."""
        return np.stack([r.b.values for r in self.distinct]
                        + [r.b_dot.values for r in self.distinct])

    def _q_free(self, kernels: np.ndarray, conv_one: np.ndarray) -> np.ndarray:
        """lam0_a h + c_a conv(h, 1) for E and D, from each kernel's conv(h, 1)."""
        i = self.index
        return self.lam0 * kernels[i] + self.force * conv_one[i]

    def trapezoid(self, stride: int = 1):
        """The sweep's map from q to the (2, A, n) block of exponents E_a(t) and
        slopes D_a(t) on every ``stride``-th point: atom a survives with
        probability exp(-E_a), and its surviving intensity mass is D_a exp(-E_a).
        Trapezoid quadrature, step ``stride * dt``: a call is one forward FFT of
        q and one batched inverse over the kernel spectra.  The q-free block is
        built before the spectra, so its temporaries and the spectra never coexist."""
        kernels, index, dt = self.kernels[:, ::stride], self.index, self.dt * stride
        constant = self._q_free(kernels, prefix_trapezoid(kernels, dt))
        spectra = TrapezoidKernel(kernels, dt)
        return lambda q: constant + spectra.apply(q)[index]

    def simpson_exponents_and_slopes(self, q: np.ndarray) -> np.ndarray:
        """As the block :meth:`trapezoid` maps q to, with Simpson quadrature throughout."""
        kernels = self.kernels
        conv_q = conv_simpson(kernels, q, self.dt)
        conv_one = conv_simpson(kernels, np.ones_like(q), self.dt)
        return self._q_free(kernels, conv_one) + conv_q[self.index]


@dataclass(frozen=True)
class LimitSolution:
    """Everything the limit solver produces for one measure and grid.

    ``exponents`` and ``slopes`` are the per-atom E and D (one row per
    atom) of the last Picard sweep, the sweep whose image is ``q``: atom a
    survives with probability exp(-E_a), its surviving intensity mass is
    D_a exp(-E_a), and F is built from them.  ``iterations``, ``residual``
    and ``residual_history`` describe the solve on this grid; ``levels``
    lists the ``(n_steps, sweeps)`` of every grid of the nested solve,
    coarsest first (one entry for a one-level solve).  ``f_error_estimate``
    is |F_n - F_{n/2}| / 3 on the points shared with the next coarser
    level, or None when there was none.
    """

    measure: DiscreteTypeMeasure
    riccati: tuple[RiccatiSolution, ...]
    q: Trajectory
    f: Trajectory
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    levels: tuple[tuple[int, int], ...]
    f_error_estimate: float | None
    exponents: np.ndarray = field(compare=False, repr=False)
    slopes: np.ndarray = field(compare=False, repr=False)

    @property
    def grid(self) -> TimeGrid:
        return self.q.grid


def solve_q(
    measure: DiscreteTypeMeasure,
    riccati: tuple[RiccatiSolution, ...],
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LimitSolution:
    """Picard iteration for the contagion forcing on one grid, started from q = 0.

    Stops by :func:`_picard`'s rule, and builds F from the one (2, A, n)
    block of exponents and slopes that the last sweep returns.  Also raises
    :class:`NonFiniteResultError` if the forcing ends below -tol (the limit
    forcing is provably nonnegative, so anything materially negative is a
    bug, not round-off).  A one-grid solve: no error estimate.
    """
    _check_pool(measure, riccati, grid)
    return _solve(measure, riccati, grid, tol, max_iter, (1,))


def _solve(measure, riccati, grid, tol, max_iter, strides) -> LimitSolution:
    """:func:`solve_q` and :func:`solve_limit` on a checked pool: one
    :class:`_AtomKernels` on ``grid``, :func:`_solve_grid` for each of
    ``strides`` (coarsest first, ending at 1), then one solution."""
    kern = _AtomKernels(measure, riccati, grid)
    coarse_q = coarser_q = coarse_f = None
    levels = []
    for stride in strides:
        q, f, block, history = _solve_grid(kern, stride, tol, max_iter, coarse_q, coarser_q)
        levels.append((grid.n_steps // stride, len(history)))
        if stride > 1:  # only these vectors outlive a coarse grid
            coarser_q, coarse_q, coarse_f, block = coarse_q, q, f, None
    block.setflags(write=False)  # before indexing: a view keeps the flag it was made with
    estimate = None if coarse_f is None else float(np.max(np.abs(f[::2] - coarse_f))) / 3.0
    return LimitSolution(
        measure=measure,
        riccati=tuple(riccati),
        q=Trajectory(grid, q),
        f=Trajectory(grid, f),
        iterations=len(history),
        residual=history[-1],
        residual_history=tuple(history),
        levels=tuple(levels),
        f_error_estimate=estimate,
        exponents=block[0],
        slopes=block[1],
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite start or sweep is reported by _picard
def _solve_grid(kern: _AtomKernels, stride: int, tol, max_iter, q_2h, q_4h):
    """The Picard loop on every ``stride``-th point of ``kern``'s grid, from
    q = 0 with no coarser grid, P q_2h with one, and P (q_2h + (q_2h -
    P q_4h) / 4) with two, P being :func:`_prolong`.  Returns q, F, the
    last sweep's block and the residual history; the spectra and the
    q-free block die with the call."""
    exponents_and_slopes = kern.trapezoid(stride)

    def sweep(q):
        block = exponents_and_slopes(q)
        E, D = block
        return kern.contagion @ (D * np.exp(-E)), block

    if q_2h is None:
        start = np.zeros(kern.n_steps // stride + 1)
    else:
        start = _prolong(q_2h if q_4h is None else q_2h + (q_2h - _prolong(q_4h)) / 4.0)
    (q, block), history = _picard(sweep, start, tol, max_iter)
    low = q.min()
    if low < -tol:
        raise NonFiniteResultError(
            f"contagion forcing reached {low:.3e} on the {len(q) - 1}-step grid, below -tol; "
            "the nonnegative fixed point should not do that"
        )
    if low < 0.0:
        q = np.where(q < 0.0, 0.0, q)  # round-off only: values in (-tol, 0)
    return q, 1.0 - kern.weight @ np.exp(-block[0]), block, history


def _prolong(coarse: np.ndarray) -> np.ndarray:
    """Values on the grid of half the step: the coarse points kept, each
    midpoint by the 4-point cubic rule (-1, 9, 9, -1)/16, and the two end
    midpoints by the one-sided 3-point rule (3, 6, -1)/8."""
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse
    fine[3:-3:2] = (9.0 * (coarse[1:-2] + coarse[2:-1]) - coarse[:-3] - coarse[3:]) / 16.0
    fine[1] = (3.0 * coarse[0] + 6.0 * coarse[1] - coarse[2]) / 8.0
    fine[-2] = (3.0 * coarse[-1] + 6.0 * coarse[-2] - coarse[-3]) / 8.0
    return fine


def _picard(sweep, start: np.ndarray, tol: float, max_iter: int):
    """The stop rule of both limit routes: iterate ``sweep`` from ``start``.

    ``sweep`` maps an iterate to a tuple whose first entry is the next
    iterate.  Stops once a sweep changes the iterate by <= ``tol`` in the
    sup norm, and returns that sweep's tuple with the residual history.  It
    drops each earlier tuple, all but its iterate, before the next sweep.
    Raises :class:`NonFiniteResultError` at the first sweep whose iterate
    is not finite, and :class:`NoConvergenceError` after ``max_iter``, each
    naming the grid, of ``len(start) - 1`` steps.
    """
    tol, max_iter = check_iteration(tol, max_iter)
    x = start
    history = []
    for iteration in range(1, max_iter + 1):
        out = sweep(x)
        if not np.all(np.isfinite(out[0])):
            raise NonFiniteResultError(f"fixed-point sweep {iteration} produced non-finite "
                                       f"values on the {len(start) - 1}-step grid")
        history.append(float(np.max(np.abs(out[0] - x))))
        if history[-1] <= tol:
            return out, history
        x, out = out[0], None
    raise NoConvergenceError(max_iter, history[-1], tol, n_steps=len(start) - 1)


def check_iteration(tol: float, max_iter: int) -> tuple[float, int]:
    """The stopping rule of every fixed-point solve, checked: a finite real
    ``tol`` > 0 and a whole ``max_iter`` >= 1, returned as a float and an int."""
    tol = real(tol, "tol")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise FieldError("tol", f"must be finite and > 0, got {tol!r}")
    return tol, whole_number(max_iter, "max_iter", 1)


def compute_f(
    measure: DiscreteTypeMeasure,
    riccati: tuple[RiccatiSolution, ...],
    q: Trajectory,
) -> Trajectory:
    """Limit default rate F(t) = 1 - weighted sum of atom survival factors.

    A fresh evaluation of the exponents at the given ``q``; a solved
    :class:`LimitSolution` already carries F from its last sweep.
    """
    _check_pool(measure, riccati, q.grid)
    kern = _AtomKernels(measure, riccati, q.grid)
    E, _ = kern.trapezoid()(q.values)
    return Trajectory(q.grid, 1.0 - kern.weight @ np.exp(-E))


def f_derivative(limit: LimitSolution) -> Trajectory:
    """dF/dt via the per-atom affine decomposition (no finite differences).

    Equals the first intensity moment of the surviving population in the
    limit: sum_a w_a D_a exp(-E_a), read from the solution's last sweep.
    """
    masses = limit.slopes * np.exp(-limit.exponents)
    return Trajectory(limit.grid, np.array([a.weight for a in limit.measure.atoms]) @ masses)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sweep is reported by _picard
def solve_homogeneous_f(
    firm_type: FirmType,
    lambda_init: float,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Trajectory:
    """Single-class limit default rate via direct iteration on F.

    Independent of the contagion-forcing route: discretizes the
    homogeneous integral equation for F with the same trapezoid rule and
    iterates from F = 0, under the same stop rule (:func:`_picard`).  With
    beta_c = 0 the equation has no self-reference and the first sweep
    already lands on the explicit contagion-free formula.
    """
    validate_measure(homogeneous_measure(firm_type, lambda_init), cap=math.inf)
    ric = solve_riccati(firm_type, grid)
    b = ric.b.values
    dt = grid.dt
    base = firm_type.alpha * firm_type.lambda_bar * prefix_trapezoid(b, dt) + b * lambda_init
    kernel = TrapezoidKernel(ric.b_dot.values, dt)
    (f,), _ = _picard(lambda f: (1.0 - np.exp(-base - firm_type.beta_c * kernel.apply(f)),),
                      np.zeros(grid.n_points), tol, max_iter)
    return Trajectory(grid, f)


def solve_limit(
    measure: DiscreteTypeMeasure,
    grid: TimeGrid,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LimitSolution:
    """Full limit pipeline: Riccati per firm type, then the contagion fixed
    point, solved on a ladder of nested grids; returns the finest grid's solution.

    The ladder halves ``grid.n_steps`` while it stays even and at least
    :data:`LADDER_FLOOR`, each coarse grid reading ``grid``'s Riccati rows
    at its stride.  The coarsest grid starts from q = 0.  The trapezoid q
    has an error expansion in even powers of the step, so each finer grid
    starts from the prolongation (:func:`_prolong`) of q_2h + (q_2h -
    P q_4h) / 4, the two coarser grids' estimate of its own q; the second
    grid, with no q_4h, starts from P q_2h.  Every grid stops by the same
    rule, so the result agrees with a cold one-grid :func:`solve_q` to
    within the stopping tolerance.  An odd ``n_steps``, or one below twice
    the floor, is a ladder of one grid: a cold solve with no error estimate.
    """
    validate_measure(measure, cap=math.inf)
    strides = [1]
    while (grid.n_steps // strides[0]) % 2 == 0 and grid.n_steps // strides[0] // 2 >= LADDER_FLOOR:
        strides.insert(0, 2 * strides[0])
    return _solve(measure, riccati_for_measure(measure, grid), grid, tol, max_iter, strides)


def contagion_identity_rhs(limit: LimitSolution) -> Trajectory:
    """The Picard map's image of the solved q under Simpson quadrature.

    Re-evaluates every atom's exponent E_a and slope D_a at the solved
    forcing with Simpson quadrature, then applies the Picard map:
    sum_a w_a beta_c_a D_a exp(-E_a).  Because the evaluation does not
    share the solver's trapezoid error, its gap to the solved q measures
    discretization error rather than echoing the Picard residual.
    """
    kern = _AtomKernels(limit.measure, limit.riccati, limit.grid)
    E, D = kern.simpson_exponents_and_slopes(limit.q.values)
    return Trajectory(limit.grid, kern.contagion @ (D * np.exp(-E)))
