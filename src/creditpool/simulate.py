"""Monte Carlo simulation of the finite pool of coupled default intensities.

Each of N firms carries a square-root diffusion intensity that jumps by
``beta_c / N`` whenever any firm defaults, and is exposed (with pool-size
scaling eps_N) to one shared mean-reverting factor.  A firm defaults the
first time its running integrated intensity exceeds an independent
standard-exponential threshold.

Discretization: full-truncation Euler for the intensity (the truncated
positive part feeds the drift, the square root, and the factor term), the
exact Gaussian transition for the shared factor, trapezoid accumulation of
the integrated intensity, and default detection at step ends with the
whole batch of simultaneous defaults applied at once to every survivor.

Batching: replications are stepped together.  The state of a batch is a
dense grid, one ``(replications, N)`` array per quantity, and one time
step is one pass of numpy operations over it.
:func:`run_replications` cuts its replications into batches of
``max(1, _CELL_BUDGET // N)``, and :func:`simulate` is a batch of one.
A defaulted firm's threshold becomes NaN, which no integrated intensity
reaches; the firm keeps its cell and is stepped, unread, to the end of the
run.  A one-worker thread-pool executor draws the normals into one of two
buffers while the stepping reads the other.  A batch of C cells puts
``max(16, _CELL_BUDGET // C)`` steps in a buffer, at most ``n_steps``:
1000 cells get 65 steps, and any batch of 4096 cells or more gets 16.
The two buffers together therefore hold at most ``32 * _CELL_BUDGET``
doubles (16 MB), or ``32 * N`` for a replication of more than
``_CELL_BUDGET`` firms, so memory is O(batch cells), not O(N * n_steps),
while a small batch pays its per-buffer costs less often.

Reproducibility (``RNG_CONTRACT`` 3): replication r of seed s draws its
firm noise from one SFC64 stream seeded by ``(s, r)``: N
standard-exponential thresholds first, then N standard normals per step,
in step order.  The step takes the drift as ``(lbar - lam+) * (alpha dt)``
and the noise as ``sqrt(lam+) * (sigma sqrt(dt)) * Z``.  The shared
factor and the sampled atom assignment have streams of their own under
the same key.  A replication's output is therefore bit-identical however
the replications are batched, and neither the helper thread nor the
buffer length changes a bit; a firm's noise does depend on N.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MomentsNotRecordedError, NonFiniteStateError
from .model import (
    DiscreteTypeMeasure,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    validate_measure,
    whole_number,
)

ASSIGNMENTS = ("proportional", "sampled")

#: Version of the map from ``(seed, replication)`` to random draws, written
#: into manifests.  It changes whenever simulated output bits change.
RNG_CONTRACT = 3

# Stream tags under (seed, replication, tag): keep these stable, they
# are part of the reproducibility contract.
_STREAM_FACTOR = 0
_STREAM_FIRM = 1
_STREAM_ASSIGN = 2

# Replications x firms stepped together.  Small pools share a batch, so
# per-step interpreter overhead is paid once for many replications; the
# cap bounds a batch's memory, whose per-cell state keeps every firm,
# defaulted or not, for the whole run.  It also sizes the normals buffers
# (see the module docstring): a small batch gets longer buffers, so it pays
# the per-buffer costs (a task for the one-worker executor that draws the
# normals, one generator call per replication) less often.  Part of no
# contract: a stream's draws do not depend on how they are blocked.
_CELL_BUDGET = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    n_firms: int
    measure: DiscreteTypeMeasure
    factor: SystematicFactorConfig
    grid: TimeGrid
    seed: int
    assignment: str = "proportional"
    record_moments: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_firms", whole_number(self.n_firms, "n_firms"))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
        if self.n_firms < 1:
            raise ValueError("n_firms must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")


@dataclass(frozen=True)
class SimResult:
    """One replication: default-rate path plus per-firm outcomes."""

    l_path: Trajectory
    default_times: np.ndarray          # nan where the firm survived
    intensity_moment_paths: tuple[Trajectory, Trajectory] | None
    seed_used: int
    replication: int

    def __post_init__(self):
        dt = np.asarray(self.default_times, dtype=float).copy()
        dt.setflags(write=False)
        object.__setattr__(self, "default_times", dt)


def proportional_counts(weights: np.ndarray, n_firms: int) -> np.ndarray:
    """Firm counts per atom: floor(w*N) plus largest-remainder top-up.

    Deterministic; ties broken toward lower atom index.  Counts always sum
    to ``n_firms``.
    """
    exact = np.asarray(weights, dtype=float) * n_firms
    base = np.floor(exact).astype(int)
    deficit = n_firms - int(base.sum())
    if deficit > 0:
        order = np.argsort(-(exact - base), kind="stable")
        base[order[:deficit]] += 1
    return base


def _seed_sequence(seed: int, replication: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(replication, tag))


def _atom_assignment(config: SimConfig, replication: int) -> np.ndarray:
    weights = config.measure.weights()
    if config.assignment == "proportional":
        counts = proportional_counts(weights, config.n_firms)
        return np.repeat(np.arange(len(weights)), counts)
    rng = np.random.default_rng(_seed_sequence(config.seed, replication, _STREAM_ASSIGN))
    return rng.choice(len(weights), size=config.n_firms, p=weights / weights.sum())


def _simulate_batch(config: SimConfig, replications: range) -> list[SimResult]:
    """Step the given replications together; one result per replication.

    Raises :class:`NonFiniteStateError` (reporting replication, firm and
    step) if any intensity becomes NaN or infinite, and (reporting
    replication and step) if a recorded moment does, such as the pool mean
    of finite intensities that overflows.
    """
    n = config.n_firms
    grid = config.grid
    n_steps = grid.n_steps
    dt = grid.dt
    half_dt = 0.5 * dt
    sqdt = math.sqrt(dt)
    width = len(replications)

    atoms = config.measure.atoms
    atom_idx = np.stack([_atom_assignment(config, r) for r in replications])

    def per_cell(values) -> np.ndarray:
        return np.array(values, dtype=float)[atom_idx]

    gamma = config.factor.gamma
    ou_decay = math.exp(-gamma * dt)
    ou_scale = math.sqrt((1.0 - math.exp(-2.0 * gamma * dt)) / (2.0 * gamma))
    eps = config.factor.eps(n)
    # With zero exposure the factor term is skipped entirely, so the factor
    # stream provably cannot influence firm states.  Deciding from the
    # measure, not from the firms a replication drew, keeps every
    # replication of a batch on the same arithmetic.
    factor_active = eps != 0.0 and any(a.firm_type.beta_s != 0.0 for a in atoms)
    x = np.full(width, config.factor.x_init)

    firm_rngs = [np.random.Generator(np.random.SFC64(
        _seed_sequence(config.seed, r, _STREAM_FIRM))) for r in replications]
    factor_rngs = [np.random.default_rng(_seed_sequence(config.seed, r, _STREAM_FACTOR))
                   for r in replications] if factor_active else []

    # One (width, N) array per quantity, replication by firm, for the whole
    # run.  A defaulted firm's threshold is NaN, which no integrated
    # intensity reaches; the firm is still stepped, but no output reads it.
    shape = (width, n)
    alpha_dt = per_cell([a.firm_type.alpha * dt for a in atoms])
    lbar = per_cell([a.firm_type.lambda_bar for a in atoms])
    sigma_sqdt = per_cell([a.firm_type.sigma * sqdt for a in atoms])
    beta_c = per_cell([a.firm_type.beta_c for a in atoms])
    exposure = eps * per_cell([a.firm_type.beta_s for a in atoms])
    lam = per_cell([a.lambda_init for a in atoms])
    integrated = np.zeros(shape)
    thresholds = np.stack([g.standard_exponential(n) for g in firm_rngs])
    lam_plus, next_plus, incr, term = np.empty((4, width, n))
    hit = np.empty(shape, dtype=bool)

    # Two buffers of `block` steps each: the executor's one thread draws
    # the next block into one while this thread steps through the other,
    # replication-major so each stream fills a contiguous run.
    block = min(max(16, _CELL_BUDGET // (width * n)), n_steps)
    normals = np.empty((2, width, block, n))
    factor_normals = np.empty((2, width, block))

    def draw(i: int) -> None:
        count = min(block, n_steps - i * block)
        for g, out in zip(firm_rngs, normals[i % 2]):
            g.standard_normal((count, n), out=out[:count])
        for g, out in zip(factor_rngs, factor_normals[i % 2]):
            g.standard_normal(count, out=out[:count])

    counts = np.zeros((width, n_steps + 1), dtype=np.int64)  # defaults per step
    default_times = np.full(shape, np.nan)
    if config.record_moments:
        # every firm's latest intensity; a defaulted firm's stays frozen
        frozen = lam.copy()
        m1 = np.empty((width, n_steps + 1))
        m2 = np.empty((width, n_steps + 1))

        def record(k: int) -> None:
            pos = np.maximum(frozen, 0.0)
            m1[:, k] = pos.mean(axis=1)
            m2[:, k] = np.mean(pos * pos, axis=1)

    n_blocks = -(-n_steps // block)
    # draw(i + 1) refills the buffer block i - 1 read, so it is submitted
    # only once that block is stepped; leaving the `with` waits for it
    with (ThreadPoolExecutor(1, "creditpool-normals") as helper,
          np.errstate(over="ignore", invalid="ignore")):
        drawn = helper.submit(draw, 0)
        if config.record_moments:
            record(0)
        np.maximum(lam, 0.0, out=lam_plus)
        for i in range(n_blocks):
            drawn.result()  # raises here what draw raised on the helper
            if i + 1 < n_blocks:
                drawn = helper.submit(draw, i + 1)
            start, buf = i * block, i % 2

            # One step, in place:  with lam+ = max(lam, 0),
            #   lam += (lbar - lam+) (alpha dt) + sqrt(lam+) (sigma sqrt(dt)) Z
            #          + exposure lam+ dx,
            #   integrated += dt/2 (lam+ + max(lam, 0)),
            # each product taken in the order written, so the bits match
            # the formula evaluated term by term.  The new max(lam, 0) is
            # the next step's lam+ unless a default jump moves lam.
            for k in range(start, min(start + block, n_steps)):
                j = k - start
                np.subtract(lbar, lam_plus, out=incr)
                incr *= alpha_dt
                np.sqrt(lam_plus, out=term)
                term *= sigma_sqdt
                term *= normals[buf, :, j]
                incr += term
                if factor_active:
                    x_new = x * ou_decay + ou_scale * factor_normals[buf, :, j]
                    dx = x_new - x
                    x = x_new
                    np.multiply(exposure, lam_plus, out=term)
                    term *= dx[:, None]
                    incr += term
                lam += incr
                # any NaN or inf makes the sum non-finite; an overflowing sum
                # of finite values only costs a search that finds nothing
                if not math.isfinite(np.add.reduce(lam, axis=None)):
                    bad = np.flatnonzero((thresholds == thresholds) & ~np.isfinite(lam))
                    if bad.size:
                        r, firm = divmod(int(bad[0]), n)
                        raise NonFiniteStateError(replications[r], firm, k + 1)
                np.maximum(lam, 0.0, out=next_plus)
                np.add(next_plus, lam_plus, out=term)
                term *= half_dt
                integrated += term
                lam_plus, next_plus = next_plus, lam_plus

                np.greater_equal(integrated, thresholds, out=hit)
                newly = hit.ravel().nonzero()[0]  # np.flatnonzero, minus its call overhead
                if newly.size:
                    d = np.bincount(newly // n, minlength=width)
                    counts[:, k + 1] = d
                    thresholds.flat[newly] = np.nan
                    default_times.flat[newly] = (k + 1) * dt
                    if config.record_moments:
                        frozen.flat[newly] = lam.flat[newly]
                    # one batched jump: d defaults each contribute beta_c / N
                    # (defaulted firms jump too, but nothing reads them)
                    np.multiply(d[:, None], beta_c, out=term)
                    term /= n
                    lam += term
                    np.maximum(lam, 0.0, out=lam_plus)

                if config.record_moments:
                    np.copyto(frozen, lam, where=thresholds == thresholds)
                    record(k + 1)

    if config.record_moments:
        bad = ~(np.isfinite(m1) & np.isfinite(m2)).T  # (step, replication)
        if bad.any():
            step, i = divmod(int(np.argmax(bad)), width)
            raise NonFiniteStateError(replications[i], None, step)

    l_path = np.cumsum(counts, axis=1) / n
    results = []
    for i, r in enumerate(replications):
        moments = None
        if config.record_moments:
            moments = (Trajectory(grid, m1[i]), Trajectory(grid, m2[i]))
        results.append(SimResult(
            l_path=Trajectory(grid, l_path[i]),
            default_times=default_times[i],
            intensity_moment_paths=moments,
            seed_used=config.seed,
            replication=r,
        ))
    return results


def simulate(config: SimConfig, replication: int = 0) -> SimResult:
    """Run one replication of the coupled-intensity pool.

    Bit-identical to the same replication inside :func:`run_replications`.
    Raises :class:`NonFiniteStateError` (reporting replication, firm and
    step) if any intensity becomes NaN or infinite, which signals a
    grid/parameter pathology rather than a statistical fluctuation.
    """
    validate_measure(config.measure, cap=math.inf)  # signs and weight sum
    return _simulate_batch(config, range(replication, replication + 1))[0]


@dataclass(frozen=True)
class ReplicationSet:
    """Replications of one configuration plus pointwise aggregates."""

    results: tuple[SimResult, ...]
    mean: Trajectory
    q10: Trajectory
    q90: Trajectory


def run_replications(config: SimConfig, n_reps: int) -> ReplicationSet:
    """Run replications ``0 .. n_reps-1`` and aggregate pointwise.

    Replications are stepped in batches of ``max(1, _CELL_BUDGET // N)``;
    each one's output is the same as :func:`simulate` gives it alone.
    """
    n_reps = whole_number(n_reps, "n_reps")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    validate_measure(config.measure, cap=math.inf)  # signs and weight sum
    width = max(1, _CELL_BUDGET // config.n_firms)
    results = tuple(
        result
        for start in range(0, n_reps, width)
        for result in _simulate_batch(config, range(start, min(start + width, n_reps)))
    )
    paths = np.stack([r.l_path.values for r in results])
    grid = config.grid
    return ReplicationSet(
        results=results,
        mean=Trajectory(grid, paths.mean(axis=0)),
        q10=Trajectory(grid, np.quantile(paths, 0.1, axis=0)),
        q90=Trajectory(grid, np.quantile(paths, 0.9, axis=0)),
    )


def moment_diagnostic(result: SimResult, p: int) -> Trajectory:
    """Recorded path of the pool-average p-th power of the intensity.

    Dead firms contribute their frozen value; a blow-up of this path flags
    an unstable discretization.  Only p = 1 and p = 2 are recorded.
    """
    if result.intensity_moment_paths is None:
        raise MomentsNotRecordedError("run with record_moments=True to use this")
    if p == 1:
        return result.intensity_moment_paths[0]
    if p == 2:
        return result.intensity_moment_paths[1]
    raise MomentsNotRecordedError(f"only moments p=1,2 are recorded, asked for p={p}")
