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
set of ``(replications, firms)`` arrays and one time step is one pass of
numpy operations over them.  :func:`run_replications` cuts its
replications into batches of ``max(1, _CELL_BUDGET // N)``, and
:func:`simulate` is a batch of one.  Memory is O(batch cells), not
O(N * n_steps): normals are drawn a block of steps at a time.

Reproducibility (``RNG_CONTRACT`` 2): replication r of seed s draws its
firm noise from one counter-based Philox stream keyed by ``(s, r)``: N
standard-exponential thresholds first, then N standard normals per step,
in step order.  The shared factor and the sampled atom assignment have
streams of their own under the same key.  A replication's output is
therefore bit-identical however the replications are batched, but a
firm's noise depends on N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MomentsNotRecordedError, NonFiniteStateError
from .model import (
    DiscreteTypeMeasure,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    validate_measure,
)

ASSIGNMENTS = ("proportional", "sampled")

#: Version of the map from ``(seed, replication)`` to random draws, written
#: into manifests.  It changes whenever simulated output bits change.
RNG_CONTRACT = 2

# Stream tags under (seed, replication, tag): keep these stable, they
# are part of the reproducibility contract.
_STREAM_FACTOR = 0
_STREAM_FIRM = 1
_STREAM_ASSIGN = 2

# Replications x firms stepped together.  Small pools share a batch, so
# per-step interpreter overhead is paid once for many replications; the
# cap bounds a batch's memory (its normals buffer is at most
# _NORMAL_BLOCK * _CELL_BUDGET doubles, 16 MB).  Speed is flat from 2**12
# to 2**18 cells at N = 100 .. 1e4.
_CELL_BUDGET = 1 << 16

# Steps of normals drawn at once per replication.  Part of no contract:
# a stream's draws do not depend on how they are blocked.
_NORMAL_BLOCK = 32


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    n_firms: int
    measure: DiscreteTypeMeasure
    factor: SystematicFactorConfig
    grid: TimeGrid
    seed: int
    assignment: str = "proportional"
    record_moments: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_firms", int(self.n_firms))
        object.__setattr__(self, "seed", int(self.seed))
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
    step) if any intensity becomes NaN or infinite.
    """
    n = config.n_firms
    grid = config.grid
    n_steps = grid.n_steps
    dt = grid.dt
    sqdt = math.sqrt(dt)
    width = len(replications)

    atoms = config.measure.atoms
    atom_idx = np.stack([_atom_assignment(config, r) for r in replications])

    def per_firm(values) -> np.ndarray:
        return np.array(values)[atom_idx]

    neg_alpha = -per_firm([a.firm_type.alpha for a in atoms])
    lbar = per_firm([a.firm_type.lambda_bar for a in atoms])
    sigma = per_firm([a.firm_type.sigma for a in atoms])
    beta_c = per_firm([a.firm_type.beta_c for a in atoms])
    lam = per_firm([a.lambda_init for a in atoms])

    firm_rngs = [np.random.Generator(np.random.Philox(
        _seed_sequence(config.seed, r, _STREAM_FIRM))) for r in replications]
    thresholds = np.stack([g.standard_exponential(n) for g in firm_rngs])
    block = min(_NORMAL_BLOCK, n_steps)
    normals = np.empty((width, block, n))

    gamma = config.factor.gamma
    ou_decay = math.exp(-gamma * dt)
    ou_scale = math.sqrt((1.0 - math.exp(-2.0 * gamma * dt)) / (2.0 * gamma))
    eps = config.factor.eps(n)
    # With zero exposure the factor term is skipped entirely, so the factor
    # stream provably cannot influence firm states.  Deciding from the
    # measure, not from the firms a replication drew, keeps every
    # replication of a batch on the same arithmetic.
    factor_active = eps != 0.0 and any(a.firm_type.beta_s != 0.0 for a in atoms)
    if factor_active:
        exposure = eps * per_firm([a.firm_type.beta_s for a in atoms])
        factor_rngs = [np.random.default_rng(_seed_sequence(config.seed, r, _STREAM_FACTOR))
                       for r in replications]
        factor_normals = np.empty((width, block))
        x = np.full(width, config.factor.x_init)

    integrated = np.zeros((width, n))
    alive = np.ones((width, n), dtype=bool)
    defaults = np.zeros(width, dtype=np.int64)
    l_path = np.zeros((width, n_steps + 1))
    default_times = np.full((width, n), np.nan)
    if config.record_moments:
        m1 = np.empty((width, n_steps + 1))
        m2 = np.empty((width, n_steps + 1))
        pos0 = np.maximum(lam, 0.0)
        m1[:, 0] = pos0.mean(axis=1)
        m2[:, 0] = np.mean(pos0 * pos0, axis=1)

    for k in range(n_steps):
        j = k % block
        if j == 0:
            drawn = min(block, n_steps - k)
            for g, out in zip(firm_rngs, normals):
                g.standard_normal((drawn, n), out=out[:drawn])
            if factor_active:
                for g, out in zip(factor_rngs, factor_normals):
                    g.standard_normal(drawn, out=out[:drawn])

        if factor_active:
            x_new = x * ou_decay + ou_scale * factor_normals[:, j]
            dx = (x_new - x)[:, None]
            x = x_new

        lam_plus = np.maximum(lam, 0.0)
        # overflow here is reported as NonFiniteStateError, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            incr = (
                neg_alpha * (lam_plus - lbar) * dt
                + sigma * np.sqrt(lam_plus) * (sqdt * normals[:, j])
            )
            if factor_active:
                incr += exposure * lam_plus * dx
            lam_new = np.where(alive, lam + incr, lam)
        finite = np.isfinite(lam_new)
        if not finite.all():
            rep, firm = np.unravel_index(np.argmin(finite), finite.shape)
            raise NonFiniteStateError(replications[rep], int(firm), k + 1)
        integrated = np.where(
            alive,
            integrated + 0.5 * dt * (lam_plus + np.maximum(lam_new, 0.0)),
            integrated,
        )
        lam = lam_new

        newly = alive & (integrated >= thresholds)
        if newly.any():
            d = np.count_nonzero(newly, axis=1)
            alive &= ~newly
            default_times[newly] = (k + 1) * dt
            defaults += d
            # one batched jump: d defaults each contribute beta_c / N
            lam = np.where(alive, lam + d[:, None] * beta_c / n, lam)
        l_path[:, k + 1] = defaults / n

        if config.record_moments:
            pos = np.maximum(lam, 0.0)
            m1[:, k + 1] = pos.mean(axis=1)
            m2[:, k + 1] = np.mean(pos * pos, axis=1)

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
