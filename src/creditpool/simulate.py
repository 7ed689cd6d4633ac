"""Monte Carlo simulation of the finite pool of coupled default intensities.

Each of N firms carries a square-root diffusion intensity that jumps by
``beta_c / N`` whenever any firm defaults, and is exposed (with pool-size
scaling eps_N) to one shared mean-reverting factor.  A firm defaults the
first time its running integrated intensity exceeds an independent
standard-exponential threshold: each firm holds one default clock, the
threshold less the integrated intensity, and defaults when it runs out.

Discretization: full-truncation Euler for the intensity (the truncated
positive part feeds the drift, the square root, and the factor term) with
a two-point firm increment, +1 or -1 with probability 1/2 each in place of
a standard normal (the simplified weak Euler scheme, weak order 1 like the
Gaussian one), the exact Gaussian transition for the shared factor,
trapezoid accumulation of the integrated intensity, and default detection
at step ends with the whole batch of simultaneous defaults applied at once
to every survivor.

Batching: replications are stepped together.  The state of a batch is a
dense grid, one ``(replications, N)`` array per quantity, and one time
step is one pass of numpy operations over it.
:func:`run_replications` cuts its replications into batches of
``max(1, _CELL_BUDGET // N)``, and :func:`simulate` is a batch of one.
A defaulted firm's clock becomes NaN, which never runs out again, and its
column of the one coefficient table becomes zero, in one scatter; the firm
keeps its cell to the end of the run, its intensity held at its value at
default.  The signs are drawn on
the calling thread, with no helper, into one block of ``_SIGN_BLOCK``
steps held as int8 +-1: one generator call per replication and block, and
memory O(batch cells), not O(N * n_steps).

Memory per cell (one replication x firm): eight float32 rows (four rows of
the coefficient table, intensity and three step rows), a ninth for the
table's exposure row when the factor is on, the float64 clock, a one-byte
hit flag and the 16-byte sign block, all freed when :func:`_step_batch`
returns.  Recorded moments add only their two step-indexed rows per
replication, and smaller pools add their per-replication state
(generators, step-indexed paths).  README "Memory" gives the measured
bytes per cell.  Neither the sign dtype nor the block length moves an
output bit: the signs are exactly +-1.0 in the product.

Reproducibility (``RNG_CONTRACT`` 7, stated in full in README
"Determinism"): replication r of seed s draws from streams of its own keyed
by ``(s, r)``, its firm signs as the bits of raw SFC64 words, and a step
fixes every operation's order and format, float32 but for the float64
clock and factor.  A replication's output is therefore bit-identical
however the replications are batched, on any host; a firm's noise does
depend on N.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NonFiniteStateError, bounded_repr
from .model import (
    MAX_SIZE,
    DiscreteTypeMeasure,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    one_of,
    validate_measure,
    whole_number,
)

ASSIGNMENTS = ("proportional", "sampled")

#: Version of the map from ``(seed, replication)`` to random draws, written
#: into manifests.  It changes whenever simulated output bits change.
RNG_CONTRACT = 7

# Stream tags under (seed, replication, tag): keep these stable, they
# are part of the reproducibility contract.
_STREAM_FACTOR = 0
_STREAM_FIRM = 1
_STREAM_ASSIGN = 2

# Replications x firms stepped together.  Small pools share a batch, so
# per-step interpreter overhead is paid once for many replications; the
# cap bounds a batch's memory, whose per-cell state (the module docstring
# lists it) keeps every firm, defaulted or not, for the whole run.  Part
# of no contract: a replication's draws do not depend on its batch.
_CELL_BUDGET = 1 << 16

# Steps of firm signs drawn at once: one generator call per replication
# and block instead of per step, into a block of _SIGN_BLOCK int8 signs,
# 16 bytes, per cell.  Part of no contract either: neither the block
# length nor the sign dtype moves a bit.
_SIGN_BLOCK = 16


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
        object.__setattr__(self, "n_firms", whole_number(self.n_firms, "n_firms", 1, MAX_SIZE))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0))
        one_of(self.assignment, "assignment", ASSIGNMENTS)
        if not isinstance(self.record_moments, bool):
            raise FieldError("record_moments", f"must be true or false, "
                                               f"got {bounded_repr(self.record_moments)}")


@dataclass(frozen=True)
class SimResult:
    """One replication's outputs: the default-rate path and, when
    recorded, the pool averages of the intensity's first and second powers
    (a defaulted firm's taken at default), else None."""

    l_path: Trajectory
    m1: Trajectory | None
    m2: Trajectory | None
    replication: int


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


def _factor_step(gamma: float, dt: float) -> tuple[float, float]:
    """The shared factor's exact Gaussian step over dt, as ``(decay, scale)``:
    x moves to ``x * decay + scale * Z``.

    The scale is ``sqrt(-expm1(-2 gamma dt) / (2 gamma))``, or ``sqrt(dt)``,
    its limit, where 2 gamma dt is below the smallest normal double: there
    ``expm1`` has lost bits, and at 0 the factor would stop.
    """
    two_gamma_dt = 2.0 * gamma * dt
    scale = (math.sqrt(dt) if two_gamma_dt < sys.float_info.min
             else math.sqrt(-math.expm1(-two_gamma_dt) / (2.0 * gamma)))
    return math.exp(-gamma * dt), scale


def _atom_assignment(config: SimConfig, replication: int) -> np.ndarray:
    weights = np.array([a.weight for a in config.measure.atoms])
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
    validate_measure(config.measure, cap=math.inf)  # the one door: signs, weight sum
    counts, moments = _step_batch(config, replications)
    if moments is not None:
        bad = ~np.isfinite(moments).all(axis=0).T  # (step, replication)
        if bad.any():
            step, i = divmod(int(np.argmax(bad)), len(replications))
            raise NonFiniteStateError(replications[i], None, step)
    l_path = np.cumsum(counts, axis=1) / config.n_firms
    grid = config.grid
    return [SimResult(l_path=Trajectory(grid, l_path[i]),
                      m1=None if moments is None else Trajectory(grid, moments[0, i]),
                      m2=None if moments is None else Trajectory(grid, moments[1, i]),
                      replication=r)
            for i, r in enumerate(replications)]


@np.errstate(over="ignore", invalid="ignore")
def _step_batch(config: SimConfig, replications: range):
    """Step the batch; return its defaults per step, ``(replications, n_steps + 1)``,
    and its recorded moments, ``(2, replications, n_steps + 1)``, or None.  Every
    per-cell array lives in this frame, so that returning frees it."""
    n = config.n_firms
    n_steps, dt = config.grid.n_steps, config.grid.dt
    sqdt = math.sqrt(dt)
    width = len(replications)

    atoms = config.measure.atoms
    atom_idx = np.stack([_atom_assignment(config, r) for r in replications])

    ou_decay, ou_scale = _factor_step(config.factor.gamma, dt)
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
    # run, float32 but for the clock.  The per-firm coefficients are the
    # (width, N) rows of one C-contiguous table, each taken in float64 and
    # rounded once; a value beyond float32's range becomes inf and is
    # reported as non-finite state, not warned.  Each firm's clock is its
    # threshold less its integrated intensity, in units of dt/2, so the
    # thresholds are scaled by 2/dt once, here; it is the one row that
    # accumulates, so it stays float64.  A defaulted firm's clock is NaN,
    # which never runs out; the firm is still stepped, with zero coefficients.
    types = [a.firm_type for a in atoms]
    rows = [[-(t.alpha * dt) for t in types], [t.alpha * dt * t.lambda_bar for t in types],
            [t.sigma * sqdt for t in types], [t.beta_c / n for t in types]]
    if factor_active:
        rows.append([eps * t.beta_s for t in types])
    # take, not [:, atom_idx]: that keeps the bits but strides every row
    coefficients = np.array(rows, dtype=np.float32).take(atom_idx, axis=1)
    lam = np.array([a.lambda_init for a in atoms], dtype=np.float32).take(atom_idx)
    del atom_idx
    neg_alpha_dt, albar, sigma_sqdt, beta_c_n = coefficients[:4]
    exposure = coefficients[4] if factor_active else None
    clock = np.stack([g.standard_exponential(n) for g in firm_rngs])
    clock *= 2.0 / dt
    lam_plus, incr, term = np.empty((3, width, n), dtype=np.float32)
    hit = np.empty((width, n), dtype=bool)

    # the factor normals of one block of steps
    factor_normals = np.empty((width, min(_SIGN_BLOCK, n_steps)))

    counts = np.zeros((width, n_steps + 1), dtype=np.int64)  # defaults per step
    moments = np.empty((2, width, n_steps + 1)) if config.record_moments else None

    def record(k: int) -> None:
        # lam_plus is max(lam, 0), a defaulted firm's held at default;
        # term is free between steps.  The square is float32, the means
        # accumulate in float64.
        moments[0, :, k] = lam_plus.mean(axis=1, dtype=np.float64)
        moments[1, :, k] = np.multiply(lam_plus, lam_plus, out=term).mean(axis=1, dtype=np.float64)

    np.maximum(lam, 0.0, out=lam_plus)
    if config.record_moments:
        record(0)
    for start in range(0, n_steps, _SIGN_BLOCK):
        count = min(_SIGN_BLOCK, n_steps - start)
        # per replication and step ceil(N / 64) words, read as
        # little-endian bytes on any host; a set bit is -1, a clear one +1,
        # mapped in place as one byte per sign
        words = np.stack([g.bit_generator.random_raw((count, -(-n // 64))) for g in firm_rngs])
        signs = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=2,
                              bitorder="little")[:, :, :n].view(np.int8)
        signs *= -2
        signs += 1
        for g, out in zip(factor_rngs, factor_normals):
            g.standard_normal(count, out=out[:count])

        # One step, in place:  with lam+ = max(lam, 0),
        #   lam += slope lam+ + albar + sqrt(lam+) (sigma sqrt(dt)) (+-1),
        # where albar = alpha dt lbar and slope is -(alpha dt), or, with
        # the factor on, (eps beta_s) dx + (-(alpha dt)); then, in units
        # of dt/2,
        #   clock -= lam+ + max(lam, 0),
        # each operation taken in the order written, in float32 but for
        # the float64 clock and factor (dx is rounded once to float32;
        # an int8 sign casts to exactly +-1.0).  The new max(lam, 0)
        # goes into incr, free once lam has taken it, and swaps in as
        # the next step's lam+ unless a default jump moves lam.
        for j in range(count):
            k = start + j
            slope = neg_alpha_dt
            if factor_active:
                x_new = x * ou_decay + ou_scale * factor_normals[:, j]
                dx = x_new - x
                x = x_new
                slope = np.multiply(exposure, dx.astype(np.float32)[:, None], out=incr)
                slope += neg_alpha_dt
            np.multiply(slope, lam_plus, out=incr)
            incr += albar
            np.sqrt(lam_plus, out=term)
            term *= sigma_sqdt
            term *= signs[:, j]
            incr += term
            lam += incr
            # any NaN or inf makes the sum non-finite; an overflowing sum
            # of finite values only costs a search that finds nothing
            if not math.isfinite(np.add.reduce(lam, axis=None)):
                bad = np.flatnonzero(~np.isfinite(lam))
                if bad.size:
                    r, firm = divmod(int(bad[0]), n)
                    raise NonFiniteStateError(replications[r], firm, k + 1)
            np.maximum(lam, 0.0, out=incr)
            np.add(lam_plus, incr, out=term)
            clock -= term
            lam_plus, incr = incr, lam_plus

            np.less_equal(clock, 0.0, out=hit)
            newly = hit.ravel().nonzero()[0]  # np.flatnonzero, minus its call overhead
            if newly.size:
                d = np.bincount(newly // n, minlength=width)
                counts[:, k + 1] = d
                # ravel(): a view of each C-contiguous row, cheaper than .flat
                clock.ravel()[newly] = np.nan
                # a defaulted firm's coefficients go to zero, so from
                # here on its intensity holds its value at default
                coefficients.reshape(len(coefficients), -1)[:, newly] = 0.0
                # one batched jump: d defaults each contribute beta_c / N
                np.multiply(beta_c_n, d.astype(np.float32)[:, None], out=term)
                lam += term
                np.maximum(lam, 0.0, out=lam_plus)

            if config.record_moments:
                record(k + 1)
        del signs  # before the next block is unpacked
    return counts, moments


def simulate(config: SimConfig, replication: int = 0) -> SimResult:
    """Run one replication of the coupled-intensity pool.

    Bit-identical to the same replication inside :func:`run_replications`.
    A ``replication`` that is no whole number >= 0 raises :class:`FieldError`.
    Raises :class:`NonFiniteStateError` (reporting replication, firm and
    step) if any intensity becomes NaN or infinite, which signals a
    grid/parameter pathology rather than a statistical fluctuation.
    """
    replication = whole_number(replication, "replication", 0)
    return _simulate_batch(config, range(replication, replication + 1))[0]


def median_q10_q90(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Median, 10% and 90% quantiles of finite ``values`` along axis 0, from
    one sort.

    Bit for bit what ``np.median`` and ``np.quantile`` (the default "linear"
    method) give, without the ``numpy.ma`` import those pay on first use;
    only a tie of -0.0 with 0.0 may come out with the other sign.
    """
    s = np.sort(values, axis=0)
    size = len(s)
    half = size // 2
    median = s[half] if size % 2 else (s[half - 1] + s[half]) / 2

    def quantile(q: float) -> np.ndarray:
        # numpy: index (n - 1) q, and the lerp taken from the nearer end
        index = (size - 1) * q
        lo = math.floor(index)
        if lo >= size - 1:
            return s[-1]
        t = index - lo
        a, b = s[lo], s[lo + 1]
        diff = b - a
        return b - diff * (1 - t) if t >= 0.5 else a + diff * t

    return median, quantile(0.1), quantile(0.9)


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
    n_reps = whole_number(n_reps, "n_reps", 1, MAX_SIZE)
    width = max(1, _CELL_BUDGET // config.n_firms)
    results = tuple(
        result
        for start in range(0, n_reps, width)
        for result in _simulate_batch(config, range(start, min(start + width, n_reps)))
    )
    paths = np.stack([r.l_path.values for r in results])
    grid = config.grid
    _, q10, q90 = median_q10_q90(paths)
    return ReplicationSet(
        results=results,
        mean=Trajectory(grid, paths.mean(axis=0)),
        q10=Trajectory(grid, q10),
        q90=Trajectory(grid, q90),
    )
