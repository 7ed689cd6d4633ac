import hashlib
import math
import sys
import threading
import tracemalloc
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import (
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    MomentsNotRecordedError,
    NonFiniteStateError,
    SimConfig,
    SystematicFactorConfig,
    TimeGrid,
    TypeAtom,
    homogeneous_measure,
    moment_diagnostic,
    proportional_counts,
    run_replications,
    simulate,
)

from conftest import BASE

# the package exports the function simulate under the module's name
simulate_module = import_module("creditpool.simulate")


TWO_ATOMS = DiscreteTypeMeasure(
    (
        TypeAtom(FirmType(4.0, 0.5, 0.9, 2.0, beta_s=1.0), 0.5, 0.5),
        TypeAtom(FirmType(2.0, 0.3, 0.6, 1.0, beta_s=2.0), 0.3, 0.5),
    )
)


def make_config(n_firms=200, grid=None, seed=123, measure=None, factor=None, **kw):
    return SimConfig(
        n_firms=n_firms,
        measure=measure or homogeneous_measure(BASE, 0.5),
        factor=factor or SystematicFactorConfig(),
        grid=grid or TimeGrid(1.0, 200),
        seed=seed,
        **kw,
    )


def count_buffers(monkeypatch) -> list[int]:
    """The number of normals buffers each batch fills, appended batch by batch."""
    seen = []

    class Spy(simulate_module.ThreadPoolExecutor):
        # each batch opens one executor and submits one draw per buffer
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.slot = len(seen)
            seen.append(0)

        def submit(self, *args, **kwargs):
            seen[self.slot] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", Spy)
    return seen


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        config = make_config(record_moments=True)
        a, b = simulate(config), simulate(config)
        np.testing.assert_array_equal(a.l_path.values, b.l_path.values)
        np.testing.assert_array_equal(a.default_times, b.default_times)
        np.testing.assert_array_equal(
            a.intensity_moment_paths[0].values, b.intensity_moment_paths[0].values
        )

    def test_replications_differ_but_are_reproducible(self):
        config = make_config()
        r0, r1 = simulate(config, 0), simulate(config, 1)
        assert not np.array_equal(r0.l_path.values, r1.l_path.values)
        np.testing.assert_array_equal(
            r1.l_path.values, simulate(config, 1).l_path.values
        )

    def test_batching_does_not_change_results(self, monkeypatch):
        # two atoms with factor exposure, so every term of a step runs; 150
        # steps end in a partial block of normals
        m = DiscreteTypeMeasure(
            (
                TypeAtom(FirmType(4.0, 0.5, 0.9, 2.0, beta_s=1.0), 0.5, 0.5),
                TypeAtom(FirmType(2.0, 0.3, 0.6, 1.0, beta_s=2.0), 0.3, 0.5),
            )
        )
        for n_firms in (7, 100):
            config = make_config(n_firms=n_firms, measure=m, grid=TimeGrid(1.0, 150), seed=124,
                                 record_moments=True)
            alone = [simulate(config, r) for r in range(6)]
            assert alone[0].l_path.values[-1] > 0.0
            for width in (1, 2, 6):
                monkeypatch.setattr(simulate_module, "_CELL_BUDGET", width * n_firms)
                batched = run_replications(config, 6).results
                for a, b in zip(alone, batched):
                    assert b.replication == a.replication
                    np.testing.assert_array_equal(a.l_path.values, b.l_path.values)
                    np.testing.assert_array_equal(a.default_times, b.default_times)
                    for p in (1, 2):
                        np.testing.assert_array_equal(
                            moment_diagnostic(a, p).values, moment_diagnostic(b, p).values
                        )

    def test_factor_stream_is_separate(self):
        # with zero exposure, changing the factor's dynamics cannot move a bit
        eps0 = SystematicFactorConfig(gamma=1.0, eps=EpsSchedule("zero"))
        eps0_other = SystematicFactorConfig(gamma=7.0, x_init=3.0, eps=EpsSchedule("zero"))
        a = simulate(make_config(factor=eps0))
        b = simulate(make_config(factor=eps0_other))
        np.testing.assert_array_equal(a.l_path.values, b.l_path.values)
        np.testing.assert_array_equal(a.default_times, b.default_times)


class TestPathStructure:
    def test_l_path_shape(self):
        result = simulate(make_config(n_firms=150))
        l = result.l_path.values
        n = 150
        assert l[0] == 0.0
        assert np.all(np.diff(l) >= 0.0)
        counts = l * n
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_default_times_match_path(self):
        result = simulate(make_config(n_firms=150))
        final = result.l_path.values[-1]
        assert np.count_nonzero(~np.isnan(result.default_times)) == round(final * 150)

    def test_zero_pool_is_absorbing(self):
        m = homogeneous_measure(FirmType(4.0, 0.0, 0.9, 2.0), 0.0)
        result = simulate(make_config(measure=m, record_moments=True))
        assert np.all(result.l_path.values == 0.0)
        assert np.all(np.isnan(result.default_times))
        assert np.all(moment_diagnostic(result, 1).values == 0.0)
        assert np.all(moment_diagnostic(result, 2).values == 0.0)

    def test_single_firm_pool(self):
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, beta_c=2.0), 5.0)
        result = simulate(
            make_config(n_firms=1, measure=m, grid=TimeGrid(2.0, 400), seed=5,
                        record_moments=True)
        )
        l = result.l_path.values
        assert set(np.unique(l)) == {0.0, 1.0}
        # frozen after the only default: recorded intensity moment is constant
        k = int(np.argmax(l))
        m1 = moment_diagnostic(result, 1).values
        assert np.all(m1[k:] == m1[k])

    def test_contagion_only_acts_through_defaults(self):
        # identical streams, different sensitivity: paths agree until the
        # first default makes the coupling bite
        grid = TimeGrid(1.0, 200)
        base = simulate(make_config(measure=homogeneous_measure(
            FirmType(4.0, 0.5, 0.9, beta_c=0.0), 0.5), grid=grid))
        coupled = simulate(make_config(measure=homogeneous_measure(
            FirmType(4.0, 0.5, 0.9, beta_c=5.0), 0.5), grid=grid))
        first = int(np.argmax(base.l_path.values > 0.0))
        assert first > 0
        np.testing.assert_array_equal(
            base.l_path.values[:first], coupled.l_path.values[:first]
        )
        assert coupled.l_path.values[-1] >= base.l_path.values[-1]

    def test_nonfinite_state_reported(self):
        m = homogeneous_measure(FirmType(1e200, 1e200, 0.0, 0.0), 1.0)
        with pytest.raises(NonFiniteStateError) as err:
            simulate(make_config(measure=m, n_firms=3), replication=2)
        assert err.value.step == 1
        assert 0 <= err.value.firm < 3
        assert err.value.replication == 2
        assert "replication 2" in str(err.value)

    def test_finite_state_whose_sum_overflows(self):
        # each intensity is finite, their sum is not: no error, and every
        # firm defaults on the first step; but their recorded pool mean
        # overflows from the start
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), 6e307)
        result = simulate(make_config(measure=m, n_firms=4, grid=TimeGrid(1.0, 20),
                                      record_moments=False))
        assert np.all(result.l_path.values[1:] == 1.0)
        with pytest.raises(NonFiniteStateError) as err:
            simulate(make_config(measure=m, n_firms=4, grid=TimeGrid(1.0, 20),
                                 record_moments=True), replication=3)
        assert (err.value.replication, err.value.firm, err.value.step) == (3, None, 0)
        assert "replication 3" in str(err.value) and "step 0" in str(err.value)

    def test_peak_memory_bounded_at_large_pool(self):
        # the normals of 1000 steps alone would take 160 MB at once
        config = make_config(n_firms=20_000, grid=TimeGrid(1.0, 1000),
                             record_moments=False)
        tracemalloc.start()
        try:
            simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestOracles:
    def test_constant_intensity_exponential_cdf(self):
        # alpha = sigma = beta = 0, lam0 = 0.5: default times are Exp(0.5)
        grid = TimeGrid(1.0, 500)
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), 0.5)
        reps = run_replications(make_config(n_firms=2000, measure=m, grid=grid), 3)
        expected = 1.0 - np.exp(-0.5 * grid.points())
        assert np.max(np.abs(reps.mean.values - expected)) < 0.03

    def test_first_moment_tracks_square_root_diffusion_mean(self):
        # beta_c = beta_s = 0: pool average of the intensity follows
        # lbar + (lam0 - lbar) exp(-alpha t) up to sampling noise and the
        # small bias from freezing defaulted firms (few at these levels)
        grid = TimeGrid(1.0, 500)
        m = homogeneous_measure(FirmType(4.0, 0.05, 0.3, 0.0), 0.1)
        result = simulate(make_config(n_firms=4000, measure=m, grid=grid, seed=9,
                                      record_moments=True))
        t = grid.points()
        expected = 0.05 + (0.1 - 0.05) * np.exp(-4.0 * t)
        observed = moment_diagnostic(result, 1).values
        assert np.max(np.abs(observed - expected)) < 5e-3

    def test_second_moment_stays_bounded(self):
        result = simulate(make_config(n_firms=2000, grid=TimeGrid(1.0, 500), record_moments=True))
        m2 = moment_diagnostic(result, 2).values
        assert np.all(np.isfinite(m2))
        assert m2.max() < 5.0

    def test_factor_exposure_variance_shrinks_with_schedule(self):
        # sigma = beta_c = 0 isolates the factor term; the built-in
        # 1/sqrt(N) schedule must inject less variance than a fixed one
        grid = TimeGrid(0.5, 250)
        m = homogeneous_measure(FirmType(4.0, 0.5, 0.0, 0.0, beta_s=4.0), 0.5)
        finals = {}
        for name, eps in (("fixed", EpsSchedule("fixed", 0.5)),
                          ("sqrt", EpsSchedule("inverse_sqrt", 0.5))):
            factor = SystematicFactorConfig(gamma=1.0, eps=eps)
            reps = run_replications(
                make_config(n_firms=400, measure=m, factor=factor, grid=grid, seed=3),
                40,
            )
            finals[name] = np.array([r.l_path.values[-1] for r in reps.results])
        assert finals["fixed"].var() > finals["sqrt"].var()

    # Fixed before the first run: the seed, and the 0.999 quantile of
    # chi-square with 10 degrees of freedom (10 step bins and survival).
    BINOMIAL_SEED = 20260810
    CHI2_10_Q999 = 29.59

    @pytest.mark.parametrize("n_reps, buffers", [(250, 2), (2000, 7)])
    def test_exact_binomial_oracle(self, monkeypatch, n_reps, buffers):
        # sigma = beta_c = beta_s = 0: every firm has the same deterministic
        # integrated intensity Lambda_k, the simulator's own Euler and
        # trapezoid sum, so a firm defaults at the first step with
        # Lambda_k >= its Exp(1) threshold.  N = 4 firms per replication;
        # 1000 cells get 65-step buffers, 8000 cells get 16-step ones.
        grid = TimeGrid(1.0, 100)
        alpha, lbar, lam0 = 3.0, 1.0, 0.2
        n = 4
        config = make_config(n_firms=n, grid=grid, seed=self.BINOMIAL_SEED,
                             measure=homogeneous_measure(FirmType(alpha, lbar, 0.0, 0.0), lam0))
        seen = count_buffers(monkeypatch)
        reps = run_replications(config, n_reps)
        assert seen == [buffers]

        dt = grid.dt
        alpha_dt, half_dt = alpha * dt, 0.5 * dt
        lam, big_lambda = lam0, [0.0]
        for _ in range(grid.n_steps):
            lam_plus = max(lam, 0.0)
            lam = lam + (lbar - lam_plus) * alpha_dt
            big_lambda.append(big_lambda[-1] + (max(lam, 0.0) + lam_plus) * half_dt)
        big_lambda = np.array(big_lambda)

        # bit for bit: each firm's default time from its own threshold
        for result in reps.results:
            thresholds = np.random.Generator(np.random.SFC64(simulate_module._seed_sequence(
                config.seed, result.replication, simulate_module._STREAM_FIRM
            ))).standard_exponential(n)
            step = np.searchsorted(big_lambda, thresholds)
            expected = np.where(step <= grid.n_steps, step * dt, np.nan)
            np.testing.assert_array_equal(result.default_times, expected)

        # in law: defaults per step, read from the aggregated L paths, against
        # the multinomial p_k = exp(-Lambda_{k-1}) - exp(-Lambda_k)
        per_step = np.rint(np.diff(np.stack([r.l_path.values for r in reps.results])) * n)
        observed = np.append(per_step.sum(axis=0).reshape(10, 10).sum(axis=1),
                             n * n_reps - per_step.sum())
        survival = np.exp(-big_lambda)
        p = np.append(-np.diff(survival[::10]), survival[-1])
        expected = n * n_reps * p
        assert expected.min() > 5.0
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < self.CHI2_10_Q999


class TestMoments:
    def test_not_recorded(self):
        result = simulate(make_config(record_moments=False))
        assert result.intensity_moment_paths is None
        with pytest.raises(MomentsNotRecordedError):
            moment_diagnostic(result, 1)

    def test_unsupported_order(self):
        result = simulate(make_config(record_moments=True))
        with pytest.raises(MomentsNotRecordedError):
            moment_diagnostic(result, 3)


class TestAssignment:
    def test_proportional_exact_split(self):
        counts = proportional_counts(np.array([0.3, 0.7]), 10)
        assert counts.tolist() == [3, 7]

    def test_largest_remainder_tie_break(self):
        counts = proportional_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 10)
        assert counts.tolist() == [4, 3, 3]

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
        n=st.integers(1, 500),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_always_sum_to_n(self, weights, n):
        w = np.array(weights)
        w /= w.sum()
        counts = proportional_counts(w, n)
        assert counts.sum() == n
        assert np.all(counts >= 0)

    def test_sampled_assignment_reproducible(self):
        m = DiscreteTypeMeasure(
            (
                TypeAtom(FirmType(4.0, 0.5, 0.9, 0.0), 0.5, 0.5),
                TypeAtom(FirmType(2.0, 0.2, 0.4, 1.0), 0.3, 0.5),
            )
        )
        config = make_config(measure=m, assignment="sampled")
        a, b = simulate(config), simulate(config)
        np.testing.assert_array_equal(a.l_path.values, b.l_path.values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(n_firms=0)
        with pytest.raises(ValueError):
            make_config(seed=-1)
        with pytest.raises(ValueError):
            make_config(assignment="alphabetical")
        with pytest.raises(ValueError, match="must be an integer"):
            make_config(n_firms=10.9, seed=3)  # not truncated to 10 firms
        with pytest.raises(ValueError, match="must be an integer"):
            make_config(seed=3.7)
        with pytest.raises(ValueError, match="must be an integer"):
            run_replications(make_config(), True)  # not one replication
        with pytest.raises(ValueError):
            run_replications(make_config(), 0)


def reference_batch(config, replications):
    """The direct step loop: every firm of every replication each step, with
    defaulted firms masked out, and one normal draw per step.

    Returns ``(l_path, default_times, m1, m2)`` as ``(replications, ...)``
    arrays.  The oracle for the prefetching kernel, which steps defaulted
    firms too but reads nothing of theirs, and the
    written form of RNG contract 3: one SFC64 stream per replication for
    the firms (N thresholds, then N normals per step), the drift
    ``(lbar - lam+) * (alpha dt)`` and the noise
    ``sqrt(lam+) * (sigma sqrt(dt)) * Z``.
    """
    n, grid = config.n_firms, config.grid
    dt, sqdt = grid.dt, math.sqrt(grid.dt)
    atoms = config.measure.atoms
    idx = np.stack([simulate_module._atom_assignment(config, r) for r in replications])

    def per_firm(values):
        return np.array(values)[idx]

    def stream(r, tag):
        return simulate_module._seed_sequence(config.seed, r, tag)

    alpha_dt = per_firm([a.firm_type.alpha * dt for a in atoms])
    lbar = per_firm([a.firm_type.lambda_bar for a in atoms])
    sigma_sqdt = per_firm([a.firm_type.sigma * sqdt for a in atoms])
    beta_c = per_firm([a.firm_type.beta_c for a in atoms])
    lam = per_firm([a.lambda_init for a in atoms])
    firm_rngs = [np.random.Generator(np.random.SFC64(stream(r, simulate_module._STREAM_FIRM)))
                 for r in replications]
    thresholds = np.stack([g.standard_exponential(n) for g in firm_rngs])

    gamma = config.factor.gamma
    ou_decay = math.exp(-gamma * dt)
    ou_scale = math.sqrt((1.0 - math.exp(-2.0 * gamma * dt)) / (2.0 * gamma))
    eps = config.factor.eps(n)
    factor_active = eps != 0.0 and any(a.firm_type.beta_s != 0.0 for a in atoms)
    exposure = eps * per_firm([a.firm_type.beta_s for a in atoms])
    factor_rngs = [np.random.default_rng(stream(r, simulate_module._STREAM_FACTOR))
                   for r in replications]
    x = np.full(len(replications), config.factor.x_init)

    integrated = np.zeros_like(lam)
    alive = np.ones(lam.shape, dtype=bool)
    defaults = np.zeros(len(replications), dtype=np.int64)
    l_path = np.zeros((len(replications), grid.n_steps + 1))
    default_times = np.full(lam.shape, np.nan)
    m1, m2 = np.empty_like(l_path), np.empty_like(l_path)
    pos = np.maximum(lam, 0.0)
    m1[:, 0], m2[:, 0] = pos.mean(axis=1), np.mean(pos * pos, axis=1)

    # the non-finite case overflows on purpose; it is reported, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            z = np.stack([g.standard_normal(n) for g in firm_rngs])
            if factor_active:
                factor_z = np.array([g.standard_normal() for g in factor_rngs])
                x_new = x * ou_decay + ou_scale * factor_z
                dx = (x_new - x)[:, None]
                x = x_new
            lam_plus = np.maximum(lam, 0.0)
            incr = (lbar - lam_plus) * alpha_dt + np.sqrt(lam_plus) * sigma_sqdt * z
            if factor_active:
                incr += exposure * lam_plus * dx
            lam_new = np.where(alive, lam + incr, lam)
            finite = np.isfinite(lam_new)
            if not finite.all():
                rep, firm = np.unravel_index(np.argmin(finite), finite.shape)
                raise NonFiniteStateError(replications[rep], int(firm), k + 1)
            integrated = np.where(
                alive, integrated + 0.5 * dt * (lam_plus + np.maximum(lam_new, 0.0)), integrated
            )
            lam = lam_new
            newly = alive & (integrated >= thresholds)
            if newly.any():
                d = np.count_nonzero(newly, axis=1)
                alive &= ~newly
                default_times[newly] = (k + 1) * dt
                defaults += d
                lam = np.where(alive, lam + d[:, None] * beta_c / n, lam)
            l_path[:, k + 1] = defaults / n
            pos = np.maximum(lam, 0.0)
            m1[:, k + 1], m2[:, k + 1] = pos.mean(axis=1), np.mean(pos * pos, axis=1)
    return l_path, default_times, m1, m2


# Atom A: constant intensity 0.05, no contagion; its firms default one at a
# time, at random steps.  Atom B: zero intensity and sigma = 1e308, until A's
# first default jumps it to 3.0.  On the next step each B firm's noise
# term overflows where |Z| > 2.08; the other B firms default or go negative.
# So a replication's first A default decides whether it turns non-finite.
N_NONFINITE = 12
NONFINITE_MEASURE = DiscreteTypeMeasure(
    (
        TypeAtom(FirmType(0.0, 0.0, 0.0, 0.0), 0.05, 0.5),
        TypeAtom(FirmType(0.0, 0.0, 1e308, 3.0 * N_NONFINITE), 0.0, 0.5),
    )
)


class TestReferenceKernel:
    """``run_replications`` against the direct masked loop, bit for bit."""

    CASES = {
        "factor": dict(n_firms=60, measure=TWO_ATOMS),
        # up to six defaults in one step, and a beta_c that is no power of two
        "no-factor": dict(n_firms=100, measure=homogeneous_measure(
            FirmType(4.0, 2.0, 0.9, 1.3), 2.0)),
        "sampled": dict(n_firms=60, measure=TWO_ATOMS, assignment="sampled"),
        "single-firm": dict(n_firms=1, measure=homogeneous_measure(BASE, 3.0)),
        # every firm defaults long before t_end, and the rest of the run
        # steps defaulted firms only
        "all-default": dict(n_firms=40, measure=homogeneous_measure(
            FirmType(1.0, 20.0, 0.9, 2.0), 20.0)),
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("width", [1, 2, 6])
    def test_bit_identical_to_reference(self, monkeypatch, name, width):
        # 77 steps: not a multiple of any buffer size, so the last block is partial
        config = make_config(grid=TimeGrid(1.0, 77), seed=11, record_moments=True,
                             **self.CASES[name])
        monkeypatch.setattr(simulate_module, "_CELL_BUDGET", width * config.n_firms)
        results = run_replications(config, 6).results
        l_path, default_times, m1, m2 = reference_batch(config, range(6))
        if name == "all-default":
            assert np.all(l_path[:, 40] == 1.0)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.l_path.values, l_path[i])
            np.testing.assert_array_equal(result.default_times, default_times[i])
            np.testing.assert_array_equal(moment_diagnostic(result, 1).values, m1[i])
            np.testing.assert_array_equal(moment_diagnostic(result, 2).values, m2[i])

    @pytest.mark.parametrize("block, buffers", [(16, 10), (65, 3), (150, 1)])
    def test_buffer_length_changes_no_bit(self, monkeypatch, block, buffers):
        # one batch of 10 x 100 cells, whose half-buffer length the budget
        # sets: 16 steps, 65 (what 1000 cells get by default) and the whole run
        config = make_config(n_firms=100, measure=TWO_ATOMS, grid=TimeGrid(1.0, 150), seed=11,
                             record_moments=True)
        monkeypatch.setattr(simulate_module, "_CELL_BUDGET", block * 1000)
        seen = count_buffers(monkeypatch)
        results = run_replications(config, 10).results
        assert seen == [buffers]
        l_path, default_times, m1, m2 = reference_batch(config, range(10))
        assert np.all(l_path[:, -1] > 0.0)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.l_path.values, l_path[i])
            np.testing.assert_array_equal(result.default_times, default_times[i])
            np.testing.assert_array_equal(moment_diagnostic(result, 1).values, m1[i])
            np.testing.assert_array_equal(moment_diagnostic(result, 2).values, m2[i])

    def test_buffer_length_follows_cell_count(self, monkeypatch):
        # max(16, _CELL_BUDGET // cells) steps, at most the whole run: 1000
        # cells get 65 steps, 4096 and 20000 cells 16, and 7 cells all 130
        seen = count_buffers(monkeypatch)
        grid = TimeGrid(1.0, 130)
        for n_firms, n_reps in ((100, 10), (4096, 1), (20_000, 1), (7, 1)):
            run_replications(make_config(n_firms=n_firms, grid=grid), n_reps)
        assert seen == [2, 9, 9, 1]

    def test_nonfinite_after_compaction_names_the_cell(self, monkeypatch):
        config = make_config(n_firms=N_NONFINITE, measure=NONFINITE_MEASURE,
                             grid=TimeGrid(10.0, 40), seed=18)
        # 16-step buffers for the one batch of 3 x 12 cells; replication 0
        # loses firms before the first buffer boundary, and its defaulted
        # cells are still stepped: the error names a live cell by its place
        # in the (replication, firm) grid
        monkeypatch.setattr(simulate_module, "_CELL_BUDGET", 16 * 3 * N_NONFINITE)
        _, default_times, _, _ = reference_batch(config, range(1))
        assert np.sum(default_times <= 16 * config.grid.dt) >= 1
        with pytest.raises(NonFiniteStateError) as expected:
            reference_batch(config, range(3))
        with pytest.raises(NonFiniteStateError) as err:
            run_replications(config, 3)
        got = (err.value.replication, err.value.firm, err.value.step)
        assert got == (expected.value.replication, expected.value.firm, expected.value.step)
        assert got == (1, 11, 26)


class TestHelperThread:
    def test_thread_joined_after_return_and_after_raise(self):
        before = threading.active_count()
        run_replications(make_config(n_firms=50, measure=TWO_ATOMS), 3)
        assert threading.active_count() == before
        config = make_config(n_firms=N_NONFINITE, measure=NONFINITE_MEASURE,
                             grid=TimeGrid(10.0, 40), seed=18)
        with pytest.raises(NonFiniteStateError):
            run_replications(config, 3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("good_blocks", [0, 2])
    def test_error_in_helper_reaches_caller(self, monkeypatch, good_blocks):
        class BrokenNormals(np.random.Generator):
            calls = 0

            def standard_normal(self, *args, **kwargs):
                BrokenNormals.calls += 1
                if BrokenNormals.calls > good_blocks:
                    raise MemoryError("no room for normals")
                return super().standard_normal(*args, **kwargs)

        # firm streams draw their thresholds here, their normals on the
        # helper, one call per block of a single replication; 16-step
        # buffers give 7 blocks over 100 steps
        monkeypatch.setattr(np.random, "Generator", BrokenNormals)
        monkeypatch.setattr(simulate_module, "_CELL_BUDGET", 16 * 20)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room for normals"):
            simulate(make_config(n_firms=20, grid=TimeGrid(1.0, 100)))
        assert threading.active_count() == before

    def test_bits_hold_under_thread_contention(self):
        # four runs at once (eight threads on fewer cores) with the
        # interpreter switching threads as often as it can: a buffer read
        # while the helper refills it would move a bit
        config = make_config(n_firms=60, measure=TWO_ATOMS, grid=TimeGrid(1.0, 77), seed=11)
        expected = reference_batch(config, range(6))[0]
        paths = [None] * 4

        def work(slot):
            reps = run_replications(config, 6)
            paths[slot] = np.stack([r.l_path.values for r in reps.results])

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in paths:
            np.testing.assert_array_equal(got, expected)


# sha256 of the L paths and default times, replication by replication, of
# GOLDEN_CONFIG's three replications under RNG_CONTRACT 3.  If a change
# moves a simulated bit on purpose, bump RNG_CONTRACT and this digest.
GOLDEN_SHA256 = "1c8727cd25f2fb342002eb2391df2733ab6711f379434477ba9f624dea061e33"


def test_rng_contract_3_bits_pinned():
    config = make_config(n_firms=50, measure=TWO_ATOMS, grid=TimeGrid(1.0, 100), seed=2024)
    assert config.factor.eps(50) != 0.0  # the factor term runs
    digest = hashlib.sha256()
    for result in run_replications(config, 3).results:
        digest.update(result.l_path.values.tobytes())
        digest.update(result.default_times.tobytes())
    assert simulate_module.RNG_CONTRACT == 3
    assert digest.hexdigest() == GOLDEN_SHA256
