import dataclasses
import hashlib
import math
import tracemalloc
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import (
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    NonFiniteStateError,
    SimConfig,
    SystematicFactorConfig,
    TimeGrid,
    TypeAtom,
    ValidationError,
    homogeneous_measure,
    proportional_counts,
    run_replications,
    simulate,
)

from conftest import BASE
from creditpool.errors import FieldError

# the package exports the function simulate under the module's name
simulate_module = import_module("creditpool.simulate")


TWO_ATOMS = DiscreteTypeMeasure(
    (
        TypeAtom(FirmType(4.0, 0.5, 0.9, 2.0, beta_s=1.0), 0.5, 0.5),
        TypeAtom(FirmType(2.0, 0.3, 0.6, 1.0, beta_s=2.0), 0.3, 0.5),
    )
)


# batch shapes of the memory tests: replications x firms, and the measure
CELL_CASES = [
    pytest.param(100_000, 1, None, id="1e5x1"),
    pytest.param(1_000, 10, None, id="1e3x10"),
    pytest.param(10_000, 2, TWO_ATOMS, id="1e4x2-factor"),  # the factor term runs
]
CELL_SHAPES = pytest.mark.parametrize("n_firms, n_reps, measure", CELL_CASES)
# plus a small pool, whose moment rows are a large share of its cells
MOMENT_SHAPES = pytest.mark.parametrize(
    "n_firms, n_reps, measure", [*CELL_CASES, pytest.param(100, 10, None, id="100x10")])


def make_config(n_firms=200, grid=None, seed=123, measure=None, factor=None, **kw):
    return SimConfig(
        n_firms=n_firms,
        measure=measure or homogeneous_measure(BASE, 0.5),
        factor=factor or SystematicFactorConfig(),
        grid=grid or TimeGrid(1.0, 200),
        seed=seed,
        **kw,
    )


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        config = make_config(record_moments=True)
        a, b = simulate(config), simulate(config)
        np.testing.assert_array_equal(a.l_path.values, b.l_path.values)
        np.testing.assert_array_equal(a.m1.values, b.m1.values)

    def test_replications_differ_but_are_reproducible(self):
        config = make_config()
        r0, r1 = simulate(config, 0), simulate(config, 1)
        assert not np.array_equal(r0.l_path.values, r1.l_path.values)
        np.testing.assert_array_equal(
            r1.l_path.values, simulate(config, 1).l_path.values
        )

    def test_batching_does_not_change_results(self, monkeypatch):
        # two atoms with factor exposure, so every term of a step runs; 150
        # steps end in a partial block of signs
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
                    np.testing.assert_array_equal(a.m1.values, b.m1.values)
                    np.testing.assert_array_equal(a.m2.values, b.m2.values)

    def test_factor_stream_is_separate(self):
        # with zero exposure, changing the factor's dynamics cannot move a bit
        eps0 = SystematicFactorConfig(gamma=1.0, eps=EpsSchedule("zero"))
        eps0_other = SystematicFactorConfig(gamma=7.0, x_init=3.0, eps=EpsSchedule("zero"))
        a = simulate(make_config(factor=eps0))
        b = simulate(make_config(factor=eps0_other))
        np.testing.assert_array_equal(a.l_path.values, b.l_path.values)


class TestPathStructure:
    def test_l_path_shape(self):
        result = simulate(make_config(n_firms=150))
        l = result.l_path.values
        n = 150
        assert l[0] == 0.0
        assert np.all(np.diff(l) >= 0.0)
        counts = l * n
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_zero_pool_is_absorbing(self):
        m = homogeneous_measure(FirmType(4.0, 0.0, 0.9, 2.0), 0.0)
        result = simulate(make_config(measure=m, record_moments=True))
        assert np.all(result.l_path.values == 0.0)
        assert np.all(result.m1.values == 0.0)
        assert np.all(result.m2.values == 0.0)

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
        m1 = result.m1.values
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
        # each float32 intensity is finite, their float32 sum is not: no
        # error, and every firm defaults on the first step; but their
        # recorded second moment, a float32 square, overflows from the start
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), 2e38)
        result = simulate(make_config(measure=m, n_firms=4, grid=TimeGrid(1.0, 20),
                                      record_moments=False))
        assert np.all(result.l_path.values[1:] == 1.0)
        with pytest.raises(NonFiniteStateError) as err:
            simulate(make_config(measure=m, n_firms=4, grid=TimeGrid(1.0, 20),
                                 record_moments=True), replication=3)
        assert (err.value.replication, err.value.firm, err.value.step) == (3, None, 0)
        assert "replication 3" in str(err.value) and "step 0" in str(err.value)

    def test_peak_memory_bounded_at_large_pool(self):
        # the increments of 1000 steps alone would take 160 MB at once
        config = make_config(n_firms=20_000, grid=TimeGrid(1.0, 1000),
                             record_moments=False)
        tracemalloc.start()
        try:
            simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @CELL_SHAPES
    def test_bytes_per_cell(self, n_firms, n_reps, measure):
        """README "Memory": a batch peaks under BYTES_PER_CELL bytes per cell,
        one replication x firm, without recorded moments; that figure is
        this bound."""
        config = make_config(n_firms=n_firms, measure=measure, grid=TimeGrid(1.0, 200))
        assert traced_peak(config, n_reps) / (n_firms * n_reps) < BYTES_PER_CELL

    @MOMENT_SHAPES
    def test_recorded_moments_add_only_their_rows(self, n_firms, n_reps, measure):
        """Recording moments adds no state per cell: at most its two
        step-indexed rows, 16 (n_steps + 1) bytes a replication, plus a byte."""
        plain, recorded = (
            traced_peak(make_config(n_firms=n_firms, measure=measure, grid=TimeGrid(1.0, 200),
                                    record_moments=record_moments), n_reps) / (n_firms * n_reps)
            for record_moments in (False, True))
        assert recorded - plain <= 16 * 201 / n_firms + 1

    def test_readme_states_the_bytes_per_cell_bound(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert f"under {BYTES_PER_CELL} bytes per cell" in " ".join(readme.split())

    def test_peak_does_not_grow_with_steps(self):
        # memory is O(cells), not O(cells x steps)
        short, long = (traced_peak(make_config(n_firms=10_000, measure=TWO_ATOMS,
                                               grid=TimeGrid(1.0, n_steps)), 2)
                       for n_steps in (100, 1000))
        assert abs(long / short - 1.0) < 0.05


# README "Memory" states this figure
BYTES_PER_CELL = 73


def traced_peak(config, n_reps):
    """tracemalloc's peak in bytes over ``run_replications(config, n_reps)``,
    after a tiny run has paid the one-off costs, such as lazy imports and
    caches, whatever the pool size."""
    run_replications(make_config(n_firms=2, grid=TimeGrid(1.0, 2)), 2)
    tracemalloc.start()
    try:
        run_replications(config, n_reps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        observed = result.m1.values
        assert np.max(np.abs(observed - expected)) < 5e-3

    def test_second_moment_stays_bounded(self):
        result = simulate(make_config(n_firms=2000, grid=TimeGrid(1.0, 500), record_moments=True))
        m2 = result.m2.values
        assert np.all(np.isfinite(m2))
        assert m2.max() < 5.0

    # Fixed before the first run: the seed and the bound.  The pool is the
    # base of the first-moment test scaled by c = 0.01 (lambda by c, sigma
    # by sqrt(c)), which the Euler step maps onto itself scaled by c: the
    # relative moments are the same, while only about 0.1% of firms default
    # by t = 1, too few for their frozen intensities to bias the average.
    # 4000 independent firms estimate E[lambda_t^2] to about 1.6% at each t.
    SECOND_MOMENT_SEED = 20261019
    SECOND_MOMENT_BOUND = 0.06

    def test_second_moment_tracks_cir_ode(self):
        # beta_c = beta_s = 0: each intensity is an independent square-root
        # diffusion, so m1 = lbar + (lam0 - lbar) exp(-alpha t) and
        #   dm2/dt = (2 alpha lbar + sigma^2) m1 - 2 alpha m2,
        # which the Euler step matches to O(dt) in law; its increment
        # enters only through its mean 0 and variance 1.  Doubling the noise
        # variance moves m2 by up to 18%.
        alpha, lbar, sigma, lam0 = 4.0, 5e-4, 0.03, 1e-3
        grid = TimeGrid(1.0, 500)
        m = homogeneous_measure(FirmType(alpha, lbar, sigma, 0.0), lam0)
        result = simulate(make_config(n_firms=4000, measure=m, grid=grid,
                                      seed=self.SECOND_MOMENT_SEED, record_moments=True))
        assert result.l_path.values[-1] < 5e-3
        decay = np.exp(-alpha * grid.points())
        expected = lam0**2 * decay**2 + (2 * alpha * lbar + sigma**2) * (
            lbar * (1 - decay**2) / (2 * alpha) + (lam0 - lbar) * (decay - decay**2) / alpha)
        observed = result.m2.values
        assert np.max(np.abs(observed / expected - 1.0)) < self.SECOND_MOMENT_BOUND

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

    def test_factor_moves_at_tiny_gamma(self):
        # the OU step's scale sqrt((1 - exp(-2 gamma dt)) / (2 gamma)) tends
        # to sqrt(dt) as gamma -> 0, but taken literally it cancels to 0 at
        # gamma = 1e-17, dt = 1e-3, and the exposed pool runs as if eps were 0
        m = homogeneous_measure(FirmType(4.0, 0.5, 0.9, 2.0, beta_s=2.0), 0.5)
        on, off = (simulate(make_config(
            measure=m, grid=TimeGrid(1.0, 1000),
            factor=SystematicFactorConfig(gamma=1e-17, eps=EpsSchedule(kind, 1.0))))
            for kind in ("fixed", "zero"))
        assert not np.array_equal(on.l_path.values, off.l_path.values)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-318, 1e-322, 5e-324])
    def test_factor_step_scale_tends_to_sqrt_dt(self, gamma):
        # where 2 gamma dt is subnormal, expm1 returns it with few bits, and
        # at 1e-322 and below it is 0; the scale's limit is sqrt(dt)
        dt = 1e-3
        decay, scale = simulate_module._factor_step(gamma, dt)
        assert decay == 1.0
        assert abs(scale / math.sqrt(dt) - 1.0) < 1e-12

    def test_factor_moves_at_subnormal_gamma_dt(self):
        # 2 gamma dt = 2e-325 underflows to 0: taken literally the scale is
        # 0, and the exposed pool runs exactly as its unexposed twin
        factor = SystematicFactorConfig(gamma=1e-322, eps=EpsSchedule("fixed", 1.0))
        on, off = (run_replications(make_config(
            n_firms=1000, measure=homogeneous_measure(dataclasses.replace(BASE, beta_s=beta_s),
                                                      0.5),
            grid=TimeGrid(1.0, 1000), factor=factor, seed=5), 2)
            for beta_s in (1.0, 0.0))
        assert any(not np.array_equal(a.l_path.values, b.l_path.values)
                   for a, b in zip(on.results, off.results))

    # Fixed before the first run: the seed, and the 0.999 quantile of
    # chi-square with 10 degrees of freedom (10 step bins and survival).
    BINOMIAL_SEED = 20260810
    CHI2_10_Q999 = 29.59

    @pytest.mark.parametrize("n_reps", [250, 2000])
    def test_exact_binomial_oracle(self, n_reps):
        # sigma = beta_c = beta_s = 0: every firm has the same deterministic
        # integrated intensity Lambda_k, the simulator's own Euler and
        # trapezoid sum, so a firm defaults at the first step with
        # Lambda_k >= its Exp(1) threshold.  N = 4 firms per replication.
        grid = TimeGrid(1.0, 100)
        alpha, lbar, lam0 = 3.0, 1.0, 0.2
        n = 4
        config = make_config(n_firms=n, grid=grid, seed=self.BINOMIAL_SEED,
                             measure=homogeneous_measure(FirmType(alpha, lbar, 0.0, 0.0), lam0))
        reps = run_replications(config, n_reps)

        dt = grid.dt
        alpha_dt, half_dt = alpha * dt, 0.5 * dt
        lam, big_lambda = lam0, [0.0]
        for _ in range(grid.n_steps):
            lam_plus = max(lam, 0.0)
            lam = lam + (lbar - lam_plus) * alpha_dt
            big_lambda.append(big_lambda[-1] + (max(lam, 0.0) + lam_plus) * half_dt)
        big_lambda = np.array(big_lambda)

        # exactly: each step's defaults, from the firms' own thresholds
        for result in reps.results:
            thresholds = np.random.Generator(np.random.SFC64(simulate_module._seed_sequence(
                config.seed, result.replication, simulate_module._STREAM_FIRM
            ))).standard_exponential(n)
            step = np.searchsorted(big_lambda, thresholds)
            expected = np.bincount(step, minlength=grid.n_steps + 2)[1:grid.n_steps + 1]
            np.testing.assert_array_equal(np.rint(np.diff(result.l_path.values) * n), expected)

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

    def test_clock_is_exact_at_a_fine_grid(self):
        # alpha = sigma = beta = 0: every intensity holds float32(0.3), so
        # each step takes exactly c = 2 float32(0.3) from a firm's clock, and
        # the firm defaults at the first step k with k c >= its threshold
        # times 2 / dt.  At 1e4 steps the clocks start near 2e4, where a
        # float32 clock would round each subtraction by up to 1e-3 and move
        # some firms' default steps.
        grid = TimeGrid(1.0, 10_000)
        n = 1000
        config = make_config(n_firms=n, grid=grid,
                             measure=homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), 0.3))
        thresholds = np.random.Generator(np.random.SFC64(simulate_module._seed_sequence(
            config.seed, 0, simulate_module._STREAM_FIRM))).standard_exponential(n)
        default_step = np.sort(np.ceil(thresholds * (2.0 / grid.dt) / (2.0 * np.float32(0.3))))
        expected = np.searchsorted(default_step, np.arange(grid.n_steps + 1), side="right") / n
        np.testing.assert_array_equal(simulate(config).l_path.values, expected)

    # Fixed before the first run: the bound, about three times the 3.5e-6
    # that a scalar float32 copy of the step gives on this pool and grid.
    STALL_BOUND = 1e-5

    def test_float32_stall_is_bounded(self):
        # sigma = beta_c = beta_s = 0: the intensity is the Euler path
        # lbar + (lam0 - lbar) (1 - alpha dt)^k, which in float32 stalls
        # short of lbar once alpha dt (lam - lbar) is under half an ulp of
        # lam.  F = 1 - exp(-integral of lam) over the simulated path stays
        # within the bound of the float64 path's.  The rates are scaled by
        # 2^-20, which scales every float32 and float64 operation of the
        # step exactly: the one firm almost surely never defaults, and m1
        # is exactly 2^-20 times the unscaled path.
        alpha, lbar, lam0, scale = 4.0, 0.5, 2.0, 2.0**-20
        grid = TimeGrid(5.0, 20_000)
        m = homogeneous_measure(FirmType(alpha, lbar * scale, 0.0, 0.0), lam0 * scale)
        result = simulate(make_config(n_firms=1, measure=m, grid=grid, record_moments=True))
        assert result.l_path.values[-1] == 0.0
        dt = grid.dt

        def f(lam):
            return 1.0 - np.exp(-0.5 * dt * np.cumsum(lam[1:] + lam[:-1]))

        f32 = f(result.m1.values / scale)
        f64 = f(lbar + (lam0 - lbar) * (1.0 - alpha * dt) ** np.arange(grid.n_steps + 1))
        assert np.max(np.abs(f32 - f64)) < self.STALL_BOUND


def sped_up(config, c):
    """The same pool in time sped up by c: every rate and initial intensity
    times c and ``t_end`` over c; the factor's gamma times c, its exposure
    ``beta_s`` times sqrt(c) and ``x_init`` over sqrt(c), since X(c s) is
    sqrt(c) times the OU process of rate c gamma."""
    root = math.sqrt(c)
    atoms = tuple(
        TypeAtom(FirmType(c * a.firm_type.alpha, c * a.firm_type.lambda_bar,
                          c * a.firm_type.sigma, c * a.firm_type.beta_c,
                          beta_s=root * a.firm_type.beta_s), c * a.lambda_init, a.weight)
        for a in config.measure.atoms)
    factor = config.factor
    return dataclasses.replace(
        config, measure=DiscreteTypeMeasure(atoms),
        grid=TimeGrid(config.grid.t_end / c, config.grid.n_steps),
        factor=dataclasses.replace(factor, gamma=c * factor.gamma, x_init=factor.x_init / root))


class TestTimeScaling:
    """lambda'(s) = c lambda(c s) is the same pool in faster time.  At c = 4
    every product and square root of the step scales by a power of two, so
    the default steps, and so the L paths, must not move a bit; a dt or
    sqrt(dt) missing or doubled in any coefficient breaks that."""

    @pytest.mark.parametrize("assignment", ["proportional", "sampled"])
    @pytest.mark.parametrize("eps", [EpsSchedule("zero"), EpsSchedule("inverse_sqrt"),
                                     EpsSchedule("fixed", 1.0)], ids=["off", "sqrt", "fixed"])
    def test_l_paths_are_bit_identical_at_c4(self, eps, assignment):
        config = make_config(n_firms=2000, measure=TWO_ATOMS, grid=TimeGrid(1.0, 500), seed=3,
                             factor=SystematicFactorConfig(gamma=1.0, x_init=0.3, eps=eps),
                             assignment=assignment)
        base, fast = (run_replications(c, 4).results for c in (config, sped_up(config, 4)))
        assert sum(r.l_path.values[-1] for r in base) > 0.0
        for a, b in zip(base, fast):
            np.testing.assert_array_equal(a.l_path.values, b.l_path.values)


class TestMoments:
    def test_not_recorded(self):
        result = simulate(make_config(record_moments=False))
        assert result.m1 is None and result.m2 is None


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

    def test_replication_must_be_a_nonnegative_integer(self):
        config = make_config(n_firms=5, grid=TimeGrid(1.0, 5))
        for bad in (True, 2.5):  # not replication 1, not a numpy or TypeError
            with pytest.raises(ValueError, match="replication must be an integer"):
                simulate(config, bad)
        with pytest.raises(FieldError) as err:
            simulate(config, -1)
        assert err.value.field == "replication"
        assert simulate(config, 2.0).replication == 2

    @pytest.mark.parametrize("kw, field", [
        ({"record_moments": "no"}, "record_moments"),  # a truthy string recorded moments
        ({"n_firms": 2**31}, "n_firms"),
    ])
    def test_wrong_kind_or_oversized_field_named(self, kw, field):
        with pytest.raises(FieldError) as err:
            make_config(**kw)
        assert err.value.field == field

    @pytest.mark.parametrize("run", [simulate, lambda c: run_replications(c, 3)],
                             ids=["simulate", "run_replications"])
    def test_measure_weights_must_sum_to_one(self, run):
        config = make_config(n_firms=5, grid=TimeGrid(1.0, 5),
                             measure=DiscreteTypeMeasure((TypeAtom(BASE, 0.5, 2.0),)))
        with pytest.raises(ValidationError) as err:
            run(config)
        assert [v.field for v in err.value.violations] == ["atoms"]


class TestAggregates:
    @pytest.mark.parametrize("size", range(1, 26))
    def test_median_q10_q90_match_numpy_bitwise(self, size):
        rng = np.random.default_rng(size)
        # columns of distinct values, of ties, and of one value repeated
        values = np.column_stack([rng.standard_normal(size) * 1e3,
                                  rng.integers(0, 4, size) * 0.1,
                                  np.full(size, 0.3)])
        for data, axis in ((values, 0), (values[:, 0], None)):
            got = simulate_module.median_q10_q90(data)
            want = (np.median(data, axis=axis), np.quantile(data, 0.1, axis=axis),
                    np.quantile(data, 0.9, axis=axis))
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_run_replications_quantiles_match_numpy(self):
        reps = run_replications(make_config(n_firms=30), 7)
        paths = np.stack([r.l_path.values for r in reps.results])
        assert reps.q10.values.tobytes() == np.quantile(paths, 0.1, axis=0).tobytes()
        assert reps.q90.values.tobytes() == np.quantile(paths, 0.9, axis=0).tobytes()


def reference_batch(config, replications):
    """The direct step loop: every firm of every replication each step, with
    defaulted firms masked out, and one draw of firm signs per step.

    Returns ``(l_path, m1, m2)`` as ``(replications, ...)``
    arrays.  The oracle for the block-drawing kernel, which steps defaulted
    firms too but reads nothing of theirs, and the written form of RNG
    contract 7: one SFC64 stream per replication for the firms (N
    thresholds, then ceil(N / 64) raw words per step, firm i's increment
    -1 where bit ``i % 64`` of word ``i // 64`` is set and +1 where it is
    clear); the per-firm coefficients taken in float64 and rounded once to
    float32, and every step operation in float32 but the factor's and the
    clock's; the drift ``albar - (alpha dt) * lam+`` with
    ``albar = (alpha dt) * lbar``, or with the factor on drift and factor
    term as ``((eps beta_s) * dx - alpha dt) * lam+ + albar``; the noise
    ``sqrt(lam+) * (sigma sqrt(dt)) * (+-1)`` added to that, where ``dx``
    is the float64 factor's step ``x exp(-gamma dt) + sqrt(-expm1(-2 gamma
    dt) / (2 gamma)) Z - x`` rounded to float32; each firm's float64
    clock, its threshold times ``2 / dt`` less its integrated intensity in
    units of dt/2, ``- (lam+ + max(lam, 0))`` with the sum in float32, a
    default where it is ``<= 0``; the jump ``(beta_c / N) * d``; and the
    moments' means accumulated in float64.
    """
    n, grid = config.n_firms, config.grid
    dt, sqdt = grid.dt, math.sqrt(grid.dt)
    atoms = config.measure.atoms
    idx = np.stack([simulate_module._atom_assignment(config, r) for r in replications])

    def per_firm(values):
        return np.array(values)[idx]

    def f32(values):
        return values.astype(np.float32)

    def stream(r, tag):
        return simulate_module._seed_sequence(config.seed, r, tag)

    alpha_dt = per_firm([a.firm_type.alpha * dt for a in atoms])
    with np.errstate(over="ignore"):  # float32's range is part of the contract
        albar = f32(alpha_dt * per_firm([a.firm_type.lambda_bar for a in atoms]))
        alpha_dt = f32(alpha_dt)
        sigma_sqdt = f32(per_firm([a.firm_type.sigma * sqdt for a in atoms]))
        beta_c_n = f32(per_firm([a.firm_type.beta_c for a in atoms]) / n)
        lam = f32(per_firm([a.lambda_init for a in atoms]))
    firm_rngs = [np.random.Generator(np.random.SFC64(stream(r, simulate_module._STREAM_FIRM)))
                 for r in replications]
    clock = np.stack([g.standard_exponential(n) for g in firm_rngs]) * (2.0 / dt)
    firm = np.arange(n)
    word_of, bit_of = firm // 64, (firm % 64).astype(np.uint64)

    gamma = config.factor.gamma
    ou_decay = math.exp(-gamma * dt)
    ou_scale = math.sqrt(-math.expm1(-2.0 * gamma * dt) / (2.0 * gamma))
    eps = config.factor.eps(n)
    factor_active = eps != 0.0 and any(a.firm_type.beta_s != 0.0 for a in atoms)
    exposure = f32(eps * per_firm([a.firm_type.beta_s for a in atoms]))
    factor_rngs = [np.random.default_rng(stream(r, simulate_module._STREAM_FACTOR))
                   for r in replications]
    x = np.full(len(replications), config.factor.x_init)

    alive = np.ones(lam.shape, dtype=bool)
    defaults = np.zeros(len(replications), dtype=np.int64)
    l_path = np.zeros((len(replications), grid.n_steps + 1))
    m1, m2 = np.empty_like(l_path), np.empty_like(l_path)

    def moments(lam):
        pos = np.maximum(lam, 0.0)
        return pos.mean(axis=1, dtype=np.float64), np.mean(pos * pos, axis=1, dtype=np.float64)

    m1[:, 0], m2[:, 0] = moments(lam)

    # the non-finite case overflows on purpose; it is reported, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            words = np.stack([g.bit_generator.random_raw(-(-n // 64)) for g in firm_rngs])
            z = np.where((words[:, word_of] >> bit_of) & np.uint64(1),
                         np.float32(-1.0), np.float32(1.0))
            if factor_active:
                factor_z = np.array([g.standard_normal() for g in factor_rngs])
                x_new = x * ou_decay + ou_scale * factor_z
                dx = f32(x_new - x)[:, None]
                x = x_new
            lam_plus = np.maximum(lam, 0.0)
            if factor_active:
                incr = (exposure * dx - alpha_dt) * lam_plus + albar
            else:
                incr = albar - alpha_dt * lam_plus
            incr += np.sqrt(lam_plus) * sigma_sqdt * z
            lam_new = np.where(alive, lam + incr, lam)
            finite = np.isfinite(lam_new)
            if not finite.all():
                rep, firm = np.unravel_index(np.argmin(finite), finite.shape)
                raise NonFiniteStateError(replications[rep], int(firm), k + 1)
            # in units of dt/2
            clock = np.where(alive, clock - (lam_plus + np.maximum(lam_new, 0.0)), clock)
            lam = lam_new
            newly = alive & (clock <= 0.0)
            if newly.any():
                d = np.count_nonzero(newly, axis=1)
                alive &= ~newly
                defaults += d
                lam = np.where(alive, lam + beta_c_n * f32(d[:, None]), lam)
            l_path[:, k + 1] = defaults / n
            m1[:, k + 1], m2[:, k + 1] = moments(lam)
    return l_path, m1, m2


# Atom A: constant intensity 0.05, no contagion; its firms default one at a
# time, at random steps.  Atom B: zero intensity and sigma = 4e38, until A's
# first default jumps it by 16.  With dt = 0.25, B's noise coefficient
# sigma sqrt(dt) = 2e38 is finite in float32, so B stays at 0 before the
# jump; after it, sqrt(16) * 2e38 overflows, so on the next step every B
# firm's intensity becomes infinite, whatever the sign of its increment.
# So each replication turns non-finite one step after its first default.
N_NONFINITE = 12
NONFINITE_A = TypeAtom(FirmType(0.0, 0.0, 0.0, 0.0), 0.05, 0.5)
NONFINITE_MEASURE = DiscreteTypeMeasure(
    (NONFINITE_A, TypeAtom(FirmType(0.0, 0.0, 4e38, 16.0 * N_NONFINITE), 0.0, 0.5))
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
        # exposed atoms with the factor switched off: no step may read an
        # exposure
        "factor-off": dict(n_firms=60, measure=TWO_ATOMS,
                           factor=SystematicFactorConfig(eps=EpsSchedule("zero"))),
        # three contagion strengths, so each atom has its own beta_c / N row,
        # at an N that is no power of two
        "three-atoms": dict(n_firms=97, measure=DiscreteTypeMeasure((
            TypeAtom(FirmType(4.0, 1.0, 0.9, 1.3, beta_s=1.0), 1.0, 0.4),
            TypeAtom(FirmType(2.0, 0.6, 0.6, 0.7), 0.8, 0.3),
            TypeAtom(FirmType(3.0, 1.5, 0.5, 2.9, beta_s=0.5), 1.2, 0.3),
        ))),
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("width", [1, 2, 6])
    def test_bit_identical_to_reference(self, monkeypatch, name, width):
        # 77 steps: not a multiple of the sign block, so the last block is partial
        config = make_config(grid=TimeGrid(1.0, 77), seed=11, record_moments=True,
                             **self.CASES[name])
        assert 77 % simulate_module._SIGN_BLOCK != 0
        monkeypatch.setattr(simulate_module, "_CELL_BUDGET", width * config.n_firms)
        results = run_replications(config, 6).results
        l_path, m1, m2 = reference_batch(config, range(6))
        if name == "all-default":
            assert np.all(l_path[:, 40] == 1.0)
        if name == "three-atoms":
            assert np.all(l_path[:, -1] > 0.0)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.l_path.values, l_path[i])
            np.testing.assert_array_equal(result.m1.values, m1[i])
            np.testing.assert_array_equal(result.m2.values, m2[i])

    def test_nonfinite_after_compaction_names_the_cell(self):
        # one batch of 3 x 12 cells: the error names the first live cell to
        # turn non-finite by its place in the (replication, firm) grid
        config = make_config(n_firms=N_NONFINITE, measure=NONFINITE_MEASURE,
                             grid=TimeGrid(10.0, 40), seed=18)
        with pytest.raises(NonFiniteStateError) as expected:
            reference_batch(config, range(3))
        with pytest.raises(NonFiniteStateError) as err:
            run_replications(config, 3)
        got = (err.value.replication, err.value.firm, err.value.step)
        assert got == (expected.value.replication, expected.value.firm, expected.value.step)
        replication, firm, step = got
        assert firm >= N_NONFINITE // 2  # a B firm
        # the named replication's first defaults came one step before: its
        # streams without B's noise give the same A default times
        calm = dataclasses.replace(config, measure=DiscreteTypeMeasure(
            (NONFINITE_A, TypeAtom(FirmType(0.0, 0.0, 0.0, 16.0 * N_NONFINITE), 0.0, 0.5))))
        l_path = reference_batch(calm, range(replication, replication + 1))[0][0]
        assert int(np.argmax(l_path > 0.0)) == step - 1


# sha256 of the L paths, replication by replication, of
# the config below's three replications under RNG_CONTRACT 7, which kept
# contract 4's digest: the rounding of contracts 5, 6 and 7 moved none of
# these L-path bits.  If a change moves a simulated bit on purpose, bump
# RNG_CONTRACT and this digest.
GOLDEN_SHA256 = "d2bacce25cf92508b0c32be39911e88905e1fd9291d21141bd26c69cf9a6a91b"


def test_rng_contract_7_bits_pinned():
    config = make_config(n_firms=50, measure=TWO_ATOMS, grid=TimeGrid(1.0, 100), seed=2024)
    assert config.factor.eps(50) != 0.0  # the factor term runs
    digest = hashlib.sha256()
    for result in run_replications(config, 3).results:
        digest.update(result.l_path.values.tobytes())
    assert simulate_module.RNG_CONTRACT == 7
    assert digest.hexdigest() == GOLDEN_SHA256


def test_readme_states_the_rng_contract():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f'"rng_contract": {simulate_module.RNG_CONTRACT}' in readme
