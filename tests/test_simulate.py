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
        config = make_config()
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
            config = make_config(n_firms=n_firms, measure=m, grid=TimeGrid(1.0, 150))
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
        result = simulate(make_config(measure=m))
        assert np.all(result.l_path.values == 0.0)
        assert np.all(np.isnan(result.default_times))
        assert np.all(moment_diagnostic(result, 1).values == 0.0)
        assert np.all(moment_diagnostic(result, 2).values == 0.0)

    def test_single_firm_pool(self):
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, beta_c=2.0), 5.0)
        result = simulate(
            make_config(n_firms=1, measure=m, grid=TimeGrid(2.0, 400), seed=5)
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
        result = simulate(make_config(n_firms=4000, measure=m, grid=grid, seed=9))
        t = grid.points()
        expected = 0.05 + (0.1 - 0.05) * np.exp(-4.0 * t)
        observed = moment_diagnostic(result, 1).values
        assert np.max(np.abs(observed - expected)) < 5e-3

    def test_second_moment_stays_bounded(self):
        result = simulate(make_config(n_firms=2000, grid=TimeGrid(1.0, 500)))
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


class TestMoments:
    def test_not_recorded(self):
        result = simulate(make_config(record_moments=False))
        assert result.intensity_moment_paths is None
        with pytest.raises(MomentsNotRecordedError):
            moment_diagnostic(result, 1)

    def test_unsupported_order(self):
        result = simulate(make_config())
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
        with pytest.raises(ValueError):
            run_replications(make_config(), 0)
