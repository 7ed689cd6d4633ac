import numpy as np
import pytest

from creditpool import (
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    SimConfig,
    SystematicFactorConfig,
    TimeGrid,
    TypeAtom,
    figure_sweep,
    homogeneous_measure,
    lln_experiment,
    q_identity_diagnostic,
    run_replications,
    solve_limit,
)
from creditpool import convergence as convergence_module

from conftest import BASE, BASE_LAMBDA_INIT

CONSTANT_INTENSITY = homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), 0.5)


class TestLlnExperiment:
    def test_report_structure(self, factor):
        grid = TimeGrid(1.0, 250)
        report = lln_experiment(
            CONSTANT_INTENSITY, factor, grid, [50, 400], n_reps=4, seed=11
        )
        assert [c.n_firms for c in report.cells] == [50, 400]
        for cell in report.cells:
            assert cell.n_reps == 4
            assert len(cell.distances) == 4
            assert all(0.0 <= d <= 1.0 for d in cell.distances)
            assert cell.q10 <= cell.median <= cell.q90
            assert cell.seconds >= 0.0
        assert report.solver_residual <= 1e-10
        assert report.cells[1].median < report.cells[0].median
        assert report.median_violations == ()

    def test_inverse_sqrt_distance_scaling(self, factor):
        # quadrupling the pool should roughly halve the sup distance
        grid = TimeGrid(1.0, 500)
        report = lln_experiment(
            CONSTANT_INTENSITY, factor, grid, [500, 2000], n_reps=16, seed=7
        )
        ratio = report.cells[0].median / report.cells[1].median
        assert 1.5 <= ratio <= 3.0

    def test_distance_slope_is_minus_one_half(self, base_measure, factor, grid_1k):
        # README claim: the sup-distance to the limit shrinks like 1/sqrt(N)
        n_values = [100, 400, 1600]
        report = lln_experiment(
            base_measure, factor, grid_1k, n_values, n_reps=20, seed=20260810
        )
        medians = [cell.median for cell in report.cells]
        slope = np.polyfit(np.log(n_values), np.log(medians), 1)[0]
        assert -0.75 <= slope <= -0.25

    def test_preconditions(self, factor):
        grid = TimeGrid(1.0, 100)
        with pytest.raises(ValueError):
            lln_experiment(CONSTANT_INTENSITY, factor, grid, [10], n_reps=1, seed=1)
        with pytest.raises(ValueError):
            lln_experiment(CONSTANT_INTENSITY, factor, grid, [0], n_reps=2, seed=1)

    def test_empty_pool_ladder_rejected(self, factor):
        # this solved the limit and returned a report with no cells
        with pytest.raises(ValueError, match="pool size"):
            lln_experiment(CONSTANT_INTENSITY, factor, TimeGrid(1.0, 100), [], n_reps=2, seed=1)

    def test_bad_pool_size_named_before_any_pool_runs(self, factor, monkeypatch):
        # this simulated N = 10 in full, then failed at n_firms
        calls = []
        monkeypatch.setattr(convergence_module, "run_replications",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError) as err:  # a FieldError
            lln_experiment(CONSTANT_INTENSITY, factor, TimeGrid(1.0, 20), [10, 10.5], 2, 1)
        assert err.value.field == "n_values[1]" and calls == []

    @pytest.mark.parametrize("n_values", [[10, 20], (10, 20), range(10, 30, 10)])
    def test_any_sequence_of_pool_sizes_accepted(self, factor, n_values):
        report = lln_experiment(CONSTANT_INTENSITY, factor, TimeGrid(1.0, 20), n_values, 2, 1)
        assert [c.n_firms for c in report.cells] == [10, 20]

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("simulated before checking the supplied limit")

        monkeypatch.setattr(convergence_module, "run_replications", fail)

    def test_limit_for_another_measure_rejected(self, base_measure, factor, no_simulation):
        grid = TimeGrid(1.0, 100)
        other = solve_limit(CONSTANT_INTENSITY, grid)
        with pytest.raises(ValueError, match="measure"):
            lln_experiment(base_measure, factor, grid, [10], n_reps=2, seed=1, limit=other)

    def test_limit_on_another_grid_rejected(self, base_measure, factor, no_simulation):
        other = solve_limit(base_measure, TimeGrid(1.0, 200))
        with pytest.raises(ValueError, match="grid"):
            lln_experiment(base_measure, factor, TimeGrid(1.0, 100), [10], n_reps=2, seed=1,
                           limit=other)


class TestSimulatorScaling:
    """README claims about the simulator's error, each at a seed and a bound
    fixed before the test first ran.  A failure means the simulator is
    wrong, not that the seed was unlucky."""

    SEED = 20260810

    def test_default_batching_error_is_first_order(self):
        # sigma = 0 and no factor leave only threshold noise, so at N = 5e4
        # the mean of L(T) is far more precise than the O(dt) gap left by
        # batching each step's defaults into one contagion jump.  F(T) comes
        # from a fine grid, which keeps the limit's own O(dt^2) error out.
        measure = homogeneous_measure(FirmType(4.0, 0.5, 0.0, 2.0), 0.5)
        factor = SystematicFactorConfig(eps=EpsSchedule("zero"))
        f_end = solve_limit(measure, TimeGrid(1.0, 4096)).f.values[-1]
        gaps = []
        for n_steps in (8, 16, 32):
            config = SimConfig(n_firms=50_000, measure=measure, factor=factor,
                               grid=TimeGrid(1.0, n_steps), seed=self.SEED)
            gaps.append(run_replications(config, 2).mean.values[-1] - f_end)
        ratios = [fine / coarse for coarse, fine in zip(gaps, gaps[1:])]
        assert all(0.35 <= r <= 0.75 for r in ratios), (gaps, ratios)

    def test_fluctuations_scale_as_inverse_sqrt_pool_size(self, factor):
        # sqrt(N) std(L_N(T)) across replications has a Gaussian limit
        # (Spiliopoulos, Sirignano & Giesecke 2014), so it is flat in N; noise
        # correlated across firms would make it grow with N
        measure = homogeneous_measure(BASE, BASE_LAMBDA_INIT)
        scaled = []
        for n_firms in (500, 8000):
            config = SimConfig(n_firms=n_firms, measure=measure, factor=factor,
                               grid=TimeGrid(1.0, 50), seed=self.SEED)
            finals = [r.l_path.values[-1] for r in run_replications(config, 60).results]
            scaled.append(np.sqrt(n_firms) * np.std(finals, ddof=1))
        assert 0.6 <= scaled[1] / scaled[0] <= 1.6, scaled


class TestFigureSweep:
    def test_contagion_family_ordered(self, grid_coarse):
        rows = figure_sweep("beta_c", (0.0, 1.0, 2.0, 4.0), grid_coarse)
        assert [v for v, _ in rows] == [0.0, 1.0, 2.0, 4.0]
        for (_, lo), (_, hi) in zip(rows, rows[1:]):
            assert np.all(hi.values >= lo.values - 1e-12)

    def test_reversion_level_family_ordered(self, grid_coarse):
        rows = figure_sweep("lambda_bar", (0.25, 0.5, 1.0), grid_coarse)
        for (_, lo), (_, hi) in zip(rows, rows[1:]):
            assert np.all(hi.values >= lo.values - 1e-12)

    def test_reversion_speed_insensitive_early(self, grid_coarse):
        rows = dict(figure_sweep("alpha", (2.0, 4.0, 8.0), grid_coarse))
        k_early = grid_coarse.index_of(0.05)
        k_late = grid_coarse.index_of(1.0)
        gap_early = abs(rows[2.0].values[k_early] - rows[8.0].values[k_early])
        gap_late = abs(rows[2.0].values[k_late] - rows[8.0].values[k_late])
        assert gap_early < gap_late


class TestQIdentityDiagnostic:
    def test_zero_contagion_identity_exact(self, grid_coarse):
        m = homogeneous_measure(FirmType(4.0, 0.5, 0.9, 0.0), 0.5)
        assert q_identity_diagnostic(solve_limit(m, grid_coarse)) == 0.0

    def test_homogeneous_residual_small_and_refining(self, base_measure):
        coarse = q_identity_diagnostic(solve_limit(base_measure, TimeGrid(1.0, 500)))
        fine = q_identity_diagnostic(solve_limit(base_measure, TimeGrid(1.0, 1000)))
        assert coarse < 1e-4
        assert coarse / fine >= 2.0

    def test_heterogeneous_residual_small_and_refining(self):
        m = DiscreteTypeMeasure(
            (
                TypeAtom(FirmType(4.0, 0.5, 0.9, 2.0), 0.5, 0.6),
                TypeAtom(FirmType(2.0, 0.25, 0.5, 1.0), 0.25, 0.4),
            )
        )
        coarse = q_identity_diagnostic(solve_limit(m, TimeGrid(1.0, 500)))
        fine = q_identity_diagnostic(solve_limit(m, TimeGrid(1.0, 1000)))
        assert coarse < 1e-4
        assert coarse / fine >= 2.0

    def test_pools_starting_at_zero_intensity(self, grid_coarse):
        # no intensity mass anywhere: q and its Picard image are both 0
        idle = homogeneous_measure(FirmType(4.0, 0.0, 0.9, 2.0), 0.0)
        assert q_identity_diagnostic(solve_limit(idle, grid_coarse)) == 0.0
        # mass only from mean reversion: zero at t = 0, positive after
        waking = homogeneous_measure(FirmType(4.0, 0.5, 0.9, 2.0), 0.0)
        assert q_identity_diagnostic(solve_limit(waking, grid_coarse)) < 1e-3
