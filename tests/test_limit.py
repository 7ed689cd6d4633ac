import hashlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import (
    DiscreteTypeMeasure,
    FirmType,
    NoConvergenceError,
    NonFiniteResultError,
    TimeGrid,
    Trajectory,
    TypeAtom,
    ValidationError,
    compute_f,
    f_derivative,
    homogeneous_measure,
    q_identity_diagnostic,
    riccati_for_measure,
    solve_homogeneous_f,
    solve_limit,
    solve_q,
    solve_riccati,
)
from creditpool import limit as limit_module

from conftest import BASE, BASE_LAMBDA_INIT


def solve_pool(measure, grid, **kw):
    riccati = riccati_for_measure(measure, grid)
    picard = solve_q(measure, riccati, grid, **kw)
    return riccati, picard


class TestSolveQ:
    def test_zero_contagion_sensitivity(self, grid_coarse):
        m = homogeneous_measure(FirmType(4.0, 0.5, 0.9, beta_c=0.0), 0.5)
        _, picard = solve_pool(m, grid_coarse)
        assert picard.iterations == 1
        assert np.all(picard.q.values == 0.0)

    def test_zero_forcing(self, grid_coarse):
        m = homogeneous_measure(FirmType(4.0, 0.0, 0.9, beta_c=2.0), 0.0)
        _, picard = solve_pool(m, grid_coarse)
        assert picard.iterations == 1
        assert np.all(picard.q.values == 0.0)

    def test_base_case_fixed_point(self, base_measure, grid_1k):
        _, picard = solve_pool(base_measure, grid_1k)
        # at t=0 the convolutions vanish: q(0) = beta_c * b_dot(0) * lam0
        assert picard.q.values[0] == pytest.approx(1.0, abs=1e-12)
        assert picard.residual <= 1e-10
        assert picard.iterations <= 200
        assert np.all(picard.q.values >= 0.0)

    def test_residuals_eventually_decreasing(self, base_measure, grid_1k):
        _, picard = solve_pool(base_measure, grid_1k)
        h = picard.residual_history
        assert len(h) >= 4
        assert all(h[i + 1] <= h[i] for i in range(2, len(h) - 1))

    def test_no_convergence_reported(self, base_measure, grid_coarse):
        with pytest.raises(NoConvergenceError) as err:
            solve_pool(base_measure, grid_coarse, max_iter=2)
        assert err.value.iterations == 2
        assert err.value.residual > err.value.tol

    def test_input_validation(self, base_measure, grid_coarse):
        riccati = riccati_for_measure(base_measure, grid_coarse)
        with pytest.raises(ValueError):
            solve_q(base_measure, riccati, grid_coarse, tol=0.0)
        with pytest.raises(ValueError):
            solve_q(base_measure, riccati, TimeGrid(1.0, 100))
        with pytest.raises(ValueError):
            solve_q(base_measure, (), grid_coarse)

    def test_riccati_of_another_firm_type_rejected(self, base_measure, grid_coarse):
        other = FirmType(BASE.alpha * 2, BASE.lambda_bar, BASE.sigma, BASE.beta_c)
        riccati = (solve_riccati(other, grid_coarse),)
        with pytest.raises(ValueError, match="does not match its atom"):
            solve_q(base_measure, riccati, grid_coarse)


class TestComputeF:
    def test_starts_at_zero_monotone_bounded(self, base_measure, grid_1k):
        riccati, picard = solve_pool(base_measure, grid_1k)
        f = compute_f(base_measure, riccati, picard.q)
        assert f.values[0] == 0.0
        assert np.all(np.diff(f.values) >= 0.0)
        assert np.all((f.values >= 0.0) & (f.values <= 1.0 + 1e-12))

    def test_contagion_free_explicit_formula(self, grid_1k):
        # independent oracle: F = 1 - exp(-alpha lbar int_0^t b - b(t) lam0)
        p = FirmType(4.0, 0.5, 0.9, beta_c=0.0)
        m = homogeneous_measure(p, 0.5)
        riccati, picard = solve_pool(m, grid_1k)
        f = compute_f(m, riccati, picard.q)
        b = riccati[0].b.values
        dt = grid_1k.dt
        running = np.concatenate(([0.0], np.cumsum(0.5 * dt * (b[1:] + b[:-1]))))
        expected = 1.0 - np.exp(-4.0 * 0.5 * running - b * 0.5)
        assert np.max(np.abs(f.values - expected)) < 1e-10

    def test_constant_intensity_exponential(self, grid_1k):
        # alpha = sigma = beta_c = 0: b(t) = t, so F = 1 - exp(-c t) exactly
        c = 0.5
        m = homogeneous_measure(FirmType(0.0, 0.0, 0.0, 0.0), c)
        riccati, picard = solve_pool(m, grid_1k)
        f = compute_f(m, riccati, picard.q)
        expected = 1.0 - np.exp(-c * grid_1k.points())
        assert np.max(np.abs(f.values - expected)) < 1e-12

    def test_slope_decomposition_matches_finite_differences(self, base_measure, grid_1k):
        riccati, picard = solve_pool(base_measure, grid_1k)
        f = compute_f(base_measure, riccati, picard.q)
        slope = f_derivative(picard)
        dt = grid_1k.dt
        central = (f.values[2:] - f.values[:-2]) / (2.0 * dt)
        assert np.max(np.abs(slope.values[1:-1] - central)) < 1e-4
        assert np.all(slope.values >= 0.0)


class TestHomogeneousRoute:
    def test_zero_contagion_equals_explicit_formula(self, grid_1k):
        p = FirmType(4.0, 0.5, 0.9, beta_c=0.0)
        f = solve_homogeneous_f(p, 0.5, grid_1k)
        m = homogeneous_measure(p, 0.5)
        riccati, picard = solve_pool(m, grid_1k)
        via_q = compute_f(m, riccati, picard.q)
        assert f.sup_distance(via_q) < 1e-12

    def test_zero_start_zero_level(self, grid_coarse):
        f = solve_homogeneous_f(FirmType(4.0, 0.0, 0.9, 2.0), 0.0, grid_coarse)
        assert np.all(f.values == 0.0)

    def test_two_route_consistency_scales_quadratically(self):
        # the routes share b and the trapezoid rule but discretize different
        # equations; their gap is discretization error, O(dt^2)
        gaps = []
        for n_steps in (500, 1000, 2000):
            grid = TimeGrid(1.0, n_steps)
            m = homogeneous_measure(BASE, BASE_LAMBDA_INIT)
            riccati, picard = solve_pool(m, grid)
            via_q = compute_f(m, riccati, picard.q)
            direct = solve_homogeneous_f(BASE, BASE_LAMBDA_INIT, grid)
            gaps.append(via_q.sup_distance(direct))
        assert gaps[1] < 1e-6
        assert gaps[0] / gaps[1] > 3.0
        assert gaps[1] / gaps[2] > 3.0

    def test_no_convergence(self, grid_coarse):
        with pytest.raises(NoConvergenceError):
            solve_homogeneous_f(BASE, BASE_LAMBDA_INIT, grid_coarse, max_iter=2)


# b(t) = t on this grid, so the first sweep's exponents overflow
OVERFLOWING_TYPE = FirmType(0.0, 0.0, 0.0, 2.0)
OVERFLOWING_GRID = TimeGrid(1e306, 4)


class TestNonFiniteSweep:
    """Both routes stop at the first non-finite sweep, with no numpy warning."""

    def test_forcing_route(self):
        with pytest.raises(NonFiniteResultError, match="sweep 1 "):
            solve_limit(homogeneous_measure(OVERFLOWING_TYPE, 0.5), OVERFLOWING_GRID)

    def test_homogeneous_route(self):
        # a NaN sweep ends the solve; it must not run on to max_iter
        with pytest.raises(NonFiniteResultError, match="sweep 1 "):
            solve_homogeneous_f(OVERFLOWING_TYPE, 0.5, OVERFLOWING_GRID)


# one-atom measures the simulator rejects, and the field each one names
INVALID_ATOMS = {
    "weight-2": (TypeAtom(BASE, BASE_LAMBDA_INIT, 2.0), "atoms"),
    "sigma-negative": (TypeAtom(FirmType(4.0, 0.5, -0.9, 2.0), BASE_LAMBDA_INIT, 1.0),
                       "atoms[0].sigma"),
    "lambda-init-negative": (TypeAtom(BASE, -0.5, 1.0), "atoms[0].lambda_init"),
}


def _solve_q(m, grid):
    return solve_q(m, riccati_for_measure(m, grid), grid)


def _compute_f(m, grid):
    return compute_f(m, riccati_for_measure(m, grid), Trajectory(grid, np.zeros(grid.n_points)))


class TestMeasureCheck:
    """The limit solver rejects every measure the simulator rejects."""

    @pytest.mark.parametrize("case", INVALID_ATOMS)
    @pytest.mark.parametrize("call", [solve_limit, _solve_q, _compute_f],
                             ids=["solve_limit", "solve_q", "compute_f"])
    def test_forcing_route(self, call, case, grid_coarse):
        atom, where = INVALID_ATOMS[case]
        with pytest.raises(ValidationError) as err:
            call(DiscreteTypeMeasure((atom,)), grid_coarse)
        assert [v.field for v in err.value.violations] == [where]

    @pytest.mark.parametrize("case", ["sigma-negative", "lambda-init-negative"])
    def test_homogeneous_route(self, case, grid_coarse):
        atom, where = INVALID_ATOMS[case]
        with pytest.raises(ValidationError) as err:
            solve_homogeneous_f(atom.firm_type, atom.lambda_init, grid_coarse)
        assert [v.field for v in err.value.violations] == [where]

    def test_checked_once_per_entry(self, two_by_three, monkeypatch):
        # a five-level solve and the diagnostic and dF/dt on its solution
        # check the measure once, where it enters
        calls = []
        original = limit_module.validate_measure

        def counting(measure, cap):
            calls.append(measure)
            return original(measure, cap)

        monkeypatch.setattr(limit_module, "validate_measure", counting)
        sol = solve_limit(two_by_three, TimeGrid(1.0, 4000))
        q_identity_diagnostic(sol)
        f_derivative(sol)
        assert len(sol.levels) == 5 and len(calls) == 1


class TestSolveLimit:
    def test_bundles_everything(self, base_measure, grid_1k):
        sol = solve_limit(base_measure, grid_1k)
        assert sol.grid == grid_1k
        assert len(sol.riccati) == 1
        assert sol.residual <= 1e-10
        assert sol.q.values[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.f.values[0] == 0.0

    @pytest.mark.parametrize("kw, field", [
        ({"max_iter": 2.5}, "max_iter"),  # a TypeError from range
        ({"max_iter": True}, "max_iter"),  # "no convergence after True iterations"
        ({"tol": True}, "tol"),  # stopped after one sweep per grid
    ])
    def test_wrong_kind_of_stopping_rule_named(self, base_measure, kw, field):
        with pytest.raises(ValueError) as err:  # a FieldError
            solve_limit(base_measure, TimeGrid(1.0, 100), **kw)
        assert err.value.field == field

    def test_integral_float_max_iter_accepted(self, base_measure):
        grid = TimeGrid(1.0, 100)
        sol = solve_limit(base_measure, grid, max_iter=1e3)
        assert np.array_equal(sol.f.values, solve_limit(base_measure, grid, max_iter=1000).f.values)

    @given(
        alpha=st.floats(0.0, 6.0),
        sigma=st.floats(0.0, 2.0),
        lambda_bar=st.floats(0.0, 1.5),
        lam0=st.floats(0.0, 1.5),
        beta_c=st.floats(0.0, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_limit_curves_well_formed(self, alpha, sigma, lambda_bar, lam0, beta_c):
        m = homogeneous_measure(FirmType(alpha, lambda_bar, sigma, beta_c), lam0)
        sol = solve_limit(m, TimeGrid(0.5, 100), tol=1e-8)
        assert np.all(sol.q.values >= 0.0)
        assert sol.f.values[0] == 0.0
        assert np.all(np.diff(sol.f.values) >= -1e-12)
        assert np.all(sol.f.values <= 1.0 + 1e-12)


def per_atom_picard(measure, grid, tol, riccati=None):
    """Reference Picard loop: one direct trapezoid convolution per atom and kernel.

    Uses the given Riccati solutions, or a closed-form solve per atom.
    """

    def trap(h, g):
        n, dt = len(h), grid.dt
        out = dt * (np.convolve(h, g)[:n] - 0.5 * h * g[0] - 0.5 * h[0] * g)
        out[0] = 0.0
        return out

    if riccati is None:
        riccati = [solve_riccati(a.firm_type, grid) for a in measure.atoms]
    q = np.zeros(grid.n_points)
    for _ in range(200):
        E, D = [], []
        for atom, ric in zip(measure.atoms, riccati):
            g = q + atom.firm_type.alpha * atom.firm_type.lambda_bar
            E.append(ric.b.values * atom.lambda_init + trap(ric.b.values, g))
            D.append(ric.b_dot.values * atom.lambda_init + trap(ric.b_dot.values, g))
        E, D = np.array(E), np.array(D)
        coef = np.array([a.weight * a.firm_type.beta_c for a in measure.atoms])
        q_new = coef @ (D * np.exp(-E))
        residual = np.max(np.abs(q_new - q))
        q = q_new
        if residual <= tol:
            return q, E, D


@pytest.fixture
def two_by_three():
    types = [(FirmType(4.0, 0.5, 0.9, 2.0), 0.5), (FirmType(2.0, 0.3, 0.5, 1.0), 0.3),
             (FirmType(6.0, 0.8, 1.2, 3.0), 0.2)]
    inits = [(0.2, 0.5), (0.9, 0.5)]
    return DiscreteTypeMeasure(tuple(TypeAtom(ft, lam, wt * wl)
                                     for ft, wt in types for lam, wl in inits))


class TestBatchedKernel:
    def test_picard_matches_per_atom_reference(self, two_by_three):
        grid = TimeGrid(1.0, 300)
        q_ref, E_ref, D_ref = per_atom_picard(two_by_three, grid, 1e-12)
        _, picard = solve_pool(two_by_three, grid, tol=1e-12)
        assert np.max(np.abs(picard.q.values - q_ref)) <= 1e-13
        assert np.max(np.abs(picard.exponents - E_ref)) <= 1e-13
        assert np.max(np.abs(picard.slopes - D_ref)) <= 1e-13

    def test_atoms_of_one_type_share_a_riccati_solve(self, two_by_three, monkeypatch):
        calls = []

        def counting(firm_type, grid, method="closed_form"):
            calls.append(firm_type)
            return solve_riccati(firm_type, grid, method)

        monkeypatch.setattr(limit_module, "solve_riccati", counting)
        riccati = riccati_for_measure(two_by_three, TimeGrid(1.0, 50))
        assert len(calls) == 3 and len(set(calls)) == 3
        assert len(riccati) == 6
        assert riccati[0] is riccati[1] and riccati[2] is riccati[3]
        assert riccati[1] is not riccati[2]

    def test_kernel_rows_follow_solution_objects(self, grid_coarse):
        # one firm type, two separately solved kernels: each keeps its own row
        ft = FirmType(4.0, 0.5, 0.9, 2.0)
        m = DiscreteTypeMeasure((TypeAtom(ft, 0.5, 0.5), TypeAtom(ft, 0.5, 0.5)))
        riccati = (solve_riccati(ft, grid_coarse, "closed_form"),
                   solve_riccati(ft, grid_coarse, "rk4"))
        rows = limit_module._AtomKernels(m, riccati, grid_coarse).kernels
        assert rows.shape == (4, grid_coarse.n_points)  # b, b_dot each
        sol = solve_q(m, riccati, grid_coarse, tol=1e-12)
        assert np.max(np.abs(sol.exponents[0] - sol.exponents[1])) > 1e-12
        q_ref, E_ref, D_ref = per_atom_picard(m, grid_coarse, 1e-12, riccati)
        assert np.max(np.abs(sol.q.values - q_ref)) <= 1e-13
        assert np.max(np.abs(sol.exponents - E_ref)) <= 1e-13
        assert np.max(np.abs(sol.slopes - D_ref)) <= 1e-13
        # one object shared by both atoms is one row
        shared = limit_module._AtomKernels(m, (riccati[0], riccati[0]), grid_coarse).kernels
        assert shared.shape == (2, grid_coarse.n_points)

    def test_one_solve_builds_one_kernel_object(self, two_by_three, grid_coarse, monkeypatch):
        # the trapezoid spectra are built once per solve; the diagnostic and
        # dF/dt read the solution and build none
        built = []
        original = limit_module.TrapezoidKernel

        def counting(kernels, dt):
            built.append(kernels.shape)
            return original(kernels, dt)

        monkeypatch.setattr(limit_module, "TrapezoidKernel", counting)
        sol = solve_limit(two_by_three, grid_coarse)
        q_identity_diagnostic(sol)
        f_derivative(sol)
        assert len(built) == 1

    def test_solution_keeps_exponents_of_its_last_sweep(self, two_by_three, grid_coarse):
        sol = solve_limit(two_by_three, grid_coarse)
        weights = np.array([a.weight for a in two_by_three.atoms])
        contagion = weights * np.array([a.firm_type.beta_c for a in two_by_three.atoms])
        survival = np.exp(-sol.exponents)
        assert sol.exponents.shape == sol.slopes.shape == (6, grid_coarse.n_points)
        assert np.max(np.abs(sol.f.values - (1.0 - weights @ survival))) == 0.0
        # q is the image of that sweep: the Picard identity holds to round-off
        assert np.max(np.abs(sol.q.values - contagion @ (sol.slopes * survival))) <= 1e-15
        # and F from the stored exponents differs from a fresh evaluation at q
        # by no more than the stopping tolerance
        fresh = compute_f(two_by_three, sol.riccati, sol.q)
        assert sol.f.sup_distance(fresh) <= 1e-10
        with pytest.raises(ValueError):
            sol.exponents[0, 0] = 1.0

    def test_max_iter_must_be_positive(self, base_measure, grid_coarse):
        with pytest.raises(ValueError):
            solve_pool(base_measure, grid_coarse, max_iter=0)
        with pytest.raises(ValueError):
            solve_homogeneous_f(BASE, BASE_LAMBDA_INIT, grid_coarse, max_iter=0)


class TestTimeScaling:
    """Every rate and the initial intensity times c, and ``t_end`` over c, is
    the same pool in faster time, so F on the same step indices must agree;
    a dt missing or doubled in the solver's bookkeeping breaks that."""

    TWO_ATOMS = DiscreteTypeMeasure((
        TypeAtom(FirmType(4.0, 0.5, 0.9, 2.0), 0.5, 0.5),
        TypeAtom(FirmType(2.0, 0.3, 0.6, 1.0), 0.3, 0.5),
    ))

    @pytest.mark.parametrize("measure", [homogeneous_measure(BASE, BASE_LAMBDA_INIT), TWO_ATOMS],
                             ids=["one-atom", "two-atoms"])
    def test_f_agrees_at_c4(self, measure):
        c, n, tol = 4.0, 2000, limit_module.DEFAULT_TOL
        fast = DiscreteTypeMeasure(tuple(
            TypeAtom(FirmType(c * a.firm_type.alpha, c * a.firm_type.lambda_bar,
                              c * a.firm_type.sigma, c * a.firm_type.beta_c),
                     c * a.lambda_init, a.weight)
            for a in measure.atoms))
        base = solve_limit(measure, TimeGrid(1.0, n), tol=tol).f.values
        scaled = solve_limit(fast, TimeGrid(1.0 / c, n), tol=tol).f.values
        assert base[-1] > 0.1
        assert np.max(np.abs(scaled - base)) <= 10 * tol


def _benchmark_pool():
    """limit-hetero-cli's pool at seed 901: 25 firm types x 2 initial intensities."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    atoms = workloads.make_inputs(workloads.LIMIT_CLI, 901)["measure"]["atoms"]
    return DiscreteTypeMeasure(tuple(
        TypeAtom(FirmType(a["alpha"], a["lambda_bar"], a["sigma"], a["beta_c"], a["beta_s"]),
                 a["lambda_init"], a["weight"])
        for a in atoms))


class TestNestedSolve:
    """solve_limit solves on halved grids first, each level started from the
    Richardson-corrected prolongation of the coarser ones."""

    def test_prolongation_exact_on_cubics(self):
        coarse_t = np.linspace(0.0, 1.0, 11)
        fine_t = np.linspace(0.0, 1.0, 21)
        cubic = lambda t: 1.0 - 2.0 * t + 3.0 * t**2 - 5.0 * t**3  # noqa: E731
        fine = limit_module._prolong(cubic(coarse_t))
        assert np.max(np.abs(fine[2:-2] - cubic(fine_t)[2:-2])) <= 1e-14
        quadratic = lambda t: 1.0 - 2.0 * t + 3.0 * t**2  # noqa: E731
        assert np.max(np.abs(limit_module._prolong(quadratic(coarse_t))
                             - quadratic(fine_t))) <= 1e-14

    @pytest.mark.parametrize("measure", [homogeneous_measure(BASE, BASE_LAMBDA_INIT),
                                         TestTimeScaling.TWO_ATOMS],
                             ids=["one-atom", "two-atoms"])
    def test_error_estimate_within_2x_of_true_error(self, measure):
        # reference: Richardson's (4 F_64000 - F_32000) / 3 on the 32000 grid
        half = solve_limit(measure, TimeGrid(1.0, 32000), tol=1e-12).f.values
        full = solve_limit(measure, TimeGrid(1.0, 64000), tol=1e-12).f.values
        reference = (4.0 * full[::2] - half) / 3.0
        sol = solve_limit(measure, TimeGrid(1.0, 1000))
        true_error = np.max(np.abs(sol.f.values - reference[::32]))
        assert 0.5 <= sol.f_error_estimate / true_error <= 2.0
        # R = (4 F_n - F_{n/2}) / 3 on the n/2 points is order 4: its error
        # falls at least 10x from n = 250 to 500, where it sits well above the
        # reference's own; tol 1e-13 keeps the stopping error below it
        f = {n: solve_limit(measure, TimeGrid(1.0, n), tol=1e-13).f.values for n in (125, 250, 500)}
        r_error = {n: np.max(np.abs((4.0 * f[n][::2] - f[n // 2]) / 3.0
                                    - reference[::32000 // (n // 2)]))
                   for n in (250, 500)}
        assert r_error[250] >= 10.0 * r_error[500]

    def test_warm_start_matches_a_cold_solve(self):
        measure = _benchmark_pool()
        grid = TimeGrid(1.0, 4000)
        warm = solve_limit(measure, grid)
        cold = solve_q(measure, riccati_for_measure(measure, grid), grid)
        assert [n for n, _ in warm.levels] == [250, 500, 1000, 2000, 4000]
        assert warm.f.sup_distance(cold.f) <= 1e-11
        # the finest level starts next to its fixed point
        assert warm.levels[-1] == (4000, warm.iterations) and warm.iterations <= 3
        assert len(warm.residual_history) == warm.iterations

    def test_one_riccati_solve_per_type_and_one_kernel_set(self, two_by_three, monkeypatch):
        # five grids, three firm types: three Riccati solves, read at every
        # grid's stride, one _AtomKernels and one LimitSolution
        built = {"riccati": 0, "kernels": 0, "solutions": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(limit_module, "solve_riccati",
                            counting("riccati", limit_module.solve_riccati))
        monkeypatch.setattr(limit_module, "_AtomKernels",
                            counting("kernels", limit_module._AtomKernels))
        monkeypatch.setattr(limit_module, "LimitSolution",
                            counting("solutions", limit_module.LimitSolution))
        sol = solve_limit(two_by_three, TimeGrid(1.0, 4000))
        assert len(sol.levels) == 5
        assert built == {"riccati": 3, "kernels": 1, "solutions": 1}

    @pytest.mark.parametrize("t_end", [1.0, 0.7, 0.25, 3.0])
    @pytest.mark.parametrize("n_steps", [1000, 3000, 4000])
    def test_coarse_grid_reads_the_fine_riccati_rows_bit_for_bit(self, t_end, n_steps):
        # the nested solve reads a coarse grid's Riccati rows at its stride
        # in the finest grid's; that keeps its bits only while both agree
        # exactly, the step and every closed-form b and b_dot
        fine = TimeGrid(t_end, n_steps)
        for stride in (2, 4):
            coarse = TimeGrid(t_end, n_steps // stride)
            assert coarse.dt == stride * fine.dt
            for ft in (BASE, FirmType(2.0, 0.3, 0.5, 1.0), FirmType(6.0, 0.8, 1.2, 3.0),
                       FirmType(3.0, 0.5, 0.0, 1.0)):
                rows, own = solve_riccati(ft, fine), solve_riccati(ft, coarse)
                assert np.array_equal(rows.b.values[::stride], own.b.values)
                assert np.array_equal(rows.b_dot.values[::stride], own.b_dot.values)

    def test_negative_forcing_names_its_grid(self, two_by_three):
        # a Picard map with its sign flipped has a negative fixed point; the
        # error names the grid it ended on, here every second point of 500
        grid = TimeGrid(1.0, 500)
        kern = limit_module._AtomKernels(two_by_three, riccati_for_measure(two_by_three, grid), grid)
        kern.contagion = -kern.contagion
        with pytest.raises(NonFiniteResultError, match="on the 250-step grid, below -tol"):
            limit_module._solve_grid(kern, 2, 1e-10, 200, None, None)

    @pytest.mark.parametrize("n_steps", [1001, 498], ids=["odd", "below-twice-the-floor"])
    def test_one_level_is_a_cold_solve(self, base_measure, n_steps):
        grid = TimeGrid(1.0, n_steps)
        sol = solve_limit(base_measure, grid)
        cold = solve_q(base_measure, riccati_for_measure(base_measure, grid), grid)
        assert sol.levels == ((n_steps, sol.iterations),) == cold.levels
        assert sol.f_error_estimate is None and cold.f_error_estimate is None
        assert np.array_equal(sol.f.values, cold.f.values)
        assert np.array_equal(sol.q.values, cold.q.values)


# sha256 over F, q, exponents and slopes of solve_limit, the one-atom pool
# and then TestTimeScaling's two atoms, at n = 1000.  A change that moves
# the limit's bits on purpose (ROADMAP item 1 will; the nested-grid solve
# did) says so in CHANGES.md and replaces this digest.
LIMIT_GOLDEN_SHA256 = "3fdbbca15a1bd5dcb9250feb263bc7f2c6b7c7899d19e6f4f2e01acc0f950dd2"


def test_limit_bits_pinned():
    digest = hashlib.sha256()
    for measure in (homogeneous_measure(BASE, BASE_LAMBDA_INIT), TestTimeScaling.TWO_ATOMS):
        sol = solve_limit(measure, TimeGrid(1.0, 1000))
        for values in (sol.f.values, sol.q.values, sol.exponents, sol.slopes):
            digest.update(values.tobytes())
    assert digest.hexdigest() == LIMIT_GOLDEN_SHA256


# README "Memory" states these figures, in bytes per atom-grid point: the
# peak of a solve, what a solution keeps once its solve has returned, and
# the peak of the identity diagnostic on that solution
BYTES_PER_POINT = 80
HELD_BYTES_PER_POINT = 30
DIAGNOSTIC_BYTES_PER_POINT = 110


class TestMemory:
    def test_bytes_per_atom_grid_point(self):
        """A solve keeps the kernel spectra and the q-free block, and a sweep
        builds one (2, A, n) block while the previous sweep's is gone:
        tracemalloc's peak over solve_limit, after a warm-up solve, is at
        most BYTES_PER_POINT bytes per atom and grid point.  25 firm types
        over the benchmark pool's ranges, x 2 initial intensities."""
        rng = np.random.default_rng(34)
        types = [FirmType(*rng.uniform((2.0, 0.3, 0.5, 0.5), (6.0, 0.7, 1.2, 3.0)))
                 for _ in range(25)]
        measure = DiscreteTypeMeasure(tuple(TypeAtom(ft, lam, 1 / 50)
                                            for ft in types for lam in (0.2, 0.9)))
        grid = TimeGrid(1.0, 4000)
        solve_limit(measure, grid)
        tracemalloc.start()
        try:
            solve_limit(measure, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (len(measure.atoms) * grid.n_points) <= BYTES_PER_POINT

    def test_held_solution_and_diagnostic_bytes(self):
        """A returned solution is plain data, q, F, E, D and its Riccati
        solutions, with no spectra or q-free block: tracemalloc's count once
        solve_limit has returned is at most HELD_BYTES_PER_POINT bytes per
        atom and grid point.  The diagnostic's Simpson evaluation sits on top
        of it, with no second set of spectra: its peak is at most
        DIAGNOSTIC_BYTES_PER_POINT.  The pool above, after a warm-up."""
        rng = np.random.default_rng(34)
        types = [FirmType(*rng.uniform((2.0, 0.3, 0.5, 0.5), (6.0, 0.7, 1.2, 3.0)))
                 for _ in range(25)]
        measure = DiscreteTypeMeasure(tuple(TypeAtom(ft, lam, 1 / 50)
                                            for ft in types for lam in (0.2, 0.9)))
        grid = TimeGrid(1.0, 4000)
        points = len(measure.atoms) * grid.n_points
        q_identity_diagnostic(solve_limit(measure, grid))
        tracemalloc.start()
        try:
            sol = solve_limit(measure, grid)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            q_identity_diagnostic(sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held / points <= HELD_BYTES_PER_POINT
        assert peak / points <= DIAGNOSTIC_BYTES_PER_POINT

    def test_readme_states_the_bytes_per_point_bound(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert f"at most {BYTES_PER_POINT} bytes per atom-grid point" in " ".join(readme.split())

    def test_readme_states_the_held_and_diagnostic_bounds(self):
        readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
        for bound in (HELD_BYTES_PER_POINT, DIAGNOSTIC_BYTES_PER_POINT):
            assert f"at most {bound} bytes per atom-grid point" in readme
