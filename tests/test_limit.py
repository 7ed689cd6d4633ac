import hashlib
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


class TestSolveLimit:
    def test_bundles_everything(self, base_measure, grid_1k):
        sol = solve_limit(base_measure, grid_1k)
        assert sol.grid == grid_1k
        assert len(sol.riccati) == 1
        assert sol.residual <= 1e-10
        assert sol.q.values[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.f.values[0] == 0.0

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


# sha256 over F, q, exponents and slopes of solve_limit, the one-atom pool
# and then TestTimeScaling's two atoms, at n = 1000.  A change that moves
# the limit's bits on purpose (ROADMAP items 1 and 13 will) says so in
# CHANGES.md and replaces this digest.
LIMIT_GOLDEN_SHA256 = "32c93301417eac2abf907071bbcf13ffbebde9bf8ea659f111983cb0740d48b3"


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
