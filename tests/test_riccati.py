import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditpool import (
    FirmType,
    NonFiniteResultError,
    TimeGrid,
    solve_riccati,
)


def saturation_level(firm_type: FirmType) -> float:
    """Least upper bound of b: the positive root of 1 - s^2 b^2/2 - a b = 0.

    Infinite when both coefficients vanish (then b(t) = t grows without
    bound).
    """
    a, s = firm_type.alpha, firm_type.sigma
    if s > 0.0:
        return (-a + math.sqrt(a * a + 2.0 * s * s)) / (s * s)
    if a > 0.0:
        return 1.0 / a
    return math.inf


def ft(alpha, sigma):
    return FirmType(alpha=alpha, lambda_bar=0.5, sigma=sigma, beta_c=0.0)


class TestClosedForm:
    def test_both_zero_gives_identity(self):
        grid = TimeGrid(2.0, 200)
        sol = solve_riccati(ft(0.0, 0.0), grid)
        np.testing.assert_array_equal(sol.b.values, grid.points())
        np.testing.assert_array_equal(sol.b_dot.values, np.ones(grid.n_points))

    def test_linear_case_frozen_value(self):
        # sigma=0, alpha=4: b(t) = (1 - exp(-4 t)) / 4, so b(1) = 0.245421...
        grid = TimeGrid(1.0, 1000)
        sol = solve_riccati(ft(4.0, 0.0), grid)
        assert sol.b.values[-1] == pytest.approx(0.24542109027781644, abs=1e-14)
        expected = (1.0 - np.exp(-4.0 * grid.points())) / 4.0
        np.testing.assert_allclose(sol.b.values, expected, atol=1e-14)

    def test_saturation_is_steady_state(self):
        # positive root of 1 - sigma^2 b^2 / 2 - alpha b = 0 for the base case
        p = ft(4.0, 0.9)
        bstar = saturation_level(p)
        assert bstar == pytest.approx(0.2439732992136683, abs=1e-15)
        assert abs(1.0 - 0.5 * 0.9**2 * bstar**2 - 4.0 * bstar) < 1e-12
        sol = solve_riccati(p, TimeGrid(5.0, 5000))
        assert np.all(sol.b.values < bstar)
        assert sol.b.values[-1] == pytest.approx(bstar, abs=1e-9)

    def test_saturation_levels(self):
        assert saturation_level(ft(4.0, 0.0)) == 0.25
        assert saturation_level(ft(0.0, 0.0)) == math.inf


class TestStructure:
    @pytest.mark.parametrize("method", ["closed_form", "rk4"])
    @pytest.mark.parametrize("alpha,sigma", [(4.0, 0.9), (0.0, 1.5), (2.0, 0.0)])
    def test_invariants(self, method, alpha, sigma):
        sol = solve_riccati(ft(alpha, sigma), TimeGrid(3.0, 600), method)
        b = sol.b.values
        assert b[0] == 0.0
        assert np.all(b[1:] > 0.0)
        assert np.all(np.diff(b) >= 0.0)
        assert np.all(b <= saturation_level(sol.firm_type) + 1e-12)

    def test_b_dot_satisfies_the_ode(self):
        sol = solve_riccati(ft(4.0, 0.9), TimeGrid(1.0, 500), "rk4")
        b, bd = sol.b.values, sol.b_dot.values
        rhs = 1.0 - 0.5 * 0.81 * b * b - 4.0 * b
        assert np.max(np.abs(bd - rhs)) <= 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_riccati(ft(1.0, 1.0), TimeGrid(1.0, 10), "euler")

    def test_rk4_blowup_reported(self):
        # absurd volatility on a coarse grid drives RK4 out of the basin
        with pytest.raises(NonFiniteResultError):
            solve_riccati(ft(0.0, 100.0), TimeGrid(10.0, 10), "rk4")


class TestTwoRouteAgreement:
    @given(alpha=st.floats(0.0, 10.0), sigma=st.floats(0.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_rk4(self, alpha, sigma):
        grid = TimeGrid(2.0, 2000)
        closed = solve_riccati(ft(alpha, sigma), grid, "closed_form")
        rk4 = solve_riccati(ft(alpha, sigma), grid, "rk4")
        assert closed.b.sup_distance(rk4.b) < 1e-8
