import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creditpool
from creditpool import (
    DiscreteTypeMeasure,
    EpsSchedule,
    FirmType,
    SystematicFactorConfig,
    TimeGrid,
    Trajectory,
    TypeAtom,
    ValidationError,
    homogeneous_measure,
    validate_measure,
)
from creditpool.errors import FieldError
from creditpool.model import whole_number


def atom(weight=1.0, lambda_init=0.5, **overrides):
    params = dict(alpha=4.0, lambda_bar=0.5, sigma=0.9, beta_c=2.0, beta_s=0.0)
    params.update(overrides)
    return TypeAtom(FirmType(**params), lambda_init=lambda_init, weight=weight)


class TestValidateMeasure:
    def test_base_case_valid_under_cap_10(self):
        m = DiscreteTypeMeasure((atom(),))
        assert validate_measure(m, cap=10.0) is m

    def test_split_weights_valid(self):
        m = DiscreteTypeMeasure((atom(weight=0.5), atom(weight=0.5)))
        validate_measure(m)

    def test_weight_sum_mismatch(self):
        m = DiscreteTypeMeasure((atom(weight=0.5), atom(weight=0.6)))
        with pytest.raises(ValidationError) as err:
            validate_measure(m)
        assert [(v.field, v.reason) for v in err.value.violations] == [
            ("atoms", "must have weights summing to 1, got 1.1")]

    def test_negative_sigma(self):
        m = DiscreteTypeMeasure((atom(sigma=-0.1),))
        with pytest.raises(ValidationError) as err:
            validate_measure(m)
        assert [v.field for v in err.value.violations] == ["atoms[0].sigma"]

    def test_cap_exceeded(self):
        m = DiscreteTypeMeasure((atom(alpha=11.0),))
        with pytest.raises(ValidationError) as err:
            validate_measure(m, cap=10.0)
        assert [(v.field, v.reason) for v in err.value.violations] == [
            ("atoms[0].alpha", "must be finite and in [0.0, cap 10.0], got 11.0")]

    def test_beta_s_symmetric_cap(self):
        validate_measure(DiscreteTypeMeasure((atom(beta_s=-9.0),)), cap=10.0)
        with pytest.raises(ValidationError) as err:
            validate_measure(DiscreteTypeMeasure((atom(beta_s=-11.0),)), cap=10.0)
        assert [(v.field, v.reason) for v in err.value.violations] == [
            ("atoms[0].beta_s", "must be finite and in [-10.0, cap 10.0], got -11.0")]

    def test_all_violations_reported(self):
        m = DiscreteTypeMeasure(
            (atom(sigma=-0.1, weight=0.5), atom(lambda_init=200.0, weight=0.6))
        )
        with pytest.raises(ValidationError) as err:
            validate_measure(m, cap=100.0)
        assert [v.field for v in err.value.violations] == [
            "atoms[0].sigma", "atoms[1].lambda_init", "atoms"]

    def test_nonpositive_weight_rejected(self):
        m = DiscreteTypeMeasure((atom(weight=0.0), atom(weight=1.0)))
        with pytest.raises(ValidationError):
            validate_measure(m)

    def test_nonfinite_rejected(self):
        m = DiscreteTypeMeasure((atom(alpha=math.inf),))
        with pytest.raises(ValidationError):
            validate_measure(m)

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
    def test_nan_or_nonpositive_cap_is_the_one_violation(self, cap):
        # NaN turned every cap check off; a cap <= 0 gave a cap violation per field
        with pytest.raises(ValidationError) as err:
            validate_measure(DiscreteTypeMeasure((atom(),)), cap=cap)
        assert [(v.field, v.reason) for v in err.value.violations] == [
            ("cap", f"must be > 0, got {cap!r}")]

    def test_infinite_cap_bounds_nothing(self):
        m = DiscreteTypeMeasure((atom(alpha=1e300, lambda_init=1e300),))
        assert validate_measure(m, cap=math.inf) is m

    def test_empty_measure_unconstructible(self):
        with pytest.raises(ValueError):
            DiscreteTypeMeasure(())


class TestTimeGrid:
    def test_dt_and_points(self):
        g = TimeGrid(2.0, 8)
        assert g.dt == 2.0 / 8
        pts = g.points()
        assert pts.shape == (9,)
        assert pts[0] == 0.0
        np.testing.assert_allclose(pts, np.arange(9) * 0.25)

    def test_index_of(self):
        g = TimeGrid(1.0, 100)
        assert g.index_of(0.0) == 0
        assert g.index_of(0.25) == 25
        assert g.index_of(1.0) == 100
        with pytest.raises(ValueError):
            g.index_of(0.2501)

    @pytest.mark.parametrize("t_end,n_steps", [(0.0, 10), (-1.0, 10), (1.0, 0),
                                               (1.0, 2.5), (1.0, True), (1.0, math.nan)])
    def test_invalid(self, t_end, n_steps):
        with pytest.raises(ValueError):
            TimeGrid(t_end, n_steps)

    @pytest.mark.parametrize("n_steps", [1e3, np.int64(1000), np.float64(1000.0)])
    def test_integral_step_counts_accepted(self, n_steps):
        g = TimeGrid(1.0, n_steps)
        assert g.n_steps == 1000 and type(g.n_steps) is int

    @pytest.mark.parametrize("t_end, n_steps, field", [
        ("2", 10, "t_end"),  # ran with t_end 2.0
        (1.0, 2**31, "n_steps"),  # the size ceiling held for the CLI only
    ])
    def test_wrong_kind_or_oversized_field_named(self, t_end, n_steps, field):
        with pytest.raises(FieldError) as err:
            TimeGrid(t_end, n_steps)
        assert err.value.field == field


class TestTrajectory:
    def test_shape_checked(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            Trajectory(g, np.zeros(4))

    def test_finite_checked(self):
        g = TimeGrid(1.0, 2)
        with pytest.raises(ValueError):
            Trajectory(g, np.array([0.0, np.nan, 1.0]))

    def test_values_read_only(self):
        g = TimeGrid(1.0, 2)
        tr = Trajectory(g, np.zeros(3))
        with pytest.raises(ValueError):
            tr.values[0] = 1.0

    def test_sup_distance_requires_shared_grid(self):
        a = Trajectory(TimeGrid(1.0, 2), np.zeros(3))
        b = Trajectory(TimeGrid(1.0, 4), np.zeros(5))
        with pytest.raises(ValueError):
            a.sup_distance(b)
        c = Trajectory(TimeGrid(1.0, 2), np.array([0.0, 0.5, 2.0]))
        assert a.sup_distance(c) == 2.0


class TestEpsSchedule:
    def test_kinds(self):
        assert EpsSchedule("zero")(100) == 0.0
        assert EpsSchedule("fixed", 0.25)(100) == 0.25
        assert EpsSchedule("inverse_sqrt", 2.0)(4) == 1.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            EpsSchedule("linear")

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing(self, n, m):
        sched = EpsSchedule()
        lo, hi = sorted((n, m))
        assert sched(hi) <= sched(lo)
        assert sched(lo) >= 0.0


class TestFactorConfig:
    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            SystematicFactorConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SystematicFactorConfig(gamma=-1.0)

    def test_types_frozen_after_construction(self):
        m = homogeneous_measure(FirmType(1, 1, 1, 1), 0.5)
        assert m.atoms[0].firm_type == FirmType(1, 1, 1, 1)
        with pytest.raises(AttributeError):
            m.atoms[0].firm_type.alpha = 2.0


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: FirmType(alpha=True, lambda_bar=0.5, sigma=0.9, beta_c=2.0), "alpha",
                 id="bool-rate"),
    pytest.param(lambda: TypeAtom(FirmType(1, 1, 1, 1), lambda_init=10**400, weight=1.0),
                 "lambda_init", id="int-beyond-double"),
    pytest.param(lambda: validate_measure(homogeneous_measure(FirmType(1, 1, 1, 1), 0.5), "9"),
                 "cap", id="string-cap"),
])
def test_domain_type_rejects_a_wrong_kind(build, field):
    # True ran as 1.0; the others escaped as an OverflowError and a TypeError
    with pytest.raises(FieldError) as err:
        build()
    assert err.value.field == field


@pytest.mark.parametrize("reject, field", [
    pytest.param(lambda: whole_number(2.5, "n"), "n", id="whole_number"),
    pytest.param(lambda: DiscreteTypeMeasure(()), "atoms", id="empty-measure"),
    pytest.param(lambda: creditpool.run_replications(None, 0), "n_reps", id="run_replications"),
    pytest.param(lambda: creditpool.solve_riccati(FirmType(1, 1, 1, 1), TimeGrid(1.0, 4), "euler"),
                 "method", id="solve_riccati"),
])
def test_out_of_domain_value_is_a_field_error(reject, field):
    # each was a plain ValueError with the name inside its text
    with pytest.raises(FieldError) as err:
        reject()
    assert err.value.field == field and isinstance(err.value, ValueError)


def test_all_lists_every_public_name_the_package_binds():
    # __init__.py names each public name twice, once imported and once in __all__
    bound = {name for name, value in vars(creditpool).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(creditpool.__all__) == sorted(bound | {"__version__"})
