import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadmodel import (
    NonFiniteParameter,
    NonPositiveParameter,
    ParameterError,
    QuadParams,
    build_3dof,
    build_6dof,
    controllability_matrix,
    hover_thrust_per_rotor,
    mixer_inverse,
    validate,
)


def _with(params, **overrides):
    values = {f: getattr(params, f) for f in ("m", "d", "c", "Ix", "Iy", "Iz", "g")}
    values.update(overrides)
    return QuadParams(**values)


def test_example_set_accepted(params):
    assert validate(params) is params


def test_default_gravity():
    assert QuadParams(m=1, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02).g == 9.81


@pytest.mark.parametrize("field", ["m", "d", "c", "Ix", "Iy", "Iz", "g"])
def test_zero_rejected_naming_field(params, field):
    with pytest.raises(NonPositiveParameter) as excinfo:
        validate(_with(params, **{field: 0.0}))
    assert excinfo.value.name == field


def test_negative_moment_arm_rejected(params):
    with pytest.raises(NonPositiveParameter) as excinfo:
        validate(_with(params, d=-0.25))
    assert excinfo.value.name == "d"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(params, bad):
    with pytest.raises(NonFiniteParameter) as excinfo:
        validate(_with(params, Iy=bad))
    assert excinfo.value.name == "Iy"


def test_a_non_numeric_field_is_rejected_naming_it():
    with pytest.raises(NonFiniteParameter) as excinfo:
        validate(QuadParams("1", 0.25, 0.01, 0.01, 0.01, 0.02))
    assert excinfo.value.name == "m"


@pytest.mark.parametrize("overrides,field", [
    ({"m": 1e-310}, "m"),
    ({"Ix": 1e-310}, "Ix"),
    ({"Ix": 1e-300, "d": 1e10}, "Ix"),   # d/Ix overflows, 1/Ix does not
    ({"Iy": 1e-300, "g": 1e10}, "Iy"),   # g/Iy overflows, 1/Iy does not
    ({"Iz": 1e-300, "c": 1e10}, "Iz"),
    ({"d": 1e-309}, "d"),                # 1/(2d) in the inverse mixer
    ({"c": 1e-309}, "c"),                # 1/(4c)
])
def test_overflowing_model_entries_rejected_naming_field(params, overrides, field):
    with pytest.raises(ParameterError) as excinfo:
        validate(_with(params, **overrides))
    assert excinfo.value.name == field
    assert str(excinfo.value).startswith(f"parameter {field} is too small")


@pytest.mark.parametrize("field,edge", [("d", 2.0 ** 1023), ("c", 2.0 ** 1022)])
def test_inverse_mixer_divisors_that_overflow_rejected_naming_field(params, field, edge):
    # 2d and 4c reach 2^1024 at the edge, where 1/(2d) and 1/(4c) would read 0;
    # the inertias are large enough that no quotient overflows on either side
    big = {"Ix": 1e10, "Iy": 1e10, "Iz": 1e10}
    below = _with(params, **big, **{field: math.nextafter(edge, 0.0)})
    assert validate(below) is below
    with pytest.raises(ParameterError) as excinfo:
        validate(_with(params, **big, **{field: edge}))
    assert excinfo.value.name == field
    assert str(excinfo.value).startswith(f"parameter {field} is too large")


magnitude = st.floats(-310.0, 308.0).map(lambda e: 10.0 ** e)


@given(m=magnitude, d=magnitude, c=magnitude, Ix=magnitude, Iy=magnitude, Iz=magnitude,
       g=magnitude)
def test_accepted_parameters_give_finite_models(m, d, c, Ix, Iy, Iz, g):
    p = QuadParams(m=m, d=d, c=c, Ix=Ix, Iy=Iy, Iz=Iz, g=g)
    try:
        validate(p)
    except ParameterError:
        return
    for model in (build_6dof(p), build_3dof(p)):
        assert np.all(np.isfinite(controllability_matrix(model)))
    assert np.all(np.isfinite(mixer_inverse(p)))


def test_validate_idempotent(params):
    assert validate(validate(params)) == validate(params)


def test_hover_thrust_examples():
    assert hover_thrust_per_rotor(QuadParams(1, 0.25, 0.01, 0.01, 0.01, 0.02, g=9.81)) == 2.4525
    assert hover_thrust_per_rotor(QuadParams(4, 0.25, 0.01, 0.01, 0.01, 0.02, g=10.0)) == 10.0
    # degenerate g is representable (validation is a separate gate)
    assert hover_thrust_per_rotor(QuadParams(1, 0.25, 0.01, 0.01, 0.01, 0.02, g=0.0)) == 0.0


@given(m=st.floats(1e-3, 1e3), g=st.floats(1e-3, 1e3))
def test_four_rotors_carry_exactly_the_weight(m, g):
    p = QuadParams(m=m, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=g)
    assert 4.0 * hover_thrust_per_rotor(p) == m * g
