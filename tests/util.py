"""Shared test helpers: vector-scale-relative comparison, an exact rank,
and hypothesis strategies for physical parameters and force quadruples."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from quadmodel import ParameterError, QuadParams, RotorForces, validate


def assert_close(actual, expected, rel=1e-12, floor=1.0):
    """Assert max|actual - expected| <= rel * max(floor, max|expected|).

    Relative to the vector's scale, not per component: the quantities here
    (forces, states) are vectors whose near-zero components would make a
    per-component relative test meaninglessly strict.
    """
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    scale = max(floor, float(np.max(np.abs(e))) if e.size else floor)
    err = float(np.max(np.abs(a - e))) if a.size else 0.0
    assert err <= rel * scale, f"max err {err:.3e} > {rel:.0e} * scale {scale:.3e}"


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination in exact rationals."""
    m, r = [[Fraction(x) for x in row] for row in rows], 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is not None:
            m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, len(m)):
                if m[i][col]:
                    f = m[i][col] / m[r][col]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            r += 1
    return r


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

positive_params = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)

quad_params = st.builds(
    QuadParams,
    m=positive_params,
    d=positive_params,
    c=positive_params,
    Ix=positive_params,
    Iy=positive_params,
    Iz=positive_params,
    g=positive_params,
)

# a mantissa in [0.5, 1) times 2^e for every exponent e of a positive
# float64, subnormals included: log-uniform over the whole range
log_uniform = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024))


def _accepted(p: QuadParams) -> bool:
    try:
        validate(p)
    except ParameterError:
        return False
    return True


# every parameter set validate accepts, at any scale
wide_params = st.builds(
    QuadParams, m=log_uniform, d=log_uniform, c=log_uniform, Ix=log_uniform,
    Iy=log_uniform, Iz=log_uniform, g=log_uniform,
).filter(_accepted)

force_component = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)

rotor_forces = st.builds(
    RotorForces, f1=force_component, f2=force_component,
    f3=force_component, f4=force_component,
)
