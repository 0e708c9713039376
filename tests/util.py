"""Shared test helpers: vector-scale-relative comparison, an exact rank,
and hypothesis strategies for physical parameters, force quadruples and
sparse integer matrices."""

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


def fraction_matmul(a, b):
    """a b for nested lists of exact numbers (Fraction or int)."""
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(len(b[0]))]
            for row in a]


def fraction_nilpotency(a):
    """Smallest k <= max(n, 1) with A^k = 0 in exact rationals, or None,
    by full powers, for the rows of a square matrix of floats or ints."""
    a = [[Fraction(x) for x in row] for row in a]
    power = a
    for k in range(1, max(len(a), 1) + 1):
        if not any(map(any, power)):
            return k
        power = fraction_matmul(power, a)
    return None


# mostly zeros and units, so that rows depend and products cancel, with a
# few entries beyond float64's integers
sparse_ints = st.just(0) | st.integers(-2, 2) | st.integers(-(2**70), 2**70)


def int_matrices(rows, cols):
    """Integer matrices of the given shape, entries from sparse_ints."""
    return st.lists(st.lists(sparse_ints, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


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
