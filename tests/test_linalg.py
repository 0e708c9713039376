import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from quadmodel import (
    DimensionMismatch,
    NotNilpotent,
    NotSquare,
    PoleSpec,
    QuadParams,
    StateSpaceModel,
    build_3dof,
    build_6dof,
    char_poly,
    controllability_matrix,
    design_6dof_gains,
    expm_nilpotent,
    is_hurwitz,
    nilpotency_index,
    observability_matrix,
    poles_to_monic,
    rank,
)
from util import assert_close, quad_params

SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------- rank


def test_rank_basic():
    assert rank(np.eye(6)) == 6
    assert rank(np.zeros((4, 4))) == 0
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        rank(np.eye(2), rel_tol=0.0)


def test_rank_of_constructed_low_rank_matrices():
    # sum of r rank-1 outer products in general position has rank exactly r;
    # numpy's SVD rank is the independent oracle
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = int(rng.integers(0, 5))
        m = np.zeros((4, 4))
        for _ in range(r):
            m += np.outer(rng.normal(size=4), rng.normal(size=4))
        assert rank(m) == r == np.linalg.matrix_rank(m)


def test_rank_wide_and_tall():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 8))
    assert rank(m) == 3
    assert rank(m.T) == 3


def reference_rank(a, rel_tol=1e-9):
    """The numpy row reduction rank used before the scalar elimination:
    whole-row updates, zeros included."""
    m = np.array(a, dtype=float)
    if m.size == 0:
        return 0
    thresh = rel_tol * max(1.0, float(np.max(np.abs(m))))
    rows, cols = m.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(m[r:, col])))
        if abs(m[piv, col]) <= thresh:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        factors = m[r + 1 :, col] / m[r, col]
        m[r + 1 :, col:] -= np.outer(factors, m[r, col:])
        r += 1
    return r


# exact ties, signed zeros and near-threshold entries, mixed with any float
rank_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e-9, -1e-9, 1e-12]),
    st.floats(-1e3, 1e3),
)
rank_tols = st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5])


@settings(max_examples=300)
@given(a=arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=rank_entries),
       rel_tol=rank_tols)
def test_rank_matches_reference_elimination(a, rel_tol):
    assert rank(a, rel_tol) == reference_rank(a, rel_tol)


def factor_pairs(k):
    return st.tuples(
        arrays(float, st.tuples(st.integers(1, 10), st.just(k)), elements=rank_entries),
        arrays(float, st.tuples(st.just(k), st.integers(1, 10)), elements=rank_entries),
    )


@settings(max_examples=200)
@given(factors=st.integers(1, 4).flatmap(factor_pairs), rel_tol=rank_tols)
def test_rank_of_products_matches_reference(factors, rel_tol):
    u, v = factors
    a = u @ v  # rank-deficient whenever the inner size is the smaller
    assert rank(a, rel_tol) == reference_rank(a, rel_tol)
    assert rank(a.T, rel_tol) == reference_rank(a.T, rel_tol)


@settings(max_examples=50, deadline=None)
@given(p=quad_params, rel_tol=rank_tols)
def test_rank_of_kalman_matrices_matches_reference(p, rel_tol):
    for model in (build_6dof(p), build_3dof(p)):
        for a in (controllability_matrix(model), observability_matrix(model)):
            assert rank(a, rel_tol) == reference_rank(a, rel_tol)


def test_rank_breaks_pivot_ties_on_the_first_row():
    # rows 1 and 2 tie in column 0 with row 0; at a tolerance near the
    # rounding the first-maximum pivot leaves rank 2, the last one 3
    a = [[-1.0, -1.0, 0.0], [1.0, 0.1, 1.0], [1.0, 0.1, 1.0], [0.1, 1.0, -1.0]]
    assert rank(a, 2e-16) == reference_rank(a, 2e-16) == 2


def test_rank_rejects_non_finite_matrix():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            rank([[1.0, bad], [0.0, 1.0]])


# ---------------------------------------------------------------- nilpotency


def test_nilpotency_index_basic():
    assert nilpotency_index(np.zeros((3, 3))) == 1
    assert nilpotency_index(SHEAR) == 2
    assert nilpotency_index(np.eye(2)) is None


def test_nilpotency_index_requires_square():
    with pytest.raises(NotSquare):
        nilpotency_index(np.zeros((2, 3)))


def test_nilpotency_of_random_strict_triangles():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        a = np.triu(rng.normal(size=(n, n)), k=1)
        k = nilpotency_index(a)
        assert k is not None and k <= n
        powers = np.linalg.matrix_power(a, k)
        assert np.max(np.abs(powers)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------- expm


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm_nilpotent(np.zeros((3, 3)), 1.7), np.eye(3))


def test_expm_shear():
    assert np.array_equal(expm_nilpotent(SHEAR, 2.0), [[1.0, 2.0], [0.0, 1.0]])


def test_expm_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        expm_nilpotent(np.eye(2), 1.0)


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = np.triu(rng.normal(size=(5, 5)), k=1)
        t1, t2 = rng.uniform(-2, 2, size=2)
        left = expm_nilpotent(a, t1) @ expm_nilpotent(a, t2)
        assert_close(left, expm_nilpotent(a, t1 + t2), rel=1e-12)


def test_expm_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = np.triu(rng.normal(size=(6, 6)), k=1)
        t = rng.uniform(-1.5, 1.5)
        assert_close(expm_nilpotent(a, t), scipy.linalg.expm(a * t), rel=1e-10)


# ---------------------------------------------------------------- char_poly


def test_char_poly_identity():
    assert_close(char_poly(np.eye(2)), [1.0, -2.0, 1.0], rel=1e-14)


def test_char_poly_nilpotent_is_lambda_n():
    rng = np.random.default_rng(5)
    a = np.triu(rng.normal(size=(5, 5)), k=1)
    coeffs = char_poly(a)
    assert coeffs[0] == 1.0
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_char_poly_hand_example():
    assert_close(char_poly([[0, 1], [-2, -3]]), [1.0, 3.0, 2.0], rel=1e-14)


def test_char_poly_matches_numpy_oracle():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 8):
        a = rng.normal(size=(n, n))
        assert_close(char_poly(a), np.poly(a), rel=1e-9)


def test_char_poly_constant_term_is_signed_determinant():
    rng = np.random.default_rng(19)
    for n in (2, 3, 6):
        a = rng.normal(size=(n, n))
        cn = char_poly(a)[-1]
        assert cn == pytest.approx((-1.0) ** n * np.linalg.det(a), rel=1e-10)


def test_char_poly_of_block_diagonal_is_product():
    rng = np.random.default_rng(23)
    for _ in range(20):
        b1 = rng.normal(size=(2, 2))
        b2 = rng.normal(size=(2, 2))
        block = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
        product = np.convolve(char_poly(b1), char_poly(b2))
        assert_close(char_poly(block), product, rel=1e-10)


def test_char_poly_of_a_20_state_shift_is_lambda_to_the_20():
    expected = np.zeros(21)
    expected[0] = 1.0
    assert char_poly(np.eye(20, k=1)).tolist() == expected.tolist()


def fraction_char_poly(a) -> list[float]:
    """Faddeev-LeVerrier in exact rationals, each coefficient rounded once
    (float of a Fraction is correctly rounded), +-inf where it overflows."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    m, exact = [[Fraction(0)] * n for _ in range(n)], [Fraction(1)]
    live = [[l for l in range(n) if a[i][l]] for i in range(n)]  # skip exact zeros
    for k in range(1, n + 1):  # M_k = A M_(k-1) + c_(k-1) I, c_k = -tr(A M_k) / k
        m = [[sum(a[i][l] * m[l][j] for l in live[i]) + (exact[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        exact.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in live[i]) / k)
    out = []
    for v in exact:
        try:
            out.append(float(v))
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    return out


# exact zeros, desk-scale entries and entries of any exponent, mixed
matrix_entry = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-40, 40)),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 12).flatmap(lambda n: st.lists(
    matrix_entry, min_size=n * n, max_size=n * n).map(
        lambda v: [v[i : i + n] for i in range(0, n * n, n)])))
@example(a=[[1e200, 0.0], [0.0, 1e200]])  # c2 = 1e400 overflows to inf
@example(a=[[0.0, 1e300], [1e300, 0.0]])  # c2 = -1e600 to -inf
@example(a=[[5e-324, 0.0], [0.0, -5e-324]])  # c2 underflows to -0.0, returned as +0.0
def test_char_poly_is_the_exact_polynomial_rounded_once(a):
    assert char_poly(a).tolist() == fraction_char_poly(a)


@pytest.mark.parametrize("z_yaw", [(-1, -1), (-0.5, -0.5)])
def test_char_poly_of_the_pinned_6dof_loops_is_correctly_rounded(z_yaw):
    # the float recursion lost 1.1e-8 and 5.9e-8 relative on these loops
    p = QuadParams(m=1.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)
    spec = PoleSpec(z=z_yaw, roll=(-1, -1, -4, -5), pitch=(-1, -1, -0.5, -0.5), yaw=z_yaw)
    m = build_6dof(p)
    closed = m.A - m.B @ design_6dof_gains(p, spec).K
    assert char_poly(closed).tolist() == fraction_char_poly(closed.tolist())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_char_poly_rejects_a_non_finite_matrix(bad):
    with pytest.raises(ValueError, match=r"^char_poly needs a finite matrix$"):
        char_poly([[1.0, bad], [0.0, 1.0]])


# ---------------------------------------------------------------- is_hurwitz


def test_is_hurwitz_examples():
    assert is_hurwitz([1, 3, 2]) is True          # roots -1, -2
    assert is_hurwitz([1, 0, -1]) is False        # root at +1
    assert is_hurwitz([1.0] + [0.0] * 12) is False  # all roots at the origin


def test_is_hurwitz_degree_one():
    assert is_hurwitz([1, 2]) is True
    assert is_hurwitz([1, -2]) is False
    assert is_hurwitz([1, 0]) is False


def test_is_hurwitz_zero_pivot_cases():
    # s^4 + s^3 + 2 s^2 + 2 s + 1: zero leading pivot mid-table
    assert is_hurwitz([1, 1, 2, 2, 1]) is False
    # s^3 + s^2 + s + 1 = (s+1)(s^2+1): zero row, roots on the axis
    assert is_hurwitz([1, 1, 1, 1]) is False


def test_is_hurwitz_rejects_degenerate_input():
    with pytest.raises(ValueError):
        is_hurwitz([1.0])
    with pytest.raises(ValueError):
        is_hurwitz([0.0, 1.0])


def reference_is_hurwitz(coeffs) -> bool:
    """The Routh array that substituted 1e-30 for a zero pivot and ran to
    the last row before it judged the first column, in exact rationals, so
    that its products neither underflow nor overflow."""
    c = [Fraction(v) for v in np.asarray(coeffs, dtype=float).ravel().tolist()]
    c = [v / c[0] for v in c]
    n = len(c) - 1
    width = n // 2 + 1
    table = [row + [Fraction(0)] * (width + 1 - len(row)) for row in (c[0::2], c[1::2])]
    for _ in range(2, n + 1):
        prev2, prev = table[-2], table[-1]
        if not any(prev):
            return False
        pivot = prev[0] if prev[0] != 0 else Fraction(1e-30)
        table.append([(pivot * prev2[j + 1] - prev2[0] * prev[j + 1]) / pivot
                      for j in range(width)] + [Fraction(0)])
    return all(row[0] > 0 for row in table)


# zero coefficients often, so that zero pivots and zero rows come up
routh_coeff = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0]), st.floats(-10, 10))


@settings(max_examples=300)
@given(head=st.floats(0.1, 10) | st.floats(-10, -0.1),
       tail=st.lists(routh_coeff, min_size=1, max_size=12))
@example(head=1.0, tail=[4e-206, 4e-206])  # Hurwitz; 4e-206 squared underflows float64
@example(head=2.0, tail=[5e-324])  # Hurwitz; 5e-324 / 2 rounds to 0
def test_is_hurwitz_matches_reference_routh(head, tail):
    assert is_hurwitz([head] + tail) == reference_is_hurwitz([head] + tail)


@settings(max_examples=300)
@given(roots=st.lists(st.tuples(st.floats(0.1, 5) | st.floats(-5, -0.1), st.floats(0, 5)),
                      min_size=1, max_size=6),
       exponent=st.sampled_from([0]) | st.integers(-20, 20))
@example(roots=[(-1.0, 0.5)] * 6, exponent=-15)
@example(roots=[(-1.0, 0.5)] * 6, exponent=15)
def test_is_hurwitz_decides_known_roots(roots, exponent):
    # real roots and conjugate pairs, degree 1 to 12, every real part at
    # least 0.1 away from the axis, then scaled by 1e-20..1e20, where the
    # products of an unnormalized Routh array would underflow or overflow
    poles = []
    for re, im in roots:
        poles += [complex(re, im), complex(re, -im)] if im > 0.0 else [complex(re, 0.0)]
    scaled = [s * 10.0**exponent for s in poles]
    assert is_hurwitz(poles_to_monic(scaled)) == all(s.real < 0.0 for s in poles)


def test_is_hurwitz_zero_coefficients():
    for n in range(1, 13):
        assert is_hurwitz([1.0] + [0.0] * n) is False      # every root at 0
        assert is_hurwitz([1.0] + [1.0] * (n - 1) + [0.0]) is False  # a root at 0
    assert is_hurwitz([1.0, 0.0, 1.0]) is False               # roots +-i
    assert is_hurwitz([1.0, 2.0, 0.0, 1.0]) is False          # missing middle term


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_is_hurwitz_matches_quadratic_formula(a, b):
    # quadratic s^2 + a s + b: real parts from the explicit root formula
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        reals = [(-a + disc**0.5) / 2.0, (-a - disc**0.5) / 2.0]
    else:
        reals = [-a / 2.0, -a / 2.0]
    assume(min(abs(r) for r in reals) > 1e-9)  # keep every root off the axis
    assert is_hurwitz([1.0, a, b]) == all(r < 0.0 for r in reals)


@given(a=st.floats(-4, 4), b=st.floats(-4, 4), c=st.floats(-4, 4))
def test_is_hurwitz_matches_cubic_roots(a, b, c):
    roots = np.roots([1.0, a, b, c])
    assume(np.min(np.abs(roots.real)) > 1e-6)
    assert is_hurwitz([1.0, a, b, c]) == bool(np.all(roots.real < 0.0))


# ---------------------------------------------------------------- StateSpaceModel


def _tiny_model():
    return StateSpaceModel(
        A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
        state_labels=("x1", "x2"), input_labels=("u1", "u2"),
        output_labels=("y1", "y2"),
    )


def test_state_space_dimensions_and_labels():
    m = _tiny_model()
    assert (m.n, m.p, m.q) == (2, 2, 2)
    assert m.state_labels == ("x1", "x2")


def test_state_space_ops():
    m = _tiny_model()
    x = np.array([1.0, 2.0])
    u = np.array([0.5, 0.0])
    assert np.array_equal(m.deriv(x, u), -x + u)
    assert np.array_equal(m.output(x, u), x)


def test_state_space_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        StateSpaceModel(
            A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
            D=np.zeros((1, 1)), state_labels=("a", "b"),
            input_labels=("u",), output_labels=("y",),
        )
    with pytest.raises(DimensionMismatch):
        StateSpaceModel(
            A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
            D=np.zeros((1, 1)), state_labels=("a",),
            input_labels=("u",), output_labels=("y",),
        )


def test_state_space_matrices_are_frozen():
    m = _tiny_model()
    with pytest.raises(ValueError):
        m.A[0, 0] = 5.0
