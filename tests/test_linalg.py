import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from quadmodel import (
    DimensionMismatch,
    NotNilpotent,
    NotSquare,
    StateSpaceModel,
    char_poly,
    expm_nilpotent,
    is_hurwitz,
    nilpotency_index,
    rank,
)
from util import assert_close

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


def test_char_poly_size_guard():
    with pytest.raises(NotSquare):
        char_poly(np.eye(17))


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
