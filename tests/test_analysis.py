import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmodel import (
    CHAINS_3DOF,
    CHAINS_6DOF,
    MARGINAL_OR_UNSTABLE,
    STRICTLY_STABLE,
    QuadParams,
    StateSpaceModel,
    analyze,
    build_3dof,
    build_6dof,
    controllability_matrix,
    controllability_rank,
    nilpotency_index,
    observability_matrix,
    observability_rank,
)
from quadmodel.analysis import _kalman_rank
from quadmodel.linalg import char_poly_ints, int_rows, is_hurwitz_ints, rounded_poly
from util import (fraction_matmul, fraction_nilpotency, fraction_rank, int_matrices, log_uniform,
                  quad_params, sparse_ints, wide_params)


def _with_matrices(m, A=None, B=None, C=None):
    return StateSpaceModel(
        A=m.A if A is None else A,
        B=m.B if B is None else B,
        C=m.C if C is None else C,
        D=m.D,
        state_labels=m.state_labels,
        input_labels=m.input_labels,
        output_labels=m.output_labels,
    )


def test_full_rank_for_example_params(params):
    m3, m6 = build_3dof(params), build_6dof(params)
    assert controllability_rank(m6) == 12
    assert observability_rank(m6) == 12
    assert controllability_rank(m3) == 6
    assert observability_rank(m3) == 6
    # numpy's SVD rank on the same Kalman matrices as independent oracle
    assert np.linalg.matrix_rank(controllability_matrix(m6)) == 12
    assert np.linalg.matrix_rank(observability_matrix(m6)) == 12


@given(p=quad_params)
def test_full_rank_for_random_params(p):
    m3, m6 = build_3dof(p), build_6dof(p)
    assert controllability_rank(m6) == observability_rank(m6) == 12
    assert controllability_rank(m3) == observability_rank(m3) == 6


def test_zero_input_matrix_gives_rank_zero(params):
    m = build_6dof(params)
    assert controllability_rank(_with_matrices(m, B=np.zeros((12, 4)))) == 0


def test_full_state_measurement_gives_rank_n(params):
    m = build_6dof(params)
    full = StateSpaceModel(
        A=m.A, B=m.B, C=np.eye(12), D=np.zeros((12, 4)),
        state_labels=m.state_labels, input_labels=m.input_labels,
        output_labels=m.state_labels,
    )
    assert observability_rank(full) == 12


def test_losing_yaw_input_drops_rank_to_ten(params):
    m = build_6dof(params)
    b = np.array(m.B)
    b[:, 3] = 0.0
    crippled = _with_matrices(m, B=b)
    assert controllability_rank(crippled) == 10
    assert np.linalg.matrix_rank(controllability_matrix(crippled)) == 10


def test_position_only_measurement_loses_yaw(params):
    # positions alone recover velocities and tilt through the dynamics,
    # but nothing feeds back from psi: rank drops by exactly 2
    m = build_6dof(params)
    c = np.array(m.C)
    c[3:, :] = 0.0
    assert observability_rank(_with_matrices(m, C=c)) == 10


def test_rank_invariant_under_column_rescaling(params):
    m = build_6dof(params)
    scaled = _with_matrices(m, B=np.array(m.B) * np.array([3.0, 0.25, 40.0, 1e3]))
    assert controllability_rank(scaled) == 12


def test_analyze_6dof(params):
    rep = analyze(build_6dof(params))
    assert rep.controllability_rank == 12
    assert rep.observability_rank == 12
    assert rep.is_controllable and rep.is_observable
    assert rep.stability_class == MARGINAL_OR_UNSTABLE
    assert rep.nilpotency_index == 4
    poly = np.asarray(rep.open_loop_char_poly)
    assert poly[0] == 1.0 and np.max(np.abs(poly[1:])) <= 1e-12


def test_analyze_3dof(params):
    rep = analyze(build_3dof(params))
    assert rep.controllability_rank == rep.observability_rank == 6
    assert rep.stability_class == MARGINAL_OR_UNSTABLE
    assert rep.nilpotency_index == 2


def test_analyze_stable_toy_system():
    toy = StateSpaceModel(
        A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
        state_labels=("a", "b"), input_labels=("u1", "u2"), output_labels=("a", "b"),
    )
    rep = analyze(toy)
    assert rep.stability_class == STRICTLY_STABLE
    assert rep.is_controllable and rep.is_observable
    assert rep.nilpotency_index is None


@given(p=quad_params)
def test_paper_models_are_never_strictly_stable(p):
    assert analyze(build_3dof(p)).stability_class == MARGINAL_OR_UNSTABLE
    assert analyze(build_6dof(p)).stability_class == MARGINAL_OR_UNSTABLE


@pytest.mark.parametrize("scale, verdict", [(-1e200, STRICTLY_STABLE), (1e200, MARGINAL_OR_UNSTABLE)])
def test_analyze_decides_stability_where_the_coefficients_overflow(scale, verdict):
    # (lambda - a)^2 = lambda^2 - 2 a lambda + a^2, and a^2 = 1e400 is no float64
    toy = StateSpaceModel(
        A=scale * np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
        state_labels=("a", "b"), input_labels=("u1", "u2"), output_labels=("a", "b"),
    )
    rep = analyze(toy)
    assert rep.stability_class == verdict
    assert rep.open_loop_char_poly == (1.0, -2.0 * scale, math.inf)
    assert (rep.controllability_rank, rep.observability_rank, rep.nilpotency_index) == (2, 2, None)


# ---------------------------------------------------------------- exact oracles


def fraction_kalman(a, b):
    """[B, AB, ..., A^(n-1) B] of the stored float64 entries, in exact rationals."""
    a = [[Fraction(x) for x in row] for row in a.tolist()]
    block = [[Fraction(x) for x in row] for row in b.tolist()]
    blocks = []
    for _ in a:
        blocks.append(block)
        block = fraction_matmul(a, block)
    return [sum((blk[i] for blk in blocks), []) for i in range(len(a))]


@st.composite
def kalman_pairs(draw):
    """An integer A (n x n) and up to 5 rows b of width n: zero rows, a
    combination of two drawn rows, and b A^k that cancel to 0 are common."""
    n = draw(st.integers(1, 6))
    a, b = draw(int_matrices(n, n)), draw(int_matrices(draw(st.integers(0, 4)), n))
    if len(b) >= 2:
        x, y = draw(sparse_ints), draw(sparse_ints)
        b.append([x * u + y * v for u, v in zip(b[0], b[1])])
    return a, b


@settings(max_examples=200, deadline=None)
@given(ab=kalman_pairs())
@example(ab=([[1, 1], [-1, -1]], [[1, 1], [0, 0]]))  # b A = 0 by cancellation, a zero row
@example(ab=([[0, 1], [0, 0]], [[1, 0], [2, 0]]))  # a dependent row whose image is not 0
@example(ab=([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
             [[1, 0, 0, 0], [0, 0, 1, 0]]))  # two chains, one row each: both carried
def test_kalman_rank_is_the_exact_rank_of_the_krylov_rows(ab):
    # [b; b A; ...; b A^(n-1)] in full, against the accepted rows carried forward
    a, b = ab
    rows, block = [], b
    for _ in a:
        rows, block = rows + block, fraction_matmul(block, a)
    assert _kalman_rank(int_rows(a)[0], int_rows(b)[0]) == fraction_rank(rows)


def desk(**changes):
    return QuadParams(**{**dict(m=1.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81),
                         **changes})


# parameter sets validate accepts on which the float ranks and nilpotency
# index read 8/12/4, 4/12/4, 10/12/4, 8/12/2 and 4/4/4 on 6DOF (and 4, 2, 6,
# 6 and 4 for the 3DOF controllability rank)
TABLE = [desk(Ix=1e8), desk(Ix=1e-12), desk(m=1e12), desk(g=1e-13),
         desk(d=1e200, g=1e200, Ix=1.0, Iy=1.0)]


def with_table(test):
    """test, with each parameter set of TABLE as an explicit example."""
    for p in TABLE:
        test = example(p=p)(test)
    return test


def driven(m) -> bool:
    """Every chain of the stored model has a nonzero input row: in 3DOF,
    d/Ix, d/Iy or c/Iz can underflow to 0 for parameters validate accepts."""
    chains = CHAINS_6DOF if m.n == 12 else CHAINS_3DOF
    return all(m.B[ch.states[-1]].any() for ch in chains)


@settings(max_examples=40, deadline=None)
@given(p=wide_params)
@with_table
@example(p=desk(d=1e-200, Ix=1e200))  # 3DOF: d/Ix = 1e-400 is stored as 0
def test_ranks_are_exact_over_the_whole_parameter_range(p):
    for m in (build_6dof(p), build_3dof(p)):
        ctrb, obsv = controllability_rank(m), observability_rank(m)
        assert ctrb == fraction_rank(fraction_kalman(m.A, m.B))
        assert obsv == fraction_rank(fraction_kalman(m.A.T, m.C.T)) == m.n
        assert (ctrb == m.n) == driven(m)
        assert driven(m) or m.n == 6


@settings(max_examples=100, deadline=None)
@given(p=wide_params)
@with_table
def test_nilpotency_and_stability_are_exact_over_the_whole_parameter_range(p):
    for m, index in ((build_6dof(p), 4), (build_3dof(p), 2)):
        assert nilpotency_index(m.A) == fraction_nilpotency(m.A) == index
        rep = analyze(m)
        assert rep.nilpotency_index == index
        assert rep.open_loop_char_poly == (1.0,) + (0.0,) * m.n
        assert rep.stability_class == MARGINAL_OR_UNSTABLE


def composed_report(m) -> dict:
    """analyze's fields from the public functions, each of which converts
    the matrices to integers on its own."""
    ctrb, obsv = controllability_rank(m), observability_rank(m)
    coeffs, s = char_poly_ints(m.A.tolist())
    return dict(
        controllability_rank=ctrb, observability_rank=obsv,
        is_controllable=ctrb == m.n, is_observable=obsv == m.n,
        open_loop_char_poly=tuple(rounded_poly(coeffs, s)),
        stability_class=STRICTLY_STABLE if is_hurwitz_ints(coeffs) else MARGINAL_OR_UNSTABLE,
        nilpotency_index=nilpotency_index(m.A),
    )


@settings(max_examples=60, deadline=None)
@given(p=wide_params)
@with_table
@example(p=desk(d=1e-200, Ix=1e200))
def test_analyze_is_the_composition_of_the_public_functions(p):
    for m in (build_6dof(p), build_3dof(p)):
        assert vars(analyze(m)) == composed_report(m)


# an entry: 0, a small integer, or a sign times any positive float64
entry = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                  st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), log_uniform))


def small_models(n):
    """Models of n states, 1 or 2 inputs and outputs, with A, B and C
    drawn from entry: mostly dense, so A has entries on both sides of its
    diagonal and its polynomial forms the products R M^k C of most rows."""
    def matrix(rows, cols):
        return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
            lambda v: np.array(v).reshape(rows, cols))

    labels = tuple(f"x{i}" for i in range(n))
    return st.integers(1, 2).flatmap(lambda k: st.builds(
        StateSpaceModel, A=matrix(n, n), B=matrix(n, k), C=matrix(k, n),
        D=st.just(np.zeros((k, k))), state_labels=st.just(labels),
        input_labels=st.just(("u0", "u1")[:k]), output_labels=st.just(("y0", "y1")[:k])))


DENSE = StateSpaceModel(
    A=[[1.0, 2.0, 3.0], [-1e300, 0.0, 5e-324], [4.0, -2.0, 1e-10]], B=[[1.0], [0.0], [0.0]],
    C=[[0.0, 0.0, 1.0]], D=[[0.0]], state_labels=("a", "b", "c"), input_labels=("u",),
    output_labels=("y",))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 4).flatmap(small_models))
@example(m=DENSE)
def test_analyze_is_the_composition_on_small_dense_models(m):
    assert vars(analyze(m)) == composed_report(m)
