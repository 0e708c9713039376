import numpy as np
import pytest
from hypothesis import given

from quadmodel import (
    CHAINS_3DOF,
    CHAINS_6DOF,
    DOF3_INPUT_LABELS,
    DOF3_OUTPUT_LABELS,
    DOF3_STATE_LABELS,
    DOF6_INPUT_LABELS,
    DOF6_OUTPUT_LABELS,
    DOF6_STATE_LABELS,
    NonPositiveParameter,
    QuadParams,
    RotorForces,
    build_3dof,
    build_6dof,
    char_poly,
    mix,
    nilpotency_index,
)
from util import assert_close, quad_params


def expected_3dof(p):
    A = np.zeros((6, 6))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    B = np.zeros((6, 4))
    B[3, 1], B[3, 3] = p.d / p.Ix, -p.d / p.Ix
    B[4, 0], B[4, 2] = p.d / p.Iy, -p.d / p.Iy
    B[5] = [-p.c / p.Iz, p.c / p.Iz, -p.c / p.Iz, p.c / p.Iz]
    C = np.hstack([np.eye(3), np.zeros((3, 3))])
    D = np.zeros((3, 4))
    return A, B, C, D


def expected_6dof(p):
    A = np.zeros((12, 12))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    A[3, 7] = -p.g
    A[4, 6] = p.g
    A[6, 9] = A[7, 10] = A[8, 11] = 1.0
    B = np.zeros((12, 4))
    B[5, 0] = 1.0 / p.m
    B[9, 1] = 1.0 / p.Ix
    B[10, 2] = 1.0 / p.Iy
    B[11, 3] = 1.0 / p.Iz
    C = np.eye(12)[[0, 1, 2, 6, 7, 8]]
    D = np.zeros((6, 4))
    return A, B, C, D


@given(p=quad_params)
def test_3dof_matches_closed_form_bitwise(p):
    m = build_3dof(p)
    for built, want in zip((m.A, m.B, m.C, m.D), expected_3dof(p)):
        assert np.array_equal(built, want)


@given(p=quad_params)
def test_6dof_matches_closed_form_bitwise(p):
    m = build_6dof(p)
    for built, want in zip((m.A, m.B, m.C, m.D), expected_6dof(p)):
        assert np.array_equal(built, want)


def test_3dof_shape_and_labels(params):
    m = build_3dof(params)
    assert (m.n, m.p, m.q) == (6, 4, 3)
    assert m.state_labels == DOF3_STATE_LABELS
    assert m.input_labels == DOF3_INPUT_LABELS
    assert m.output_labels == DOF3_OUTPUT_LABELS


def test_6dof_shape_and_labels(params):
    m = build_6dof(params)
    assert (m.n, m.p, m.q) == (12, 4, 6)
    assert m.state_labels == DOF6_STATE_LABELS
    assert m.input_labels == DOF6_INPUT_LABELS
    assert m.output_labels == DOF6_OUTPUT_LABELS


def test_3dof_frozen_entries():
    p = QuadParams(m=1.0, d=0.2, c=0.01, Ix=0.1, Iy=0.01, Iz=0.02, g=9.81)
    m = build_3dof(p)
    assert m.A[0, 3] == 1.0
    assert np.all(m.A[3] == 0.0)
    assert m.B[3, 1] == 2.0 and m.B[3, 3] == -2.0
    assert np.array_equal(m.B[5], [-0.5, 0.5, -0.5, 0.5])


def test_6dof_frozen_entries():
    p = QuadParams(m=2.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)
    m = build_6dof(p)
    assert m.A[3, 7] == -9.81 and m.A[4, 6] == 9.81
    assert m.B[5, 0] == 0.5
    assert np.all(m.B[:5, 0] == 0.0) and np.all(m.B[6:, 0] == 0.0)
    assert m.B[11, 3] == 50.0


def test_builders_validate_params(params):
    bad = QuadParams(m=0.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02)
    with pytest.raises(NonPositiveParameter):
        build_3dof(bad)
    with pytest.raises(NonPositiveParameter):
        build_6dof(bad)


@given(p=quad_params)
def test_nilpotency_structure(p):
    m3, m6 = build_3dof(p), build_6dof(p)
    assert nilpotency_index(m3.A) == 2
    assert nilpotency_index(m6.A) == 4
    # the cube keeps the position<-velocity<-tilt chain alive when g != 0
    cube = np.linalg.matrix_power(m6.A, 3)
    assert np.max(np.abs(cube)) > 0.0


def test_open_loop_spectra_are_all_zero(params):
    c3 = char_poly(build_3dof(params).A)
    c6 = char_poly(build_6dof(params).A)
    assert c3[0] == 1.0 and np.max(np.abs(c3[1:])) <= 1e-12
    assert c6[0] == 1.0 and np.max(np.abs(c6[1:])) <= 1e-12


@given(p=quad_params)
def test_3dof_input_matrix_agrees_with_force_algebra(p):
    m = build_3dof(p)
    rng = np.random.default_rng(0)
    f = rng.uniform(-10, 10, size=4)
    u = mix(RotorForces(*f), p)
    via_b = m.B @ f
    expected = np.array([0.0, 0.0, 0.0, u.u2 / p.Ix, u.u3 / p.Iy, u.u4 / p.Iz])
    assert_close(via_b, expected, rel=1e-12)


# ---------------------------------------------------------------- chain tables


@pytest.mark.parametrize("chains,n", [(CHAINS_6DOF, 12), (CHAINS_3DOF, 6)], ids=["6dof", "3dof"])
def test_chain_tables_partition_the_states(chains, n):
    states = [s for ch in chains for s in ch.states]
    assert sorted(states) == list(range(n))
    assert sorted(ch.input_row for ch in chains) == list(range(4 - len(chains), 4))


@given(p=quad_params)
def test_entries_outside_the_chain_blocks_are_zero(p):
    # the 6DOF input is U, one entry per chain; the 3DOF input is F, via the mixer
    for m, chains, one_input in ((build_6dof(p), CHAINS_6DOF, True),
                                 (build_3dof(p), CHAINS_3DOF, False)):
        a_mask = np.zeros(m.A.shape, dtype=bool)
        b_mask = np.zeros(m.B.shape, dtype=bool)
        for ch in chains:
            block = np.ix_(ch.states, ch.states)
            a_mask[block] = True
            b_mask[list(ch.states), ch.input_row if one_input else slice(None)] = True
        assert np.all(m.A[~a_mask] == 0.0) and np.all(m.B[~b_mask] == 0.0)
        # within a chain, each state integrates the next and only the last is driven
        for ch in chains:
            s = ch.states
            sub = m.A[np.ix_(s, s)]
            assert np.array_equal(sub != 0.0, np.eye(len(s), k=1, dtype=bool))
            assert np.all(m.B[list(s[:-1])] == 0.0)
