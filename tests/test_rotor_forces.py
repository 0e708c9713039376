import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadmodel import (
    GeneralizedInput,
    QuadParams,
    RotorForces,
    build_6dof,
    demix,
    hover_thrust_per_rotor,
    is_physical,
    mix,
    mixer,
    mixer_inverse,
)
from quadmodel.rotor_forces import mixer_inverse_rows, mixer_rows
from util import assert_close, force_component, quad_params, rotor_forces

P_WIDE = QuadParams(m=1.0, d=0.3, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)


def _p(**kw):
    base = dict(m=1.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)
    base.update(kw)
    return QuadParams(**base)


# ---------------------------------------------------------------- torques


def _roll(f, p):
    return mix(f, p).u2


def _pitch(f, p):
    return mix(f, p).u3


def _yaw(f, p):
    return mix(f, p).u4


def _thrust(f, p):
    return mix(f, p).u1 + p.m * p.g


def test_roll_torque():
    assert _roll(RotorForces(5, 5, 5, 5), _p(d=0.3)) == 0.0
    assert _roll(RotorForces(0, 2, 0, 1), _p(d=0.3)) == pytest.approx(0.3, rel=1e-15)
    assert _roll(RotorForces(7, 0, 9, 1), _p(d=0.5)) == pytest.approx(-0.5, rel=1e-15)


def test_pitch_torque():
    assert _pitch(RotorForces(5, 5, 5, 5), _p(d=0.3)) == 0.0
    assert _pitch(RotorForces(2, 0, 1, 0), _p(d=0.3)) == pytest.approx(0.3, rel=1e-15)
    assert _pitch(RotorForces(1, 9, 3, 9), _p(d=0.25)) == pytest.approx(-0.5, rel=1e-15)


def test_yaw_torque():
    assert _yaw(RotorForces(5, 5, 5, 5), _p(c=0.01)) == 0.0
    assert _yaw(RotorForces(1, 2, 1, 2), _p(c=0.01)) == pytest.approx(0.02, rel=1e-15)
    assert _yaw(RotorForces(2, 1, 2, 1), _p(c=0.01)) == pytest.approx(-0.02, rel=1e-15)


def test_total_thrust():
    p = _p(m=1.0, g=10.0)
    assert mix(RotorForces(0, 0, 0, 0), p).u1 == -10.0
    assert mix(RotorForces(1, 2, 3, 4), p).u1 == 0.0
    h = hover_thrust_per_rotor(_p())
    assert mix(RotorForces(h, h, h, h), _p()).u1 == 0.0


@given(f=rotor_forces, p=quad_params)
def test_equal_swaps_flip_torque_signs(f, p):
    roll_swapped = RotorForces(f.f1, f.f4, f.f3, f.f2)        # f2 <-> f4
    pitch_swapped = RotorForces(f.f3, f.f2, f.f1, f.f4)       # f1 <-> f3
    pair_swapped = RotorForces(f.f2, f.f1, f.f4, f.f3)        # (f1,f3) <-> (f2,f4)
    assert _roll(roll_swapped, p) == -_roll(f, p)
    assert _pitch(pitch_swapped, p) == -_pitch(f, p)
    # yaw sums four terms, so the swap reassociates the additions
    assert_close(_yaw(pair_swapped, p), -_yaw(f, p), rel=1e-12)
    assert_close(_thrust(roll_swapped, p), _thrust(f, p), rel=1e-12)


@given(v=force_component, p=quad_params)
def test_equal_forces_produce_no_torque(v, p):
    u = mix(RotorForces(v, v, v, v), p)
    assert (u.u2, u.u3, u.u4) == (0.0, 0.0, 0.0)


@given(f=rotor_forces, g=rotor_forces, a=st.floats(-4, 4), b=st.floats(-4, 4), p=quad_params)
def test_pre_offset_map_is_linear(f, g, a, b, p):
    combo = RotorForces(
        a * f.f1 + b * g.f1, a * f.f2 + b * g.f2,
        a * f.f3 + b * g.f3, a * f.f4 + b * g.f4,
    )
    for op in (_thrust, _roll, _pitch, _yaw):
        # the two sides can cancel, so scale the tolerance by the operands
        scale = max(1.0, abs(a * op(f, p)), abs(b * op(g, p)))
        assert_close(op(combo, p), a * op(f, p) + b * op(g, p), rel=1e-12, floor=scale)


# ---------------------------------------------------------------- the mixer matrix


@given(p=quad_params)
def test_mixer_inverse_is_exact(p):
    m, m_inv = mixer(p), mixer_inverse(p)
    for a, b in ((m, m_inv), (m_inv, m)):
        # relative to the summed products: a fused multiply-add leaves the
        # rounding of c/(2d) behind where two such products cancel
        assert np.all(np.abs(a @ b - np.eye(4)) <= 1e-15 * (np.abs(a) @ np.abs(b)))


# the sign pattern S of M = diag(1, d, d, c) S. Rows: total thrust, roll,
# pitch, yaw torque; columns: F1..F4. S S^T = diag(4, 2, 2, 4).
S = (
    (1.0, 1.0, 1.0, 1.0),
    (0.0, 1.0, 0.0, -1.0),
    (1.0, 0.0, -1.0, 0.0),
    (-1.0, 1.0, -1.0, 1.0),
)


def _hex(rows):
    # float.hex tells -0.0 from 0.0, and is equal iff the floats are
    return [[float.hex(v) for v in row] for row in rows]


@given(p=quad_params)
def test_mixer_entries_are_the_scaled_signs_to_the_bit(p):
    scales = (1.0, p.d, p.d, p.c)
    assert _hex(mixer_rows(p)) == _hex([[k * s for s in row] for k, row in zip(scales, S)])
    # M^-1 = S^T diag(1/4, 1/(2d), 1/(2d), 1/(4c))
    inverse_scales = (0.25, 1.0 / (2.0 * p.d), 1.0 / (2.0 * p.d), 1.0 / (4.0 * p.c))
    assert _hex(mixer_inverse_rows(p)) == _hex(
        [[s * k for s, k in zip(col, inverse_scales)] for col in zip(*S)])


@given(f=rotor_forces, p=quad_params)
def test_mix_and_demix_agree_with_the_mixer(f, p):
    offset = np.array([p.m * p.g, 0.0, 0.0, 0.0])
    u = np.array(mix(f, p).as_tuple())
    assert_close(u + offset, mixer(p) @ f.as_tuple(), rel=1e-12)
    back = demix(GeneralizedInput(*u), p).as_tuple()
    assert_close(back, mixer_inverse(p) @ (u + offset), rel=1e-12)


def test_mix_keeps_the_digits_of_near_balanced_rotors():
    p = _p(d=0.3)
    f4 = 3.0 * (1 + 1e-12)
    assert mix(RotorForces(2.5, 3.0, 2.5, f4), p).u2 == p.d * (3.0 - f4)
    assert mix(RotorForces(2.5, 2.5, f4, 3.0), p).u3 == p.d * (2.5 - f4)


# ---------------------------------------------------------------- mix / demix


def test_mix_hover_is_exact_equilibrium():
    p = _p()
    h = hover_thrust_per_rotor(p)
    assert mix(RotorForces(h, h, h, h), p).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_mix_examples():
    p = _p(m=1, g=10, d=0.5, c=0.01)
    assert mix(RotorForces(3, 3, 3, 3), p).as_tuple() == pytest.approx((2, 0, 0, 0))
    # oracle: hand evaluation of T - mg, d(f2-f4), d(f1-f3), c(-f1+f2-f3+f4)
    u = mix(RotorForces(2.5, 3.0, 2.5, 2.0), p)
    assert u.as_tuple() == pytest.approx((0.0, 0.5, 0.0, 0.0), abs=1e-15)


def test_demix_examples():
    assert demix(GeneralizedInput(0, 0, 0, 0), _p()).as_tuple() == (2.4525,) * 4
    p10 = _p(m=1, g=10, d=0.5, c=0.01)
    assert demix(GeneralizedInput(2, 0, 0, 0), p10).as_tuple() == pytest.approx((3, 3, 3, 3))
    # oracle: hand-solved 4x4 system for this input
    f = demix(GeneralizedInput(0, 0.5, 0, -0.005), p10)
    assert f.as_tuple() == pytest.approx((2.625, 2.875, 2.625, 1.875), rel=1e-15)


def test_demix_does_not_clamp():
    # yaw demand large enough to drive two rotors negative
    f = demix(GeneralizedInput(0, 0, 0, 5.0), _p())
    assert not is_physical(f)
    assert f.f1 < 0 and f.f3 < 0


def test_is_physical():
    assert is_physical(RotorForces(0, 0, 0, 0))
    assert is_physical(RotorForces(1, 2, 3, 4))
    assert not is_physical(RotorForces(1, -1e-9, 3, 4))


@given(f=rotor_forces, p=quad_params)
def test_demix_inverts_mix(f, p):
    back = demix(mix(f, p), p)
    assert_close(back.as_tuple(), f.as_tuple(), rel=1e-12)


@given(
    u1=st.floats(-20, 20), u2=st.floats(-20, 20),
    u3=st.floats(-20, 20), u4=st.floats(-20, 20),
    p=quad_params,
)
def test_mix_inverts_demix(u1, u2, u3, u4, p):
    u = GeneralizedInput(u1, u2, u3, u4)
    back = mix(demix(u, p), p)
    assert_close(back.as_tuple(), u.as_tuple(), rel=1e-12)


def test_non_finite_forces_rejected():
    with pytest.raises(ValueError):
        RotorForces(1.0, float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        GeneralizedInput(float("inf"), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- accelerations


def test_translational_accel_examples():
    # the small-angle accelerations (ax, ay, az) are rows vx, vy, vz of A x + B u
    def accels(phi, theta, u1, p):
        x = np.zeros(12)
        x[6], x[7] = phi, theta
        return tuple(build_6dof(p).deriv(x, np.array([u1, 0.0, 0.0, 0.0]))[3:6])

    assert accels(0.0, 0.0, 0.0, _p()) == (0.0, 0.0, 0.0)
    assert accels(0.0, 0.1, 0.0, _p()) == pytest.approx((-0.981, 0.0, 0.0), rel=1e-15)
    assert accels(0.1, 0.0, 1.0, _p(m=2)) == pytest.approx((0.0, 0.981, 0.5), rel=1e-15)
