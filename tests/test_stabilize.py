import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmodel import (
    CHAINS_3DOF,
    CHAINS_6DOF,
    GainMatrix,
    PoleCountMismatch,
    PolePlacementError,
    PoleSpec,
    QuadParams,
    SimConfig,
    UnstablePoleRequested,
    ZeroInputGain,
    build_3dof,
    build_6dof,
    char_poly,
    design_3dof_gains,
    design_6dof_gains,
    is_hurwitz,
    place_integrator_chain,
    poles_to_monic,
    simulate,
)
from util import assert_close

negative_pole = st.floats(min_value=-5.0, max_value=-0.5)

P = QuadParams(m=1.0, d=0.25, c=0.01, Ix=0.01, Iy=0.01, Iz=0.02, g=9.81)


def pole_sets_6dof():
    return st.builds(
        PoleSpec,
        z=st.tuples(negative_pole, negative_pole),
        roll=st.tuples(negative_pole, negative_pole, negative_pole, negative_pole),
        pitch=st.tuples(negative_pole, negative_pole, negative_pole, negative_pole),
        yaw=st.tuples(negative_pole, negative_pole),
    )


# ---------------------------------------------------------------- chain placement


def test_chain_gains_double_integrator():
    gains = place_integrator_chain(2, 1.0, (-1.0, -2.0))
    # target (s+1)(s+2) = s^2 + 3 s + 2 -> gains (2, 3) on (position, rate)
    assert np.array_equal(gains, [2.0, 3.0])


def test_chain_gains_scale_with_input_gain():
    gains = place_integrator_chain(2, 1.0 / 0.02, (-3.0, -3.0))
    # target s^2 + 6 s + 9, gain b = 50
    assert gains == pytest.approx([0.18, 0.12], rel=1e-14)


def test_chain_gains_complex_pair():
    gains = place_integrator_chain(2, 1.0, (-1 + 1j, -1 - 1j))
    # (s+1-j)(s+1+j) = s^2 + 2 s + 2
    assert gains == pytest.approx([2.0, 2.0], rel=1e-14)


def test_chain_rejects_unstable_pole():
    with pytest.raises(UnstablePoleRequested):
        place_integrator_chain(2, 1.0, (1.0, -2.0))


def test_chain_rejects_wrong_pole_count():
    with pytest.raises(PoleCountMismatch):
        place_integrator_chain(4, 1.0, (-1.0, -2.0))


def test_chain_rejects_zero_gain():
    with pytest.raises(ZeroInputGain):
        place_integrator_chain(2, 0.0, (-1.0, -2.0))


def test_chain_rejects_unpaired_complex_pole():
    with pytest.raises(PolePlacementError):
        place_integrator_chain(2, 1.0, (-1 + 1j, -2.0))


def test_pole_spec_validates_at_construction():
    with pytest.raises(UnstablePoleRequested):
        PoleSpec(z=(0.5, -1.0))
    with pytest.raises(PolePlacementError):
        PoleSpec(yaw=(-1 + 2j, -1 + 3j))
    spec = PoleSpec.uniform_6dof(-2.0)
    assert len(spec.roll) == 4 and len(spec.z) == 2


# ---------------------------------------------------------------- 6DOF design


def test_6dof_uniform_placement_hits_target(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    achieved = char_poly(m.A - m.B @ gains.K)
    target = poles_to_monic([-2.0] * 12)  # (s+2)^12 by convolution oracle
    np.testing.assert_allclose(achieved, target, rtol=1e-8)
    assert is_hurwitz(achieved)


def test_6dof_flipped_gain_destabilizes(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    assert not is_hurwitz(char_poly(m.A + m.B @ gains.K))


def test_6dof_gain_layout(params):
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    assert gains.K.shape == (4, 12)
    assert gains.input_labels == ("U1", "U2", "U3", "U4")
    # each input row touches only its own chain's states
    chains = {0: {2, 5}, 1: {1, 4, 6, 9}, 2: {0, 3, 7, 10}, 3: {8, 11}}
    for row, allowed in chains.items():
        touched = {j for j in range(12) if gains.K[row, j] != 0.0}
        assert touched == allowed


@settings(max_examples=25, deadline=None)
@given(spec=pole_sets_6dof())
def test_6dof_placement_matches_chain_products(spec):
    m = build_6dof(P)
    gains = design_6dof_gains(P, spec)
    achieved = char_poly(m.A - m.B @ gains.K)
    target = np.array([1.0])
    for chain in (spec.z, spec.roll, spec.pitch, spec.yaw):
        target = np.convolve(target, poles_to_monic(chain))
    np.testing.assert_allclose(achieved, target, rtol=1e-8, atol=1e-10)
    assert is_hurwitz(achieved)


def test_6dof_pole_count_mismatch(params):
    with pytest.raises(PoleCountMismatch, match=r"^6DOF roll chain needs 4 poles, got 3$"):
        design_6dof_gains(params, PoleSpec(z=(-1.0,) * 2, roll=(-1.0,) * 3,
                                           pitch=(-1.0,) * 4, yaw=(-1.0,) * 2))


# ---------------------------------------------------------------- 3DOF design


def test_3dof_placement_hits_target(params):
    m = build_3dof(params)
    spec = PoleSpec(roll=(-1.0, -2.0), pitch=(-1.0, -2.0), yaw=(-1.0, -2.0))
    gains = design_3dof_gains(params, spec)
    assert gains.K.shape == (4, 6)
    achieved = char_poly(m.A - m.B @ gains.K)
    target = poles_to_monic([-1.0, -2.0] * 3)  # (s^2+3s+2)^3
    np.testing.assert_allclose(achieved, target, rtol=1e-8, atol=1e-10)
    assert is_hurwitz(achieved)


def test_3dof_force_rows_add_no_net_thrust(params):
    gains = design_3dof_gains(params, PoleSpec.uniform_3dof(-2.0))
    # column sums vanish: the four rotors never change total thrust
    assert_close(np.sum(gains.K, axis=0), np.zeros(6), rel=1e-12)


def test_3dof_pole_count_mismatch(params):
    with pytest.raises(PoleCountMismatch, match=r"^3DOF roll axis needs 2 poles, got 3$"):
        design_3dof_gains(params, PoleSpec(roll=(-1.0, -2.0, -3.0),
                                           pitch=(-1.0, -2.0), yaw=(-1.0, -2.0)))


def test_3dof_rejects_poles_for_the_z_chain_it_lacks(params):
    spec = PoleSpec(z=(-1.0, -2.0), roll=(-1.0, -2.0), pitch=(-1.0, -2.0), yaw=(-1.0, -2.0))
    with pytest.raises(PoleCountMismatch, match=r"^3DOF z axis needs 0 poles, got 2$"):
        design_3dof_gains(params, spec)


def test_uniform_specs_follow_the_chain_tables():
    for spec, chains in ((PoleSpec.uniform_6dof(-3.0), CHAINS_6DOF),
                         (PoleSpec.uniform_3dof(-3.0), CHAINS_3DOF)):
        sizes = {ch.name: len(ch.states) for ch in chains}
        for name in ("z", "roll", "pitch", "yaw"):
            assert getattr(spec, name) == (-3.0 + 0j,) * sizes.get(name, 0)


# ---------------------------------------------------------------- closed loop behavior


def test_6dof_chains_stay_decoupled(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[2], x0[5] = 0.4, -0.1  # z-chain only
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=2.0, dt=0.001))
    others = [j for j in range(12) if j not in (2, 5)]
    assert np.max(np.abs(traj.states[:, others])) <= 1e-10


def test_6dof_regulation_matches_modal_oracle(params):
    # the closed loop is fully determined by the chain structure; compare the
    # simulated decay against the continuous-time matrix exponential
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[0] = x0[1] = x0[2] = 0.5
    x0[6] = x0[7] = 0.05
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=5.0, dt=0.001))
    oracle = scipy.linalg.expm((m.A - m.B @ gains.K) * 5.0) @ x0
    # discrete (sampled feedback) vs continuous: agree to ~dt
    np.testing.assert_allclose(traj.states[-1], oracle, rtol=0.0, atol=2e-4)
    ratio = np.linalg.norm(traj.states[-1]) / np.linalg.norm(x0)
    # repeated poles at -2 leave t^3 e^(-2t) transients: the norm has only
    # decayed to ~1.75e-2 of the initial value by t = 5 s
    assert ratio == pytest.approx(1.754e-2, rel=1e-2)


def test_6dof_regulation_converges_given_time(params):
    m = build_6dof(params)
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-2.0))
    x0 = np.zeros(12)
    x0[0] = x0[1] = x0[2] = 0.5
    x0[6] = x0[7] = 0.05
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=8.0, dt=0.001))
    assert np.linalg.norm(traj.states[-1]) < 1e-3 * np.linalg.norm(x0)


def test_3dof_regulation(params):
    m = build_3dof(params)
    gains = design_3dof_gains(params, PoleSpec.uniform_3dof(-2.0))
    x0 = np.array([0.3, -0.2, 0.5, 0.0, 0.0, 0.0])
    traj = simulate(m, x0, lambda t, x: gains.feedback_input(x),
                    SimConfig(t_final=8.0, dt=0.001))
    assert np.linalg.norm(traj.states[-1]) < 1e-3 * np.linalg.norm(x0)


def test_gain_matrix_feedback_with_reference(params):
    gains = design_6dof_gains(params, PoleSpec.uniform_6dof(-1.0))
    x = np.zeros(12)
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(gains.feedback_input(x, r), r)


def test_gain_matrix_shape_check():
    with pytest.raises(PolePlacementError):
        GainMatrix(np.zeros((4, 11)), state_labels=("s",) * 12, input_labels=("u",) * 4)
