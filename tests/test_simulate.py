import math
import sys
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmodel import (
    GeneralizedInput,
    NonFiniteDerivative,
    NonFiniteState,
    NotNilpotent,
    PoleSpec,
    QuadParams,
    RotorForces,
    SimConfig,
    StateSpaceModel,
    StepCountExceeded,
    build_3dof,
    build_6dof,
    demix,
    design_3dof_gains,
    design_6dof_gains,
    expm_nilpotent,
    hover_thrust_per_rotor,
    nilpotency_index,
    nonlinear_deriv,
    rk4_step,
    simulate,
    simulate_feedback,
    simulate_nonlinear,
    zoh_discretize,
    zoh_step,
)
from quadmodel.linalg import expm_rows, matmul
from quadmodel.models import model_rows
from quadmodel.rotor_forces import demix_values
from quadmodel.simulate import CSV_BLOCK_ROWS, feedback_rows, nonlinear_rows
from quadmodel.stabilize import design_rows
from util import assert_close, quad_params


def _integrator_model():
    # dx/dt = u: two decoupled input integrators
    return StateSpaceModel(
        A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
        state_labels=("a", "b"), input_labels=("ua", "ub"), output_labels=("a", "b"),
    )


# ---------------------------------------------------------------- config


def test_config_guards():
    with pytest.raises(ValueError):
        SimConfig(t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_final=0.5, dt=1.0)
    for t_final in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(t_final=t_final)
    with pytest.raises(ValueError):
        SimConfig(t_final=1.0, dt=0.1, integrator="euler")
    with pytest.raises(ValueError):
        SimConfig(t_final=1.0, dt=0.1, plant="linear_9dof")
    with pytest.raises(StepCountExceeded):
        SimConfig(t_final=1e6, dt=1e-4)
    # t_final/dt is inf: the guard decides before ceil, which would overflow
    for t_final, dt in ((1.0, 5e-324), (1e300, 1e-300)):
        with pytest.raises(StepCountExceeded, match=r"^t_final/dt = inf exceeds"):
            SimConfig(t_final=t_final, dt=dt)


def test_step_count_rounding():
    assert SimConfig(t_final=1.0, dt=0.001).n_steps == 1000
    assert SimConfig(t_final=1.0, dt=0.004).n_steps == 250
    assert SimConfig(t_final=0.0103, dt=0.002).n_steps == 6


# ---------------------------------------------------------------- zoh


def test_zoh_pure_input_integrator():
    m = _integrator_model()
    out = zoh_step(m, [0.0, 0.0], [3.0, -1.0], 0.25)
    assert np.array_equal(out, [0.75, -0.25])


def test_zoh_hover_equilibrium(params):
    m = build_6dof(params)
    out = zoh_step(m, np.zeros(12), np.zeros(4), 0.01)
    assert np.array_equal(out, np.zeros(12))


def test_zoh_double_integrator_closed_form(params):
    # constant unit vertical acceleration for half a second
    m = build_6dof(params)
    u = np.array([params.m * 1.0, 0.0, 0.0, 0.0])
    out = zoh_step(m, np.zeros(12), u, 0.5)
    assert out[5] == 0.5    # dvz = a t
    assert out[2] == 0.125  # dz  = a t^2 / 2


def test_zoh_requires_nilpotent():
    stable = StateSpaceModel(
        A=-np.eye(2), B=np.eye(2), C=np.eye(2), D=np.zeros((2, 2)),
        state_labels=("a", "b"), input_labels=("u1", "u2"), output_labels=("a", "b"),
    )
    with pytest.raises(NotNilpotent, match=r"^no power A\^j with j <= 2 vanishes, so exact ZOH "
                                           r"does not apply$"):
        zoh_step(stable, np.zeros(2), np.zeros(2), 0.1)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_zoh_refuses_a_step_that_is_not_finite(params, dt):
    # the series of a nilpotent A is finite at any finite step; at a NaN or
    # infinite one it gave NaN and inf entries without an error
    m = build_6dof(params)
    with pytest.raises(ValueError, match=r"^the step must be finite, got -?(nan|inf)$"):
        zoh_discretize(m, dt)
    with pytest.raises(ValueError, match=r"^the step must be finite"):
        expm_nilpotent(m.A, dt)


def test_propagator_is_invertible(params):
    for m in (build_3dof(params), build_6dof(params)):
        phi_fwd, _ = zoh_discretize(m, 0.01)
        phi_bwd, _ = zoh_discretize(m, -0.01)
        assert_close(phi_fwd @ phi_bwd, np.eye(m.n), rel=1e-12)


def _series_zoh(m, dt):
    # reference: Phi from the A series, Gamma = (sum_j A^j dt^(j+1)/(j+1)!) B
    phi = expm_nilpotent(m.A, dt)
    gamma_factor = np.eye(m.n) * dt
    term = np.eye(m.n) * dt
    for j in range(1, nilpotency_index(m.A)):
        term = term @ m.A * (dt / (j + 1))
        gamma_factor = gamma_factor + term
    return phi, gamma_factor @ m.B


@settings(max_examples=200, deadline=None)
@given(p=quad_params, dt=st.floats(min_value=1e-4, max_value=0.1))
def test_van_loan_zoh_matches_the_series(p, dt):
    for m in (build_3dof(p), build_6dof(p)):
        phi, gamma = zoh_discretize(m, dt)
        ref_phi, ref_gamma = _series_zoh(m, dt)
        assert np.array_equal(phi, ref_phi)
        nz = ref_gamma != 0.0
        assert np.array_equal(gamma != 0.0, nz)
        assert np.all(np.abs(gamma[nz] - ref_gamma[nz]) <= 1e-15 * np.abs(ref_gamma[nz]))


def test_van_loan_zoh_keeps_inputs_decades_apart():
    # 1/m = 1e10 against g/Ix ~ 1e-3: unscaled, the nilpotency test on the
    # augmented matrix would take its 4th power for zero and drop dt^4 g/(24 Ix)
    p = QuadParams(m=1e-10, d=0.25, c=0.01, Ix=1e4, Iy=1e4, Iz=0.02)
    m = build_6dof(p)
    dt = 0.01
    phi, gamma = zoh_discretize(m, dt)
    assert gamma[1, 1] == pytest.approx(p.g * dt**4 / (24.0 * p.Ix), rel=1e-14)
    assert gamma[0, 2] == pytest.approx(-p.g * dt**4 / (24.0 * p.Iy), rel=1e-14)
    ref_phi, ref_gamma = _series_zoh(m, dt)
    assert np.array_equal(phi, ref_phi)
    assert np.all(np.abs(gamma - ref_gamma) <= 1e-15 * np.abs(ref_gamma))


# ---------------------------------------------------------------- rk4


def test_rk4_zero_derivative():
    x = np.array([1.0, -2.0])
    out = rk4_step(lambda t, xx: np.zeros(2), x, 0.0, 0.1)
    assert np.array_equal(out, x)


def test_rk4_scalar_decay_truncation():
    out = rk4_step(lambda t, xx: -xx, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(0.90483742, abs=1e-7)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_rejects_non_finite():
    with pytest.raises(NonFiniteDerivative):
        rk4_step(lambda t, xx: np.full(2, np.nan), np.zeros(2), 0.0, 0.1)


def test_rk4_equals_exact_step_on_both_models(params):
    # nilpotency makes the degree-4 RK4 map identical to the exponential
    rng = np.random.default_rng(8)
    for m in (build_3dof(params), build_6dof(params)):
        for _ in range(100):
            x = rng.uniform(-5, 5, size=m.n)
            u = rng.uniform(-5, 5, size=4)
            dt = rng.uniform(1e-4, 0.1)
            exact = zoh_step(m, x, u, dt)
            stepped = rk4_step(lambda t, xx: m.deriv(xx, u), x, 0.0, dt)
            assert_close(stepped, exact, rel=1e-12)


# ---------------------------------------------------------------- simulate


def test_simulate_equilibrium_stays_zero(params):
    m = build_6dof(params)
    traj = simulate(m, np.zeros(12), lambda t, x: np.zeros(4), SimConfig(t_final=0.5))
    assert len(traj) == 501
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)


def test_simulate_tilt_drift_closed_form(params):
    # constant theta = 0.01 gives x(t) = -g * 0.01 * t^2 / 2 exactly
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[7] = 0.01
    traj = simulate(m, x0, lambda t, x: np.zeros(4), SimConfig(t_final=1.0, dt=0.001))
    assert traj.states[-1, 0] == pytest.approx(-0.04905, abs=1e-12)
    assert traj.states[-1, 3] == pytest.approx(-0.0981, abs=1e-12)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_simulate_vertical_boost_closed_form(params):
    m = build_6dof(params)
    u = np.array([0.981, 0.0, 0.0, 0.0])
    traj = simulate(m, np.zeros(12), lambda t, x: u, SimConfig(t_final=2.0, dt=0.001))
    assert traj.states[-1, 2] == pytest.approx(1.962, abs=1e-12)


def test_simulate_output_equation_holds(params):
    m = build_3dof(params)
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-1, 1, size=6)
    u = rng.uniform(-1, 1, size=4)
    traj = simulate(m, x0, lambda t, x: u, SimConfig(t_final=0.1, dt=0.01))
    for x, uu in zip(traj.states, traj.inputs):
        assert np.array_equal(m.output(x, uu), m.C @ x + m.D @ uu)


def test_simulate_semigroup_under_step_refinement(params):
    # piecewise-constant input aligned to the coarse grid: halving dt must
    # land on the same states at the coarse sample times
    m = build_6dof(params)
    coarse_dt = 0.02
    values = np.sin(np.arange(100))  # deterministic input schedule

    def input_fn(t, x):
        k = int(t / coarse_dt + 1e-9)
        return np.array([values[k % 100], 0.0, 0.01 * values[(k + 3) % 100], 0.0])

    x0 = np.zeros(12)
    x0[6] = 0.02
    coarse = simulate(m, x0, input_fn, SimConfig(t_final=1.0, dt=coarse_dt))
    fine = simulate(m, x0, input_fn, SimConfig(t_final=1.0, dt=coarse_dt / 2))
    assert_close(fine.states[::2], coarse.states, rel=1e-10)


def test_simulate_rk4_matches_exact_trajectory(params):
    # RK4 of the nilpotent model, stepped here, against simulate's exact run
    m = build_3dof(params)
    x0 = np.full(6, 0.1)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = SimConfig(t_final=0.5, dt=0.01, plant="linear_3dof")
    exact = simulate(m, x0, lambda t, x: u, cfg)
    x, stepped = x0, [x0]
    for t in exact.times[:-1]:
        x = rk4_step(lambda tt, xx: m.deriv(xx, u), x, t, cfg.dt)
        stepped.append(x)
    assert_close(np.array(stepped), exact.states, rel=1e-12)


def test_simulate_rejects_nonlinear_plant_config(params):
    m = build_6dof(params)
    cfg = SimConfig(t_final=0.1, dt=0.01, integrator="rk4", plant="nonlinear_6dof")
    with pytest.raises(ValueError):
        simulate(m, np.zeros(12), lambda t, x: np.zeros(4), cfg)


def test_simulate_detects_non_finite_state(params):
    m = build_6dof(params)
    bad = np.array([np.inf, 0.0, 0.0, 0.0])
    with pytest.raises(NonFiniteState, match=r"^input became non-finite at t=0$"):
        simulate(m, np.zeros(12), lambda t, x: bad, SimConfig(t_final=0.1, dt=0.01))


def test_simulate_matches_zoh_reference_loop(params):
    # the run sums each row over its nonzeros, which rounds differently from
    # a BLAS matvec: within 1e-12 of each column's max |value|
    m = build_6dof(params)
    k_matrix = design_6dof_gains(params, PoleSpec.uniform_6dof(-3.0)).K
    x0 = np.zeros(12)
    x0[7] = 0.4
    cfg = SimConfig(t_final=0.25, dt=1e-3)
    traj = simulate(m, x0, lambda t, x: -k_matrix @ x, cfg)
    phi, gamma = zoh_discretize(m, cfg.dt)
    x = x0
    states, inputs = [x], []
    for _ in range(cfg.n_steps):
        u = -k_matrix @ x
        inputs.append(u)
        x = phi @ x + gamma @ u
        states.append(x)
    inputs.append(-k_matrix @ x)
    assert len(traj) == 251
    for got, want in ((traj.states, np.array(states)), (traj.inputs, np.array(inputs))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


def test_input_fn_may_write_into_its_x(params):
    # each call gets a fresh array: a write changes no recorded state
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[7] = 0.1
    cfg = SimConfig(t_final=0.1, dt=0.01)

    def scribble(t, x):
        x[:] = 1e3
        return np.zeros(4)

    ref = simulate(m, x0, lambda t, x: np.zeros(4), cfg)
    traj = simulate(m, x0, scribble, cfg)
    assert traj.states.tobytes() == ref.states.tobytes()


def test_non_finite_final_input_is_reported(params):
    m = build_6dof(params)

    def input_fn(t, x):
        return np.full(4, np.nan) if t >= 0.1 - 1e-12 else np.zeros(4)

    with pytest.raises(NonFiniteState, match=r"^input became non-finite at t=0\.1$"):
        simulate(m, np.zeros(12), input_fn, SimConfig(t_final=0.1, dt=0.01))


def test_diverging_state_is_reported_at_the_first_bad_row(params):
    # x = vx = 1e308 overflows x once vx * t adds more than the float range
    # has left; the whole run completes before the report
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[0] = x0[3] = 1e308
    with pytest.raises(NonFiniteState, match=r"^state became non-finite at t=0\.8$"):
        simulate(m, x0, lambda t, x: np.zeros(4), SimConfig(t_final=1.0, dt=0.01))


# ---------------------------------------------------------------- simulate_feedback


@pytest.mark.parametrize("seed", range(8))
def test_feedback_open_loop_matches_callable_path_to_the_bit(params, seed):
    # K = 0 holds u = r, as the CLI's open loop does; every time and input
    # must carry the callable path's bytes, the sign of a zero included. The
    # states are summed per row over the nonzeros, which rounds differently
    # from a BLAS matvec: within 1e-12 of each column's max |value|
    rng = np.random.default_rng(seed)
    m = build_6dof(params) if seed % 2 else build_3dof(params)
    x0 = rng.choice([-0.0, 0.0, -1.0, 1.0], size=m.n) * rng.uniform(0, 2, size=m.n)
    r = rng.choice([-0.0, 0.0, -1.0, 1.0], size=m.p) * rng.uniform(0, 3, size=m.p)
    if seed == 0:
        x0, r = -np.abs(x0), np.full(m.p, -0.0)
    cfg = SimConfig(t_final=0.3, dt=float(rng.choice([1e-4, 1e-3, 1e-2])))
    fast = simulate_feedback(m, x0, np.zeros((m.p, m.n)), r, cfg)
    ref = simulate(m, x0, lambda t, x: r, cfg)
    for got, want in ((fast.times, ref.times), (fast.inputs, ref.inputs)):
        assert got.tobytes() == want.tobytes()
    scale = np.abs(ref.states).max(axis=0)
    assert np.all(np.abs(fast.states - ref.states) <= 1e-12 * scale)
    assert (fast.state_labels, fast.input_labels) == (ref.state_labels, ref.input_labels)


@pytest.mark.parametrize("dof,pole,dt", [
    (6, -0.1, 1e-2), (6, -2.0, 1e-3), (6, -30.0, 1e-3), (6, -100.0, 1e-4),
    (3, -0.1, 1e-2), (3, -2.0, 1e-3), (3, -100.0, 1e-4),
])
def test_feedback_closed_loop_matches_callable_path(params, dof, pole, dt):
    # F = Phi - Gamma K rounds differently from Phi x + Gamma (r - K x); the
    # 5 s runs must agree to the benchmark oracle's 1e-9 of max|x0|, and the
    # inputs to that times max|K|
    rng = np.random.default_rng(dof)
    if dof == 6:
        m, r = build_6dof(params), np.zeros(4)
        K = design_6dof_gains(params, PoleSpec.uniform_6dof(pole)).K
    else:
        m, r = build_3dof(params), np.full(4, hover_thrust_per_rotor(params))
        K = design_3dof_gains(params, PoleSpec.uniform_3dof(pole)).K
    x0 = rng.uniform(-0.5, 0.5, size=m.n)
    cfg = SimConfig(t_final=5.0, dt=dt, plant=f"linear_{dof}dof")
    fast = simulate_feedback(m, x0, K, r, cfg)
    ref = simulate(m, x0, lambda t, x: r - K @ x, cfg)
    scale = float(np.max(np.abs(x0)))
    assert np.array_equal(fast.times, ref.times)
    assert np.max(np.abs(fast.states - ref.states)) <= 1e-9 * scale
    assert np.max(np.abs(fast.inputs - ref.inputs)) <= 1e-9 * scale * np.max(np.abs(K))


def test_feedback_keeps_an_unexcited_3dof_axis_exactly_at_rest(params):
    # the mixer's +- products cancel exactly in Gamma r and Gamma K when each
    # is summed from separately rounded products, so the axes x0 leaves at
    # rest stay at 0.0; a BLAS product's fused multiply-adds left ~1e-20 there
    m = build_3dof(params)
    K = design_3dof_gains(params, PoleSpec.uniform_3dof(-2.0)).K
    x0 = np.zeros(6)
    x0[0] = 0.1
    r = np.full(4, hover_thrust_per_rotor(params))
    traj = simulate_feedback(m, x0, K, r, SimConfig(t_final=2.0, dt=1e-3))
    assert not traj.states[:, [1, 2, 4, 5]].any()
    assert traj.states[:, [0, 3]].all(axis=1)[1:].all()


def test_feedback_divergence_is_reported_like_the_callable_path(params):
    # poles at -100 sampled every 10 ms leave the unit circle on the roll
    # and pitch chains
    m = build_6dof(params)
    K = design_6dof_gains(params, PoleSpec.uniform_6dof(-100.0)).K
    x0 = np.zeros(12)
    x0[0] = 0.5
    cfg = SimConfig(t_final=5.0, dt=0.01)
    message = r"^input became non-finite at t=4\.28$"
    with pytest.raises(NonFiniteState, match=message):
        simulate(m, x0, lambda t, x: -K @ x, cfg)
    with pytest.raises(NonFiniteState, match=message):
        simulate_feedback(m, x0, K, np.zeros(4), cfg)


def test_feedback_reports_a_non_finite_state_first(params):
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[0] = x0[3] = 1e308
    with pytest.raises(NonFiniteState, match=r"^state became non-finite at t=0\.8$"):
        simulate_feedback(m, x0, np.zeros((4, 12)), np.zeros(4),
                          SimConfig(t_final=1.0, dt=0.01))


def test_a_non_finite_x0_is_reported_at_t_0(params):
    # the first block is scanned from its first row, which holds x0
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[0] = np.nan
    cfg = SimConfig(t_final=1.0, dt=0.01)
    with pytest.raises(NonFiniteState, match=r"^state became non-finite at t=0$"):
        simulate(m, x0, lambda t, x: np.zeros(4), cfg)
    with pytest.raises(NonFiniteState, match=r"^state became non-finite at t=0$"):
        simulate_feedback(m, x0, np.zeros((4, 12)), np.zeros(4), cfg)
    # the nonlinear step at t = 0 raises before its block is scanned
    hover = RotorForces(*[hover_thrust_per_rotor(params)] * 4)
    with pytest.raises(NonFiniteDerivative, match=r"^derivative produced non-finite values "
                                                  r"on the step at t=0$"):
        simulate_nonlinear(params, x0, lambda t, x: hover,
                           SimConfig(t_final=1.0, dt=0.01, plant="nonlinear_6dof"))


def test_a_diverging_run_stops_at_the_end_of_its_block(params):
    # the state leaves the finite floats at t = 0.8, row 80, in the second
    # block of CSV_BLOCK_ROWS rows: input_fn is called to that block's end,
    # not over the 10,001 rows of the whole run
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[0] = x0[3] = 1e308
    calls = []

    def input_fn(t, x):
        calls.append(t)
        return np.zeros(4)

    with pytest.raises(NonFiniteState, match=r"^state became non-finite at t=0\.8$"):
        simulate(m, x0, input_fn, SimConfig(t_final=100.0, dt=0.01))
    assert len(calls) == 2 * CSV_BLOCK_ROWS <= 128


def _flat_feedback_rows(a, b, K, r, x0, cfg):
    """The rows of the loop x+ = c + F x, u = r + (-K) x as one flat
    array('d'), each entry summed left to right from its offset over its
    nonzero coefficients, with c = Gamma r by matmul."""
    phi, gamma = expm_rows(a, b, cfg.dt)
    f = [[p - q for p, q in zip(pr, qr)] for pr, qr in zip(phi, matmul(gamma, K))]
    c = [v for (v,) in matmul(gamma, [[v] for v in r])]

    def row_sum(start, coeffs, x):
        for v, xj in zip(coeffs, x):
            if v:
                start = start + v * xj
        return start

    out, x = array("d"), list(x0)
    for i in range(cfg.n_steps + 1):
        out.extend([i * cfg.dt, *x, *(row_sum(rk, [-v for v in row], x) for rk, row in zip(r, K))])
        x = [row_sum(ck, row, x) for ck, row in zip(c, f)]
    return out


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 512, 513])
@pytest.mark.parametrize("dof,mode", [(6, "closed"), (6, "open"), (3, "closed")])
def test_feedback_rows_are_whole_blocks_of_the_flat_runs_bytes(params, dof, mode, rows):
    a, b = model_rows(params, dof)
    n = len(a)
    K = [[0.0] * n for _ in range(4)]
    r = [0.3, -0.01, 0.02, -0.004]
    if mode == "closed":  # about the hover equilibrium, as sim runs it
        spec = PoleSpec.uniform_6dof() if dof == 6 else PoleSpec.uniform_3dof()
        K = design_rows(params, spec, dof)
        r = [0.0 if dof == 6 else hover_thrust_per_rotor(params)] * 4
    x0 = [0.1 * (-1) ** j / (j + 1) for j in range(n)]
    cfg = SimpleNamespace(dt=0.01, n_steps=rows - 1)  # all feedback_rows reads of a SimConfig
    blocks = list(feedback_rows(a, b, K, r, x0, cfg))
    full, last = divmod(rows, CSV_BLOCK_ROWS)
    sizes = [CSV_BLOCK_ROWS] * full + ([last] if last else [])
    assert all(type(block) is array and block.typecode == "d" for block in blocks)
    assert [len(block) for block in blocks] == [k * (1 + n + 4) for k in sizes]
    joined = array("d")
    for block in blocks:
        joined.extend(block)
    assert joined.tobytes() == _flat_feedback_rows(a, b, K, r, x0, cfg).tobytes()


@pytest.mark.parametrize("cfg,k_shape,r_shape,message", [
    (SimConfig(t_final=0.1, dt=0.01, integrator="rk4"), (4, 12), (4,), "exact_zoh"),
    (SimConfig(t_final=0.1, dt=0.01, integrator="rk4", plant="nonlinear_6dof"), (4, 12), (4,),
     "exact_zoh"),
    (SimConfig(t_final=0.1, dt=0.01), (12, 4), (4,), "shape"),
    (SimConfig(t_final=0.1, dt=0.01), (4, 6), (4,), "shape"),
    (SimConfig(t_final=0.1, dt=0.01), (4, 12), (12,), "shape"),
    (SimConfig(t_final=0.1, dt=0.01), (4, 12), (), "shape"),
    (SimConfig(t_final=0.1, dt=0.01), (4, 12), (4, 1), "shape"),
    # no K: simulate, under an input function, refuses the linear RK4 alike
    pytest.param(SimConfig(t_final=0.1, dt=0.01, integrator="rk4"), None, (4,),
                 "^simulate needs a linear plant and integrator='exact_zoh'$", id="simulate-rk4"),
])
def test_feedback_rejects_bad_requests(params, cfg, k_shape, r_shape, message):
    m = build_6dof(params)
    with pytest.raises(ValueError, match=message):
        if k_shape is None:
            simulate(m, np.zeros(12), lambda t, x: np.zeros(r_shape), cfg)
        else:
            simulate_feedback(m, np.zeros(12), np.zeros(k_shape), np.zeros(r_shape), cfg)


# ---------------------------------------------------------------- nonlinear plant


def _hover_forces_fn(p):
    h = hover_thrust_per_rotor(p)
    f = RotorForces(h, h, h, h)
    return lambda t, x: f


def test_nonlinear_reduces_to_linear_at_hover(params):
    # at zero state with hover thrust the nonlinear derivative vanishes exactly
    h = hover_thrust_per_rotor(params)
    d = nonlinear_deriv(params, np.zeros(12), RotorForces(h, h, h, h))
    assert np.array_equal(d, np.zeros(12))


def test_nonlinear_derivative_matches_linear_for_small_states(params):
    m = build_6dof(params)
    h = hover_thrust_per_rotor(params)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.uniform(-1e-4, 1e-4, size=12)
        nl = nonlinear_deriv(params, x, RotorForces(h, h, h, h))
        lin = m.deriv(x, np.zeros(4))
        # second-order terms only: difference O(|x|^2)
        assert np.max(np.abs(nl - lin)) <= 1e-7


def test_nonlinear_hover_is_exact_equilibrium(params):
    cfg = SimConfig(t_final=0.5, dt=0.001, integrator="rk4", plant="nonlinear_6dof")
    traj = simulate_nonlinear(params, np.zeros(12), _hover_forces_fn(params), cfg)
    assert np.all(traj.states == 0.0)


def test_nonlinear_config_is_enforced(params):
    with pytest.raises(ValueError):
        simulate_nonlinear(
            params, np.zeros(12), _hover_forces_fn(params),
            SimConfig(t_final=0.1, dt=0.01),
        )


def test_small_tilt_agrees_with_linear_model(params):
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[7] = 0.05
    dt = 1e-3
    lin = simulate(m, x0, lambda t, x: np.zeros(4),
                   SimConfig(t_final=1.0, dt=dt))
    cfg = SimConfig(t_final=1.0, dt=dt, integrator="rk4", plant="nonlinear_6dof")
    nl = simulate_nonlinear(params, x0, _hover_forces_fn(params), cfg)
    # x-position agreement: 5% relative with a small absolute floor
    gap = np.abs(nl.states[:, 0] - lin.states[:, 0])
    assert np.all(gap <= 0.05 * np.abs(lin.states[:, 0]) + 1e-6)


def test_large_tilt_diverges_from_linear_model(params):
    m = build_6dof(params)
    x0 = np.zeros(12)
    x0[7] = 0.4
    dt = 1e-3
    lin = simulate(m, x0, lambda t, x: np.zeros(4), SimConfig(t_final=1.0, dt=dt))
    cfg = SimConfig(t_final=1.0, dt=dt, integrator="rk4", plant="nonlinear_6dof")
    nl = simulate_nonlinear(params, x0, _hover_forces_fn(params), cfg)
    final_gap = abs(nl.states[-1, 0] - lin.states[-1, 0])
    assert final_gap > 0.01 * abs(lin.states[-1, 0])


def _reference_nonlinear_run(p, x0, forces_fn, cfg):
    x = x0
    states, inputs = [x], []
    for t in np.arange(cfg.n_steps) * cfg.dt:
        f = forces_fn(t, x)
        inputs.append(f.as_tuple())
        x = rk4_step(lambda tt, xx: nonlinear_deriv(p, xx, f), x, t, cfg.dt)
        states.append(x)
    inputs.append(forces_fn(cfg.n_steps * cfg.dt, x).as_tuple())
    return np.array(states), np.array(inputs)


def test_nonlinear_open_loop_matches_rk4_reference_bit_for_bit(params):
    # uneven held forces, so that all three torques act
    h = hover_thrust_per_rotor(params)
    f = RotorForces(h + 0.01, h - 0.02, h + 0.03, h - 0.01)
    x0 = np.zeros(12)
    x0[7] = 0.4
    x0[9:] = [0.3, -0.2, 0.1]
    cfg = SimConfig(t_final=0.25, dt=1e-3, integrator="rk4", plant="nonlinear_6dof")
    forces_fn = lambda t, x: f
    traj = simulate_nonlinear(params, x0, forces_fn, cfg)
    states, inputs = _reference_nonlinear_run(params, x0, forces_fn, cfg)
    assert len(traj) == 251
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.inputs, inputs)


def test_nonlinear_closed_loop_matches_rk4_reference_bit_for_bit(params):
    # the feedback cmd_sim builds: np.float64 torques demixed every step
    k_matrix = design_6dof_gains(params, PoleSpec.uniform_6dof(-3.0)).K

    def forces_fn(t, x):
        return demix(GeneralizedInput(*(-k_matrix @ x)), params)

    x0 = np.zeros(12)
    x0[7] = 0.4
    x0[2] = -0.5
    cfg = SimConfig(t_final=0.25, dt=1e-3, integrator="rk4", plant="nonlinear_6dof")
    traj = simulate_nonlinear(params, x0, forces_fn, cfg)
    states, inputs = _reference_nonlinear_run(params, x0, forces_fn, cfg)
    assert len(traj) == 251
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.inputs, inputs)


def test_nonlinear_step_matches_rk4_reference_on_random_states():
    # one step from many states and vehicles, so that a reordered sum or a
    # rewritten division in the step shows
    rng = np.random.default_rng(41)
    for _ in range(300):
        p = QuadParams(*rng.uniform(0.05, 3.0, size=6), g=9.81)
        h = hover_thrust_per_rotor(p)
        x0 = rng.uniform(-3.0, 3.0, size=12)
        f = RotorForces(*(h + rng.uniform(-2.0, 2.0, size=4)))
        dt = rng.uniform(1e-3, 0.1)
        cfg = SimConfig(t_final=dt, dt=dt, integrator="rk4", plant="nonlinear_6dof")
        traj = simulate_nonlinear(p, x0, lambda t, x: f, cfg)
        ref = rk4_step(lambda tt, xx: nonlinear_deriv(p, xx, f), x0, 0.0, dt)
        assert np.array_equal(traj.states[1], ref)


@pytest.mark.parametrize("position,rate", [(1, 4), (7, 10)], ids=["y", "theta"])
def test_nonlinear_overflow_is_reported_at_its_step(params, position, rate):
    # 1.7e308 growing at 1e307 per second leaves the float range on the step
    # at 0.97 s; for theta, math.sin(inf) would raise ValueError, and the
    # simulator reports the step instead
    x0 = np.zeros(12)
    x0[position], x0[rate] = 1.7e308, 1e307
    cfg = SimConfig(t_final=2.0, dt=0.01, integrator="rk4", plant="nonlinear_6dof")
    with pytest.raises(NonFiniteDerivative, match=r"on the step at t=0\.97$"):
        simulate_nonlinear(params, x0, _hover_forces_fn(params), cfg)


@pytest.mark.parametrize("rows", [2, 63, 64, 65, 513])
def test_nonlinear_rows_are_whole_blocks_of_simulate_nonlinears_table(params, rows):
    # the CLI's 64-row blocks and the API's one block come from one loop
    h = hover_thrust_per_rotor(params)
    f = RotorForces(h + 0.01, h - 0.02, h + 0.03, h - 0.01)
    x0 = [0.1 * (-1) ** j / (j + 1) for j in range(12)]
    cfg = SimConfig(t_final=(rows - 1) * 0.01, dt=0.01, integrator="rk4", plant="nonlinear_6dof")
    assert cfg.n_steps + 1 == rows
    blocks = list(nonlinear_rows(params, lambda t, x: f.as_tuple(), x0, cfg))
    full, last = divmod(rows, CSV_BLOCK_ROWS)
    sizes = [CSV_BLOCK_ROWS] * full + ([last] if last else [])
    assert all(type(block) is array and block.typecode == "d" for block in blocks)
    assert [len(block) for block in blocks] == [k * 17 for k in sizes]
    traj = simulate_nonlinear(params, x0, lambda t, x: f, cfg)
    table = np.column_stack([traj.times, traj.states, traj.inputs])
    assert b"".join(block.tobytes() for block in blocks) == table.tobytes()


def test_nonlinear_rows_check_the_last_forces_which_drive_no_step(params):
    h = hover_thrust_per_rotor(params)
    cfg = SimConfig(t_final=0.02, dt=0.01)

    def forces(t, x):  # finite until the last row
        return (h, h, h, math.inf if t > 0.015 else h)

    with pytest.raises(NonFiniteState, match=r"^input became non-finite at t=0\.02$"):
        list(nonlinear_rows(params, forces, [0.0] * 12, cfg))


class _Dual:
    """A forward-mode dual number: a value and its derivative along one
    direction, through the arithmetic and trigonometry of one RK4 step."""

    def __init__(self, val, der=0.0):
        self.val, self.der = val, der

    @staticmethod
    def _of(v):
        return v if isinstance(v, _Dual) else _Dual(v)

    def __add__(self, o):
        o = self._of(o)
        return _Dual(self.val + o.val, self.der + o.der)

    def __sub__(self, o):
        o = self._of(o)
        return _Dual(self.val - o.val, self.der - o.der)

    def __mul__(self, o):
        o = self._of(o)
        return _Dual(self.val * o.val, self.der * o.val + self.val * o.der)

    def __truediv__(self, o):
        o = self._of(o)
        q = self.val / o.val
        return _Dual(q, (self.der - q * o.der) / o.val)

    def __radd__(self, o):
        return self._of(o) + self

    def __rsub__(self, o):
        return self._of(o) - self

    def __rmul__(self, o):
        return self._of(o) * self

    def __rtruediv__(self, o):
        return self._of(o) / self

    def __neg__(self):
        return _Dual(-self.val, -self.der)


_DUAL_MATH = SimpleNamespace(sin=lambda a: _Dual(math.sin(a.val), math.cos(a.val) * a.der),
                             cos=lambda a: _Dual(math.cos(a.val), -math.sin(a.val) * a.der))


def _assert_held_forces_step_jacobian_at_hover(p, K, dt, monkeypatch):
    """Column j of the Jacobian of x -> _rk4_held_forces(p, x, demix(-K x), dt)
    at hover (x = 0), by dual numbers seeded on x_j, against Phi - Gamma K:
    RK4 with held forces is exact on the nilpotent A, so the nonlinear step's
    Jacobian there is the sampled loop the gate checks. Each entry agrees
    within 1e-12 of the magnitude of its terms, |Phi| + |Gamma| |K|."""
    module = sys.modules["quadmodel.simulate"]
    monkeypatch.setattr(module, "math", _DUAL_MATH)
    a, b = model_rows(p, 6)
    phi, gamma = expm_rows(a, b, dt)
    loop = [[f - g for f, g in zip(fr, gr)] for fr, gr in zip(phi, matmul(gamma, K))]
    abs_rows = [[abs(v) for v in row] for row in gamma]
    terms = matmul(abs_rows, [[abs(v) for v in row] for row in K])
    for j in range(12):
        x = [_Dual(0.0, float(i == j)) for i in range(12)]
        u = [sum((-k * xi for k, xi in zip(row, x)), _Dual(0.0)) for row in K]
        step = module._rk4_held_forces(p, x, demix_values(*u, p), dt)
        for i, out in enumerate(step):
            scale = abs(phi[i][j]) + terms[i][j]
            assert abs(out.der - loop[i][j]) <= 1e-12 * scale, (i, j, out.der, loop[i][j])


# one draw of util.wide_params, rounded to three digits
WIDE_DRAW = QuadParams(m=1.84e26, d=1.56e-07, c=7.18e-179, Ix=4e6, Iy=3.56e-53, Iz=6.71e-255,
                       g=1.85e47)


@pytest.mark.parametrize("wide", [None, WIDE_DRAW], ids=["desk", "wide"])
def test_held_forces_step_jacobian_at_hover_is_the_sampled_loop(params, wide, monkeypatch):
    p = wide or params
    K = design_rows(p, PoleSpec.uniform_6dof(-2.0), 6)
    _assert_held_forces_step_jacobian_at_hover(p, K, 1e-3, monkeypatch)
