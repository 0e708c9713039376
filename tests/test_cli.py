import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from quadmodel import (
    DOF6_STATE_LABELS,
    GeneralizedInput,
    PoleSpec,
    QuadParams,
    RotorForces,
    SimConfig,
    Trajectory,
    build_6dof,
    demix,
    design_6dof_gains,
    hover_thrust_per_rotor,
    simulate_feedback,
    simulate_nonlinear,
)
from quadmodel.cli import CSV_BLOCK_ROWS, main, write_trajectory_csv

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # newline-terminated
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    return header, rows


# ---------------------------------------------------------------- model


@pytest.mark.parametrize("dof,golden", [(3, "model_3dof.json"), (6, "model_6dof.json")])
def test_model_json_matches_golden_bytes(capsys, params_file, dof, golden):
    code, out, err = run(capsys, "model", "--dof", str(dof), "--params", params_file,
                         "--format", "json")
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("dof,golden", [(3, "model_3dof.txt"), (6, "model_6dof.txt")])
def test_model_pretty_matches_golden_bytes(capsys, params_file, dof, golden):
    code, out, err = run(capsys, "model", "--dof", str(dof), "--params", params_file,
                         "--format", "pretty")
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_model_json_is_deterministic(capsys, params_file):
    _, first, _ = run(capsys, "model", "--dof", "6", "--params", params_file)
    _, second, _ = run(capsys, "model", "--dof", "6", "--params", params_file)
    assert first == second


def test_model_pretty_output(capsys, params_file):
    code, out, err = run(capsys, "model", "--dof", "3", "--params", params_file,
                         "--format", "pretty")
    assert code == 0
    assert "phi_dot" in out and "F4" in out and "A (6x6):" in out


def test_model_schema_fields(capsys, params_file):
    _, out, _ = run(capsys, "model", "--dof", "6", "--params", params_file)
    doc = json.loads(out)
    assert list(doc) == ["n", "p", "q", "A", "B", "C", "D",
                         "state_labels", "input_labels", "output_labels"]
    assert doc["A"][3][7] == -9.81


# ---------------------------------------------------------------- analyze


def test_analyze_reports(capsys, params_file):
    # the whole report, byte for byte: both ranks, the open-loop polynomial,
    # the stability class and the nilpotency index
    for dof in (6, 3):
        code, out, err = run(capsys, "analyze", "--dof", str(dof), "--params", params_file)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"analyze_{dof}dof.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------- sim


def test_sim_zero_case_is_all_zeros(capsys, params_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--t-final", "0.1", "--dt", "0.01", "--out", str(out_path))
    assert code == 0 and out == ""
    header, rows = read_csv(out_path)
    assert header == ["t", "x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi",
                      "phi_dot", "theta_dot", "psi_dot", "U1", "U2", "U3", "U4"]
    assert rows.shape == (11, 17)
    assert np.all(rows[:, 1:] == 0.0)


def test_sim_csv_shape_contract(capsys, params_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    run(capsys, "sim", "--dof", "3", "--params", params_file,
        "--t-final", "0.0103", "--dt", "0.002", "--out", str(out_path))
    header, rows = read_csv(out_path)
    assert len(header) == 1 + 6 + 4
    assert rows.shape[0] == 6 + 1  # ceil(0.0103/0.002) + 1


def test_sim_tilt_quadratic(capsys, params_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "sim", "--dof", "6", "--params", params_file,
                     "--x0", "theta=0.01", "--t-final", "1", "--dt", "0.001",
                     "--out", str(out_path))
    assert code == 0
    _, rows = read_csv(out_path)
    assert rows[-1, 1] == pytest.approx(-0.04905, abs=1e-12)


def test_sim_closed_loop_regulates(capsys, params_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    gains_path = tmp_path / "gains.json"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", "--x0", "z=0.5", "--poles=-3",
                         "--t-final", "6", "--dt", "0.001", "--out", str(out_path),
                         "--gains-out", str(gains_path))
    assert code == 0
    _, rows = read_csv(out_path)
    assert abs(rows[-1, 3]) < 1e-3 * 0.5  # z has decayed
    gains = json.loads(gains_path.read_text())
    assert np.asarray(gains["K"]).shape == (4, 12)
    assert gains["input_labels"] == ["U1", "U2", "U3", "U4"]


def test_sim_nonlinear_hover(capsys, params_file, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "sim", "--dof", "6", "--params", params_file,
                     "--plant", "nonlinear", "--t-final", "0.1", "--dt", "0.01",
                     "--out", str(out_path))
    assert code == 0
    header, rows = read_csv(out_path)
    assert header[-4:] == ["F1", "F2", "F3", "F4"]
    assert np.all(rows[:, 1:13] == 0.0)
    assert np.all(rows[:, 13:] == 2.4525)


def _reference_csv(traj):
    """The writer as it was: one f-string per value."""
    lines = ["t," + ",".join(traj.state_labels + traj.input_labels)]
    for i in range(len(traj)):
        row = (traj.times[i], *traj.states[i], *traj.inputs[i])
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-300, 1.0 / 3.0,
                  sys.float_info.max, -sys.float_info.max, 2.0**-1022, 0.1, -2.5]


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                  8 * CSV_BLOCK_ROWS - 1, 8 * CSV_BLOCK_ROWS, 8 * CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("n_states", [12, 6])
def test_trajectory_csv_bytes_match_per_value_formatting(rows, n_states):
    rng = np.random.default_rng(rows + n_states)
    cells = rng.standard_normal((rows, 1 + n_states + 4)) * 10.0 ** rng.integers(-8, 9, (rows, 1))
    flat = cells.ravel()
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: flat.size]
    pick = rng.integers(0, flat.size, size=min(flat.size, 4 * len(SPECIAL_VALUES)))
    flat[pick] = rng.choice(SPECIAL_VALUES, size=pick.size)
    traj = Trajectory(cells[:, 0].copy(), cells[:, 1 : 1 + n_states].copy(),
                      cells[:, 1 + n_states :].copy(),
                      tuple(f"s{j}" for j in range(n_states)), ("U1", "U2", "U3", "U4"))
    fh = io.StringIO()
    write_trajectory_csv(traj, fh)
    assert fh.getvalue() == _reference_csv(traj)


@pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                  3 * CSV_BLOCK_ROWS + 5])
@pytest.mark.parametrize("plant", ["linear", "nonlinear"])
def test_sim_csv_bytes_match_per_value_formatting(capsys, params, params_file, tmp_path,
                                                  plant, rows):
    # the file sim writes as bytes against the same run made through the
    # API and formatted one f-string per value
    dt = 0.01
    t_final = (rows - 1) * dt
    x0 = np.zeros(12)
    x0[[2, 6, 9]] = (-0.3, 0.02, 0.1)  # z, phi, phi_dot
    out_path = tmp_path / "traj.csv"
    argv = ["sim", "--dof", "6", "--params", params_file, "--plant", plant,
            "--x0", "z=-0.3,phi=0.02,phi_dot=0.1", "--t-final", repr(t_final),
            "--dt", repr(dt), "--out", str(out_path)]
    if plant == "linear":
        argv += ["--mode", "closed"]
        cfg = SimConfig(t_final=t_final, dt=dt)
        K = design_6dof_gains(params, PoleSpec.uniform_6dof()).K
        traj = simulate_feedback(build_6dof(params), x0, K, np.zeros(4), cfg)
    else:
        argv += ["--input", "F1=2.5"]
        cfg = SimConfig(t_final=t_final, dt=dt, integrator="rk4", plant="nonlinear_6dof")
        hover = hover_thrust_per_rotor(params)
        held = RotorForces(2.5, hover, hover, hover)
        traj = simulate_nonlinear(params, x0, lambda t, x: held, cfg)
    assert len(traj) == rows
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "", "")
    assert out_path.read_bytes() == _reference_csv(traj).encode()


@pytest.mark.parametrize("x0", ["z=0.5,theta=0.05", "z=-0.3,phi=0.02,phi_dot=0.1",
                                "x=0.2,y=-0.1,phi=0.05,theta=0.05"])
def test_sim_nonlinear_closed_loop_matches_the_numpy_feedback(capsys, params, params_file,
                                                              tmp_path, x0):
    # sim sums u = -K x over K's nonzeros in Python; the API run under the
    # numpy feedback demix(-K @ x) rounds differently, within 1e-12 of each
    # column's max |value|, and a column that is exactly zero there (psi and
    # psi_dot: no yaw torque acts) is exactly zero in the file too
    out_path = tmp_path / "traj.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", "nonlinear", "--mode", "closed", "--poles=-3",
                         "--x0", x0, "--t-final", "1", "--dt", "0.001", "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    k_matrix = design_6dof_gains(params, PoleSpec.uniform_6dof(-3.0)).K
    start = np.zeros(12)
    for part in x0.split(","):
        label, value = part.split("=")
        start[DOF6_STATE_LABELS.index(label)] = float(value)
    cfg = SimConfig(t_final=1.0, dt=0.001, integrator="rk4", plant="nonlinear_6dof")
    traj = simulate_nonlinear(params, start,
                              lambda t, x: demix(GeneralizedInput(*(-k_matrix @ x)), params), cfg)
    ref = np.column_stack([traj.times, traj.states, traj.inputs])
    _, rows = read_csv(out_path)
    assert rows.shape == ref.shape == (1001, 17)
    assert np.all(np.abs(rows - ref) <= 1e-12 * np.abs(ref).max(axis=0))
    zero = ~ref.any(axis=0)
    assert zero[[9, 12]].all()  # psi and psi_dot
    assert not rows[:, zero].any()


def test_sim_deterministic(capsys, params_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(capsys, "sim", "--dof", "6", "--params", params_file,
            "--x0", "phi=0.02,vx=0.1", "--mode", "closed",
            "--t-final", "0.2", "--dt", "0.001", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- mix / demix


def test_mix_hover_prints_zeros(capsys, params_file):
    code, out, err = run(capsys, "mix", "--params", params_file,
                         "2.4525", "2.4525", "2.4525", "2.4525")
    assert code == 0
    assert out == "0 0 0 0\n"


def test_demix_zero_input_prints_hover(capsys, params_file):
    code, out, _ = run(capsys, "demix", "--params", params_file, "0", "0", "0", "0")
    assert code == 0
    assert out == "2.4525 2.4525 2.4525 2.4525\n"


def test_mix_demix_round_trip(capsys, params_file):
    code, out, _ = run(capsys, "demix", "--params", params_file,
                       "0.3", "-0.02", "0.015", "-0.004")
    assert code == 0
    forces = out.split()
    code, out, _ = run(capsys, "mix", "--params", params_file, *forces)
    assert code == 0
    back = [float(v) for v in out.split()]
    assert back == pytest.approx([0.3, -0.02, 0.015, -0.004], rel=1e-9)


@pytest.mark.parametrize("command,values,result", [
    ("mix", ["1e308", "1e308", "0", "0"], "the generalized input"),
    ("demix", ["1e308", "0", "0", "1e308"], "a rotor force"),
])
def test_finite_values_whose_result_overflows_are_exit_2(capsys, params_file, command, values,
                                                         result):
    code, out, err = run(capsys, command, "--params", params_file, *values)
    assert code == 2 and out == ""
    assert err == f"quadmodel: error: the values are too extreme for float64: {result} overflows\n"


# ---------------------------------------------------------------- error contract


def test_missing_file_is_exit_2(capsys):
    code, out, err = run(capsys, "model", "--dof", "6", "--params", "/nonexistent.json")
    assert code == 2 and out == ""
    assert err.strip() and len(err.strip().split("\n")) == 1


def test_invalid_params_is_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 0, "d": 0.25, "c": 0.01,
                                "Ix": 0.01, "Iy": 0.01, "Iz": 0.02}))
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 3 and out == "" and "m" in err


def test_unknown_key_is_exit_2(capsys, tmp_path):
    path = tmp_path / "unk.json"
    path.write_text(json.dumps({"m": 1, "d": 0.25, "c": 0.01,
                                "Ix": 0.01, "Iy": 0.01, "Iz": 0.02, "mass": 2}))
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 2 and out == "" and "mass" in err


def test_garbled_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_integer_beyond_float64_reads_as_infinite(capsys, tmp_path, sign):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"m": {sign}1{"0" * 400}, "d": 0.25, "c": 0.01, '
                    f'"Ix": 0.01, "Iy": 0.01, "Iz": 0.02}}')
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 3 and out == ""
    assert err == f"quadmodel: invalid parameters: parameter m must be finite (got {sign}inf)\n"


@pytest.mark.parametrize("text", [
    '{"m": 1' + "0" * 4999 + ', "d": 0.25, "c": 0.01, "Ix": 0.01, "Iy": 0.01, "Iz": 0.02}',
    "[" * 100_000 + "]" * 100_000,
], ids=["5000-digit integer", "deep nesting"])
def test_json_python_cannot_parse_is_exit_2(capsys, tmp_path, text):
    path = tmp_path / "unparsable.json"
    path.write_text(text)
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"quadmodel: error: parameter file {str(path)!r} cannot be parsed: ")
    assert err.count("\n") == 1


def test_non_numeric_value_is_exit_2(capsys, tmp_path):
    path = tmp_path / "strval.json"
    path.write_text(json.dumps({"m": "1", "d": 0.25, "c": 0.01,
                                "Ix": 0.01, "Iy": 0.01, "Iz": 0.02}))
    code, out, err = run(capsys, "model", "--dof", "6", "--params", str(path))
    assert code == 2 and out == ""


def test_bad_state_label_is_exit_2(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--x0", "warp=1", "--t-final", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == "" and "warp" in err


def test_nonlinear_needs_dof6(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "3", "--params", params_file,
                         "--plant", "nonlinear", "--t-final", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""


def test_unstable_pole_request_is_exit_2(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", "--poles=2.0", "--t-final", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""


def test_runtime_blowup_is_exit_4(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--input", "U1=1e308", "--t-final", "2", "--dt", "0.01",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 4 and out == ""
    assert len(err.strip().split("\n")) == 1
    assert not (tmp_path / "x.csv").exists()  # the run fails before the file is opened


@pytest.mark.parametrize("vx,t", [("1e308", "0.8"), ("1.2562e308", "0.64"), ("1.27e308", "0.63")])
@pytest.mark.parametrize("before", [None, b"kept"])
def test_first_non_finite_row_past_a_block_edge_is_exit_4(capsys, params_file, tmp_path, vx, t,
                                                         before):
    # x = 1e308 overflows at row 80 (block 2), 64 (its first row) or 63 (the
    # last row of block 1); the scan of all blocks runs before the file opens
    out_path = tmp_path / "x.csv"
    if before is not None:
        out_path.write_bytes(before)
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--x0", f"x=1e308,vx={vx}", "--t-final", "1", "--dt", "0.01",
                         "--out", str(out_path))
    assert (code, out) == (4, "")
    assert err == f"quadmodel: simulation failed: state became non-finite at t={t}\n"
    assert (out_path.read_bytes() if out_path.exists() else None) == before


def test_3dof_closed_loop_holds_hover_where_the_offset_products_overflow(capsys, tmp_path):
    # m g / 4 = 2.45e300 N per rotor and d / Ix = 1e24: each product of the
    # offset Gamma r overflows, and inf - inf once read as a non-finite state
    doc = {"m": 1e300, "d": 1e12, "c": 1e12, "Ix": 1e-12, "Iy": 1e-12, "Iz": 1e-12}
    params_path, out_path = tmp_path / "p.json", tmp_path / "x.csv"
    params_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "sim", "--dof", "3", "--params", str(params_path),
                         "--mode", "closed", "--t-final", "0.01", "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    _, rows = read_csv(out_path)
    assert rows.shape == (11, 11) and not rows[:, 1:7].any()
    assert (rows[:, 7:] == hover_thrust_per_rotor(QuadParams(**doc))).all()


def test_opposite_forces_whose_sum_overflows_use_the_products(capsys, params_file, tmp_path):
    # F2 - F4 = 2e308 overflows where d F2 and d F4 do not: the offset
    # Gamma r then sums the products, and the run diverges at t=0.036, not
    # at its first step
    code, out, err = run(capsys, "sim", "--dof", "3", "--params", params_file,
                         "--input", "F2=1e308,F4=-1e308", "--t-final", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (4, "")
    assert err == "quadmodel: simulation failed: state became non-finite at t=0.036\n"
    assert not (tmp_path / "x.csv").exists()


def test_nonlinear_angle_overflow_is_exit_4(capsys, params_file, tmp_path):
    # theta grows by 1e307 rad/s until math.sin would see an infinite angle
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", "nonlinear", "--x0", "theta_dot=1e307",
                         "--t-final", "30", "--dt", "0.01",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 4 and out == ""
    assert err == ("quadmodel: simulation failed: derivative produced non-finite "
                   "values on the step at t=17.97\n")


def test_nonlinear_closed_loop_force_overflow_is_exit_4(capsys, tmp_path):
    # u = -K x overflows on the roll torque at d = 1 mm, and demix turns it
    # into forces of -inf and inf, which fail the first step: exit 4 with
    # one line, not a ValueError traceback from the rotor force record
    doc = {"m": 1, "d": 0.001, "c": 0.01, "Ix": 0.01, "Iy": 0.01, "Iz": 0.02}
    params_path, out_path = tmp_path / "p.json", tmp_path / "x.csv"
    params_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", str(params_path),
                         "--plant", "nonlinear", "--mode", "closed", "--x0", "phi_dot=1e307",
                         "--t-final", "0.01", "--dt", "0.001", "--out", str(out_path))
    assert (code, out) == (4, "")
    assert err == ("quadmodel: simulation failed: derivative produced non-finite "
                   "values on the step at t=0\n")
    assert not out_path.exists()


def test_bad_dt_is_exit_2(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--t-final", "1", "--dt", "2",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""


@pytest.mark.parametrize("t_final,dt", [("1e300", "1e-300"), ("1", "5e-324")])
def test_a_step_count_beyond_float64_is_exit_2(capsys, params_file, tmp_path, t_final, dt):
    # t_final/dt is inf: the step guard refuses it before rounding, where
    # ceil(inf) raised OverflowError, a traceback and exit 1
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--t-final", t_final, "--dt", dt, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == "quadmodel: error: t_final/dt = inf exceeds the 10000000 step guard\n"
    assert not out_path.exists()


def test_failed_stability_check_is_exit_4(capsys, params_file, tmp_path):
    # poles at -300 are Hurwitz, but sampled every 10 ms the loop
    # Phi - Gamma K has |z| > 1 and the run would reach z = 3.6e92 by t = 1 s
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", "--poles=-300", "--dt", "0.01",
                         "--t-final", "1", "--x0", "z=0.5", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == ("quadmodel: simulation refused: the sampled closed loop Phi - Gamma K "
                   "is unstable at dt=0.01; use a smaller --dt or slower poles\n")
    assert not out_path.exists()


@pytest.mark.parametrize("dof,x0", [(6, "z=0.5"), (3, "phi=0.5")])
def test_sampled_loop_refusal_writes_no_gains(capsys, params_file, tmp_path, dof, x0):
    gains_path = tmp_path / "gains.json"
    code, out, err = run(capsys, "sim", "--dof", str(dof), "--params", params_file,
                         "--mode", "closed", "--poles=-300", "--dt", "0.01",
                         "--t-final", "1", "--x0", x0, "--out", str(tmp_path / "x.csv"),
                         "--gains-out", str(gains_path))
    assert code == 4 and out == "" and len(err.strip().split("\n")) == 1
    assert not gains_path.exists()
    # the same poles at a 1 ms step are sampled-stable and run
    code, out, err = run(capsys, "sim", "--dof", str(dof), "--params", params_file,
                         "--mode", "closed", "--poles=-300", "--dt", "0.001",
                         "--t-final", "1", "--x0", x0, "--out", str(tmp_path / "x.csv"))
    assert code == 0 and err == ""


def test_nonlinear_closed_loop_runs_at_desk_poles(capsys, params_file, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", "nonlinear", "--mode", "closed", "--poles=-3",
                         "--x0", "z=0.5,theta=0.05", "--t-final", "1", "--dt", "0.001",
                         "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    header, rows = read_csv(out_path)
    assert header[-4:] == ["F1", "F2", "F3", "F4"]
    assert rows.shape == (1001, 17) and np.all(np.isfinite(rows))
    assert abs(rows[-1, 3]) < 0.5 and abs(rows[-1, 8]) < 0.05  # z and theta regulate


def test_nonlinear_closed_loop_unstable_at_its_dt_is_exit_4(capsys, params_file, tmp_path):
    # RK4 with held forces is exact on the nilpotent A, so the step of the
    # nonlinear loop linearized at hover is Phi - Gamma K: the linear
    # plant's refusal; run, it reached z = 3.6e92 by t = 1 s
    out_path, gains_path = tmp_path / "x.csv", tmp_path / "gains.json"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", "nonlinear", "--mode", "closed", "--poles=-300",
                         "--dt", "0.01", "--t-final", "1", "--x0", "z=0.5",
                         "--out", str(out_path), "--gains-out", str(gains_path))
    assert code == 4 and out == ""
    assert err == ("quadmodel: simulation refused: the sampled closed loop Phi - Gamma K "
                   "is unstable at dt=0.01; use a smaller --dt or slower poles\n")
    assert not out_path.exists() and not gains_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("plant", ["linear", "nonlinear"])
def test_a_dt_beyond_float64_is_unstable_not_a_pole_error(capsys, params_file, tmp_path, plant):
    # Phi - Gamma K at dt = 1e80 overflows: that loop is unstable at its dt,
    # and the poles are not at fault
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", plant, "--mode", "closed", "--dt", "1e80",
                         "--t-final", "1e80", "--x0", "z=0.5", "--out", str(out_path))
    assert code == 4 and out == ""
    assert err == ("quadmodel: simulation refused: the sampled closed loop Phi - Gamma K "
                   "is unstable at dt=1e+80; use a smaller --dt or slower poles\n")
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pole,want", [("-1e100", 2), ("-1e80", 2), ("-2e77", 2), ("-1e60", 4),
                                       ("-1e-60", 0), ("-1e-78", 2), ("-1e-300", 2)])
def test_poles_beyond_float64_are_an_input_error_not_a_defect(capsys, params_file, tmp_path,
                                                              pole, want):
    # -1e100, -1e80 and -2e77 overflow the gains, -1e-78 underflows them to
    # subnormals and -1e-300 to 0; -1e60 has gains of about 1e237, designed
    # exactly and too fast for the default 1 ms step; -1e-60 has gains of
    # 1e-243, designed and checked exactly
    out_path, gains_path = tmp_path / "x.csv", tmp_path / "gains.json"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", f"--poles={pole}", "--x0", "z=0.5",
                         "--t-final", "0.01", "--out", str(out_path),
                         "--gains-out", str(gains_path))
    assert code == want and out == ""
    if want == 2:
        assert err == ("quadmodel: error: the requested poles are too extreme for float64: "
                       "a gain overflows or underflows, or a closed-loop entry overflows\n")
    elif want == 4:
        assert err == ("quadmodel: simulation refused: the sampled closed loop Phi - Gamma K "
                       "is unstable at dt=0.001; use a smaller --dt or slower poles\n")
    if want:
        assert not out_path.exists() and not gains_path.exists()
    else:
        assert err == ""
        assert np.all(np.isfinite(read_csv(out_path)[1]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("poles,blamed", [
    ((), "these parameters put the default poles' gains beyond float64"),
    (("--poles=-2",), "the requested poles are too extreme for float64"),
])
def test_default_poles_beyond_float64_blame_the_parameters(capsys, tmp_path, poles, blamed):
    # validate accepts d = 1e-200 with Ix = 1e200, and the default poles' torque
    # gains through the inverse mixer's 1/d leave float64: without --poles the
    # message names the parameters, not poles the user never gave
    params_path, out_path = tmp_path / "p.json", tmp_path / "x.csv"
    params_path.write_text('{"m": 1, "d": 1e-200, "c": 0.01, "Ix": 1e200, "Iy": 0.01, "Iz": 0.02}',
                           encoding="utf-8")
    code, out, err = run(capsys, "sim", "--dof", "3", "--params", str(params_path),
                         "--mode", "closed", *poles, "--t-final", "1", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == (f"quadmodel: error: {blamed}: a gain overflows or underflows, "
                   "or a closed-loop entry overflows\n")
    assert not out_path.exists()


@pytest.mark.filterwarnings("error")
def test_fast_poles_with_normal_gains_run_at_a_step_to_match(capsys, params_file, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", "--poles=-1e60", "--x0", "z=0.5",
                         "--dt", "1e-62", "--t-final", "1e-61", "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    _, rows = read_csv(out_path)
    assert rows.shape == (11, 17) and np.all(np.isfinite(rows))


def test_spread_poles_are_designed_and_run(capsys, params_file, tmp_path):
    # the dense 12th-degree check refused these valid poles; per chain they pass
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--mode", "closed", "--x0", "z=0.5",
                         "--poles", "z=-0.05,-100", "--poles", "roll=-0.05,-1,-2,-100",
                         "--poles", "pitch=-0.05,-1,-2,-100", "--poles", "yaw=-0.05,-100",
                         "--t-final", "1", "--out", str(out_path))
    assert code == 0 and out == "" and err == ""
    _, rows = read_csv(out_path)
    assert rows.shape == (1001, 17) and np.all(np.isfinite(rows))
    # the slow z pole holds z near its start; the fast one kills vz's transient
    assert 0.4 < rows[-1, 3] < 0.5


@pytest.mark.parametrize("command", ["model", "analyze", "sim"])
def test_parameters_whose_model_entries_overflow_are_exit_3(capsys, tmp_path, command):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"m": 1, "d": 0.25, "c": 0.01,
                                "Ix": 1e-310, "Iy": 0.01, "Iz": 0.02}))
    argv = [command, "--dof", "6", "--params", str(path)]
    if command == "sim":
        argv += ["--t-final", "1", "--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == ("quadmodel: invalid parameters: parameter Ix is too small: a model "
                   "entry divided by it overflows (got 1e-310)\n")


@pytest.mark.parametrize("dof,message", [
    (6, "unknown pole chain 'tilt'; choose from z, roll, pitch, yaw"),
    (3, "unknown pole chain 'z'; choose from roll, pitch, yaw"),
])
def test_pole_chain_names_come_from_the_chain_table(capsys, params_file, tmp_path, dof, message):
    name = "tilt" if dof == 6 else "z"
    code, out, err = run(capsys, "sim", "--dof", str(dof), "--params", params_file,
                         "--mode", "closed", "--poles", f"{name}=-1,-2", "--t-final", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
    assert err == f"quadmodel: error: {message}\n"
