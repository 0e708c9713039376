import json
from pathlib import Path

import numpy as np
import pytest

from quadmodel.cli import main

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
    code, out, err = run(capsys, "analyze", "--dof", "6", "--params", params_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["controllability_rank"] == 12
    assert doc["observability_rank"] == 12
    assert doc["stability_class"] == "marginal_or_unstable"
    assert doc["nilpotency_index"] == 4

    _, out3, _ = run(capsys, "analyze", "--dof", "3", "--params", params_file)
    assert json.loads(out3)["nilpotency_index"] == 2


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


def test_nonlinear_angle_overflow_is_exit_4(capsys, params_file, tmp_path):
    # theta grows by 1e307 rad/s until math.sin would see an infinite angle
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--plant", "nonlinear", "--x0", "theta_dot=1e307",
                         "--t-final", "30", "--dt", "0.01",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 4 and out == ""
    assert err == ("quadmodel: simulation failed: derivative produced non-finite "
                   "values on the step at t=17.97\n")


def test_bad_dt_is_exit_2(capsys, params_file, tmp_path):
    code, out, err = run(capsys, "sim", "--dof", "6", "--params", params_file,
                         "--t-final", "1", "--dt", "2",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 2 and out == ""
