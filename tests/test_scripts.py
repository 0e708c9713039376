import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadmodel.cli import main

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
PARAMS = str(ROOT / "params.example.json")


def run_script(name, *argv, cwd):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--params", PARAMS,
                           *argv], capture_output=True, text=True, env=ENV, cwd=cwd, check=False)


UNSTABLE = ("closed_loop_demo.py: simulation refused: the sampled closed loop Phi - Gamma K is "
            "unstable at the demo's fixed 1 ms step; use a slower --pole")


@pytest.mark.parametrize("argv,code,line", [
    pytest.param("--pole=-3000 --t-final 1", 4, UNSTABLE, id="unstable-at-dt"),
    pytest.param("--pole=-1e60 --t-final 1", 4, UNSTABLE, id="normal-gains-unstable-at-dt"),
    pytest.param("--pole=-1e80 --t-final 1", 2, "closed_loop_demo.py: error: the requested poles "
                 "are too extreme for float64: a gain overflows or underflows, or a closed-loop "
                 "entry overflows", id="beyond-float64"),
    pytest.param("--t-final 0", 2, "closed_loop_demo.py: error: need 0 < dt <= t_final, got "
                 "dt=0.001, t_final=0.0", id="horizon-below-the-step"),
    pytest.param("--t-final 1e5", 2, "closed_loop_demo.py: error: t_final/dt = 1e+08 exceeds the "
                 "10000000 step guard", id="horizon-beyond-the-step-guard"),
])
def test_closed_loop_demo_refuses_as_sim_does(tmp_path, argv, code, line):
    out = tmp_path / "demo.csv"
    proc = run_script("closed_loop_demo.py", *argv.split(), "--out", str(out), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n")
    assert not out.exists()


def test_closed_loop_demo_writes_the_csv_of_sim(tmp_path):
    # the demo's start, poles and horizon as sim flags: the same run, the same bytes
    demo = run_script("closed_loop_demo.py", "--out", str(tmp_path / "demo.csv"), cwd=tmp_path)
    assert (demo.returncode, demo.stderr) == (0, "")
    # criterion 6's 1e-3 crossing of the (s+2)^n closed form, at 6.922 s
    assert "\nnorm first drops below 1e-3 of initial at t = 6.922 s\n" in demo.stdout
    assert main(["sim", "--dof", "6", "--params", PARAMS, "--mode", "closed", "--x0",
                 "x=0.5,y=0.5,z=0.5,phi=0.05,theta=0.05", "--t-final", "10",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert (tmp_path / "demo.csv").read_bytes() == (tmp_path / "sim.csv").read_bytes()


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    """The rows of the sweep's --out, as strings."""
    tmp_path = tmp_path_factory.mktemp("sweep")
    proc = run_script("linearization_sweep.py", "--out", str(tmp_path / "sweep.csv"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_linearization_sweep_linear_leg_is_the_closed_form_fall(sweep_rows):
    # from hover at pitch theta0 the linear model's x' = v, v' = -g theta0
    # holds theta0, so x(1 s) = -g theta0 / 2; the nonlinear plant falls short
    # of that by more the larger theta0 is
    g = json.loads(Path(PARAMS).read_text(encoding="utf-8"))["g"]
    for row in sweep_rows:
        theta0, x_linear = float(row["theta0"]), float(row["x_linear"])
        assert x_linear == pytest.approx(-g * theta0 / 2, rel=1e-12, abs=0)
        # the gap bound: held hover thrust tilted by theta0 gives x'' = -g sin theta0,
        # which RK4 integrates exactly, so the nonlinear leg falls short of the
        # linear one by 1 - sin(theta0)/theta0 <= theta0^2 / 6
        assert float(row["x_nonlinear"]) == pytest.approx(-g * math.sin(theta0) / 2, rel=1e-12,
                                                          abs=0)
        gap = 1 - math.sin(theta0) / theta0
        assert float(row["relative_divergence"]) == pytest.approx(gap, rel=0, abs=1e-12)
        assert gap <= theta0 ** 2 / 6
    divergence = [float(row["relative_divergence"]) for row in sweep_rows]
    assert all(a < b for a, b in zip(divergence, divergence[1:]))


@pytest.mark.parametrize("plant,column", [("linear", "x_linear"), ("nonlinear", "x_nonlinear")])
def test_linearization_sweep_legs_are_sim_open_runs(sweep_rows, tmp_path, plant, column):
    # each leg's x is the last row's x of sim --mode open from pitch theta0,
    # both written as %.17g: the same run gives the same string
    out = tmp_path / "sim.csv"
    for row in (sweep_rows[0], sweep_rows[-1]):
        assert main(["sim", "--dof", "6", "--params", PARAMS, "--plant", plant, "--mode", "open",
                     "--x0", f"theta={row['theta0']}", "--t-final", "1", "--dt", "1e-4",
                     "--out", str(out)]) == 0
        *_, last = out.read_text(encoding="utf-8").splitlines()
        assert last.split(",")[1] == row[column]


@pytest.mark.parametrize("script,argv", [
    pytest.param("closed_loop_demo.py", ["--t-final", "1"], id="demo"),
    pytest.param("linearization_sweep.py", [], id="sweep"),
])
@pytest.mark.parametrize("out,reason", [
    pytest.param("adir", "[Errno 21] Is a directory: 'adir'", id="directory"),
    pytest.param("", "[Errno 2] No such file or directory: ''", id="empty"),
])
def test_scripts_refuse_an_unwritable_out_before_the_run(tmp_path, script, argv, out, reason):
    # as sim does: one line on stderr and exit 2, before the report is printed
    (tmp_path / "adir").mkdir()
    proc = run_script(script, *argv, "--out", out, cwd=tmp_path)
    line = f"{script}: error: cannot write output file {out!r}: {reason}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)
    assert [path.name for path in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())
