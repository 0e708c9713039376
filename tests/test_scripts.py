import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("pole,code,line", [
    pytest.param("-3000", 4, "closed_loop_demo.py: simulation refused: the sampled closed loop "
                 "Phi - Gamma K is unstable at the demo's fixed 1 ms step; use a slower --pole",
                 id="unstable-at-dt"),
    pytest.param("-1e60", 2, "closed_loop_demo.py: error: the requested poles are too extreme "
                 "for float64: a gain or a closed-loop check coefficient overflows or underflows",
                 id="beyond-float64"),
])
def test_closed_loop_demo_refuses_as_sim_does(tmp_path, pole, code, line):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "demo.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "closed_loop_demo.py"),
         "--params", str(ROOT / "params.example.json"), f"--pole={pole}",
         "--t-final", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n")
    assert not out.exists()
