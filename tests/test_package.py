"""The lazy package namespace, and the linear `quadmodel sim` without numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadmodel

ROOT = Path(__file__).resolve().parents[1]

# the names an eager quadmodel/__init__ bound, by defining module
EAGER = {
    "analysis": "AnalysisReport MARGINAL_OR_UNSTABLE STRICTLY_STABLE analyze "
                "controllability_matrix controllability_rank observability_matrix "
                "observability_rank",
    "linalg": "DimensionMismatch NotNilpotent NotSquare StateSpaceModel char_poly "
              "expm_nilpotent is_hurwitz nilpotency_index rank",
    "models": "CHAINS_3DOF CHAINS_6DOF DOF3_INPUT_LABELS DOF3_OUTPUT_LABELS DOF3_STATE_LABELS "
              "DOF6_INPUT_LABELS DOF6_OUTPUT_LABELS DOF6_STATE_LABELS ROTOR_FORCE_LABELS "
              "build_3dof build_6dof",
    "params": "NonFiniteParameter NonPositiveParameter ParameterError QuadParams "
              "hover_thrust_per_rotor validate",
    "rotor_forces": "GeneralizedInput RotorForces SMALL_ANGLE_LIMIT demix is_physical mix "
                    "mixer mixer_inverse",
    "simulate": "NonFiniteDerivative NonFiniteState SimConfig StepCountExceeded Trajectory "
                "nonlinear_deriv rk4_step simulate simulate_feedback simulate_nonlinear "
                "zoh_discretize zoh_step",
    "stabilize": "GainMatrix InternalStabilityCheckFailed PoleCountMismatch PolePlacementError "
                 "PoleSpec UnstablePoleRequested UnstableSampledLoop ZeroInputGain "
                 "check_sampled_loop design_3dof_gains design_6dof_gains "
                 "place_integrator_chain poles_to_monic",
}
# submodules the eager package bound; its simulate was the function
EAGER_MODULES = ("analysis", "linalg", "models", "params", "rotor_forces", "stabilize")


def test_every_eager_name_resolves_to_its_defining_object():
    listed = dir(quadmodel)
    for module, names in EAGER.items():
        defining = importlib.import_module(f"quadmodel.{module}")
        for name in names.split():
            assert getattr(quadmodel, name) is getattr(defining, name), name
            assert name in listed, name
    for module in EAGER_MODULES:
        assert getattr(quadmodel, module) is sys.modules[f"quadmodel.{module}"]
        assert module in listed


def test_unknown_names_raise_and_submodules_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadmodel.no_such_name  # noqa: B018
    assert not hasattr(quadmodel, "numpy")
    from quadmodel import cli

    assert cli.main is sys.modules["quadmodel.cli"].main


def _imported_modules(*argv):
    """The modules a fresh interpreter imports running argv, by -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=env, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("dof", [6, 3])
@pytest.mark.parametrize("mode", ["closed", "open"])
def test_linear_sim_imports_no_numpy(tmp_path, dof, mode):
    imported = _imported_modules(
        "-m", "quadmodel", "sim", "--dof", str(dof), "--params", "params.example.json",
        "--mode", mode, "--x0", "phi=0.1", "--t-final", "0.05", "--out", str(tmp_path / "o.csv"))
    assert "quadmodel.stabilize" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []
    assert (tmp_path / "o.csv").read_text().startswith("t,")


def test_importing_the_package_imports_no_numpy():
    imported = _imported_modules("-c", "import quadmodel")
    assert "quadmodel" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []
