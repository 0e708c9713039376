"""The lazy package namespace, and CLI commands that import neither numpy
nor the numpy face, quadmodel.arrays."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadmodel

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

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


# the modules the CLI commands and the package import need not load
HEAVY = ("numpy", "dataclasses", "inspect", "typing")
FACE = "quadmodel.arrays"  # the numpy face: library callers only


def _imported_modules(*argv):
    """The modules a fresh interpreter imports running argv, by -X importtime.
    -S leaves out site, whose .pth files may import typing (certifi's does)
    before quadmodel could, and site-packages, so numpy cannot load at all."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", *argv],
                          capture_output=True, text=True, env=ENV, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def _heavy(imported):
    return [m for m in imported if m.split(".")[0] in HEAVY]


@pytest.mark.parametrize("dof", [6, 3])
@pytest.mark.parametrize("mode", ["closed", "open"])
def test_linear_sim_imports_no_numpy(tmp_path, dof, mode):
    imported = _imported_modules(
        "-m", "quadmodel", "sim", "--dof", str(dof), "--params", "params.example.json",
        "--mode", mode, "--x0", "phi=0.1", "--t-final", "0.05", "--out", str(tmp_path / "o.csv"))
    assert "quadmodel.stabilize" in imported
    assert _heavy(imported) == []
    assert FACE not in imported
    assert (tmp_path / "o.csv").read_text().startswith("t,")


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_nonlinear_sim_imports_no_numpy(tmp_path, mode):
    imported = _imported_modules(
        "-m", "quadmodel", "sim", "--dof", "6", "--plant", "nonlinear", "--params",
        "params.example.json", "--mode", mode, "--x0", "theta=0.05", "--t-final", "0.05",
        "--out", str(tmp_path / "o.csv"))
    assert _heavy(imported) == []
    assert FACE not in imported
    assert (tmp_path / "o.csv").read_text().startswith("t,")


def test_importing_the_package_imports_no_numpy():
    imported = _imported_modules("-c", "import quadmodel")
    assert "quadmodel" in imported
    assert _heavy(imported) == []
    assert FACE not in imported


@pytest.mark.parametrize("argv",["model --dof 6", "model --dof 3 --format pretty",
                                  "analyze --dof 6", "analyze --dof 3"])
def test_model_and_analyze_import_no_numpy(argv):
    imported = _imported_modules("-m", "quadmodel", *argv.split(), "--params",
                                 "params.example.json")
    assert "quadmodel.models" in imported
    assert _heavy(imported) == []
    assert FACE not in imported


@pytest.mark.parametrize("first", ["import quadmodel.cli",
                                   "importlib.import_module('quadmodel.simulate')"])
def test_simulate_stays_the_function_after_its_module_loads(first):
    """The import system binds a submodule it loads on the package; the
    module simulate must not hide the function of the same name."""
    code = f"""
import importlib, sys, quadmodel
{first}
assert {FACE!r} not in sys.modules
module = sys.modules["quadmodel.simulate"]
assert importlib.import_module("quadmodel.simulate") is module
assert quadmodel.simulate is module.simulate is sys.modules[{FACE!r}].simulate
from quadmodel import simulate
assert simulate is quadmodel.simulate and callable(simulate)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
