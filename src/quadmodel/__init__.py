"""Quadcopter LTI state-space toolkit: parameters, rotor-force algebra,
model construction, structural analysis, simulation, and stabilization.

The package is split in two. The float core (every module but arrays)
works on nested lists of Python floats and the exact integer kernel, and
every CLI command runs on it alone. The numpy face (quadmodel.arrays)
holds the records and functions on float64 arrays, for library callers.

Names resolve lazily (PEP 562), here and in each core module: a name is
imported from its module on first access and then cached. A name that
_EXPORTS homes in a core module that does not define it is its numpy twin
(linalg.StateSpaceModel, simulate.simulate, ...), which the module loads
from the numpy face only when it is first asked for. So `import quadmodel`
and every CLI command import no numpy. `quadmodel.simulate` (and `from
quadmodel import simulate`) is the function simulate, as an eager package
bound it, even after its module is imported; `importlib.import_module(
"quadmodel.simulate")` gives the module.
"""

import sys
from importlib import import_module

# each line: a module, then names it exports (a module may take more lines)
_EXPORTS = """
analysis MARGINAL_OR_UNSTABLE STRICTLY_STABLE AnalysisReport analyze controllability_matrix
analysis controllability_rank observability_matrix observability_rank
linalg DimensionMismatch NotNilpotent NotSquare StateSpaceModel char_poly expm_nilpotent
linalg is_hurwitz nilpotency_index rank
models CHAINS_3DOF CHAINS_6DOF DOF3_INPUT_LABELS DOF3_OUTPUT_LABELS DOF3_STATE_LABELS
models DOF6_INPUT_LABELS DOF6_OUTPUT_LABELS DOF6_STATE_LABELS ROTOR_FORCE_LABELS build_3dof
models build_6dof
params NonFiniteParameter NonPositiveParameter ParameterError QuadParams hover_thrust_per_rotor
params validate
rotor_forces SMALL_ANGLE_LIMIT GeneralizedInput RotorForces demix is_physical mix mixer
rotor_forces mixer_inverse
simulate NonFiniteDerivative NonFiniteState SimConfig StepCountExceeded Trajectory rk4_step
simulate nonlinear_deriv simulate simulate_feedback simulate_nonlinear zoh_discretize zoh_step
stabilize GainMatrix InternalStabilityCheckFailed PoleCountMismatch PolePlacementError PoleSpec
stabilize UnstablePoleRequested UnstableSampledLoop ZeroInputGain check_sampled_loop
stabilize design_3dof_gains design_6dof_gains place_integrator_chain poles_to_monic
cli write_trajectory_csv
"""
_HOME = {name: line.split()[0] for line in _EXPORTS.split("\n") for name in line.split()[1:]}
_MODULES = set(_HOME.values())
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME and name not in _MODULES:  # a submodule is its own home
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    value = getattr(module, name) if name in _HOME else module
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _MODULES)


def _twin(module: str, name: str):
    """The __getattr__ of a core module: a name that _EXPORTS homes in it,
    which it does not define, from the numpy face, cached in the module."""
    if _HOME.get(name) != module.rpartition(".")[2]:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.arrays"), name)
    setattr(sys.modules[module], name, value)
    return value


class _Package(type(sys)):
    def __setattr__(self, name, value):
        # the import system binds each submodule it loads here; the module
        # simulate must not hide the function, which __getattr__ finds
        if name != "simulate" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
