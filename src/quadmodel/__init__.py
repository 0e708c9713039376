"""Quadcopter LTI state-space toolkit: parameters, rotor-force algebra,
model construction, structural analysis, simulation, and stabilization.

The package is lazy (PEP 562): each name is imported from its module on
first access and then cached here, so `import quadmodel` and the linear
`quadmodel sim` never import numpy. Loading a submodule binds its name
here, so `quadmodel.simulate` (and `from quadmodel import simulate`) is the
function simulate, bound once over its module, as an eager package bound
it; `importlib.import_module("quadmodel.simulate")` gives the module.
"""

from importlib import import_module

from .simulate import simulate

# each line: a module, then names it defines (a module may take more lines)
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
