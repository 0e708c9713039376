"""Quadcopter LTI state-space toolkit: parameters, rotor-force algebra,
model construction, structural analysis, simulation, and stabilization."""

from .analysis import (
    MARGINAL_OR_UNSTABLE,
    STRICTLY_STABLE,
    AnalysisReport,
    analyze,
    controllability_matrix,
    controllability_rank,
    observability_matrix,
    observability_rank,
)
from .linalg import (
    DimensionMismatch,
    NotNilpotent,
    NotSquare,
    StateSpaceModel,
    char_poly,
    expm_nilpotent,
    is_hurwitz,
    nilpotency_index,
    rank,
)
from .models import (
    CHAINS_3DOF,
    CHAINS_6DOF,
    DOF3_INPUT_LABELS,
    DOF3_OUTPUT_LABELS,
    DOF3_STATE_LABELS,
    DOF6_INPUT_LABELS,
    DOF6_OUTPUT_LABELS,
    DOF6_STATE_LABELS,
    ROTOR_FORCE_LABELS,
    build_3dof,
    build_6dof,
)
from .params import (
    NonFiniteParameter,
    NonPositiveParameter,
    ParameterError,
    QuadParams,
    hover_thrust_per_rotor,
    validate,
)
from .rotor_forces import (
    SMALL_ANGLE_LIMIT,
    GeneralizedInput,
    RotorForces,
    demix,
    is_physical,
    mix,
    mixer,
    mixer_inverse,
)
from .simulate import (
    NonFiniteDerivative,
    NonFiniteState,
    SimConfig,
    StepCountExceeded,
    Trajectory,
    nonlinear_deriv,
    rk4_step,
    simulate,
    simulate_feedback,
    simulate_nonlinear,
    zoh_discretize,
    zoh_step,
)
from .stabilize import (
    GainMatrix,
    InternalStabilityCheckFailed,
    PoleCountMismatch,
    PolePlacementError,
    PoleSpec,
    UnstablePoleRequested,
    UnstableSampledLoop,
    ZeroInputGain,
    check_sampled_loop,
    design_3dof_gains,
    design_6dof_gains,
    place_integrator_chain,
    poles_to_monic,
)

__version__ = "0.1.0"
