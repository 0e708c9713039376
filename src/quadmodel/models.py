"""Builders for the two concrete vehicle models.

3DOF attitude model (6 states, inputs are the raw rotor thrusts):
    state   [phi, theta, psi, phi_dot, theta_dot, psi_dot]
    input   [F1, F2, F3, F4]
    output  [phi, theta, psi]

6DOF model (12 states, inputs are the generalized force/torques):
    state   [x, y, z, vx, vy, vz, phi, theta, psi, phi_dot, theta_dot, psi_dot]
    input   [U1, U2, U3, U4]
    output  [x, y, z, phi, theta, psi]

Both orderings are frozen; every CSV/JSON artifact uses these labels.
Signs follow the self-consistent reading of the source dynamics:
x_ddot = -g*theta, y_ddot = +g*phi, z_ddot = +U1/m, with U2/U3/U4 the
torques about body x/y/z respectively.

Both models are decoupled chains of integrators behind the rotor mixer,
and CHAINS_6DOF / CHAINS_3DOF state that structure once: the builders here,
the gain designs and the CLI pole parsing all read it. model_rows and
model_matrices give the matrices as nested lists, without numpy, for the
CLI.
"""

from __future__ import annotations

from . import _twin
from ._record import Record
from .params import QuadParams
from .rotor_forces import _UNIT, mixer_rows

ROTOR_FORCE_LABELS = ("F1", "F2", "F3", "F4")

DOF3_STATE_LABELS = ("phi", "theta", "psi", "phi_dot", "theta_dot", "psi_dot")
DOF3_INPUT_LABELS = ROTOR_FORCE_LABELS
DOF3_OUTPUT_LABELS = ("phi", "theta", "psi")

DOF6_STATE_LABELS = (
    "x", "y", "z", "vx", "vy", "vz",
    "phi", "theta", "psi", "phi_dot", "theta_dot", "psi_dot",
)
DOF6_INPUT_LABELS = ("U1", "U2", "U3", "U4")
DOF6_OUTPUT_LABELS = ("x", "y", "z", "phi", "theta", "psi")


class Chain(Record):
    """One chain of integrators, driven by one row of (U1, U2, U3, U4).

    name        its PoleSpec field
    input_row   the generalized input that drives it (0..3)
    states      state indices, most-integrated first; each is the
                integral of the next
    inertia     the QuadParams field the input divides by
    tilt        0 for a pure chain; +1 or -1 for a chain that runs from
                the body pair (angle, rate) through +g or -g into
                (position, velocity)
    """

    name: str
    input_row: int
    states: tuple[int, ...]
    inertia: str
    tilt: int = 0

    def coupling(self, p: QuadParams) -> float:
        """Scale of the velocity <- angle link: 1, +g or -g."""
        return self.tilt * p.g if self.tilt else 1.0


CHAINS_6DOF = (
    Chain("z", 0, (2, 5), "m"),
    Chain("roll", 1, (1, 4, 6, 9), "Ix", tilt=+1),
    Chain("pitch", 2, (0, 3, 7, 10), "Iy", tilt=-1),
    Chain("yaw", 3, (8, 11), "Iz"),
)
CHAINS_3DOF = (
    Chain("roll", 1, (0, 3), "Ix"),
    Chain("pitch", 2, (1, 4), "Iy"),
    Chain("yaw", 3, (2, 5), "Iz"),
)
CHAINS = {6: CHAINS_6DOF, 3: CHAINS_3DOF}

LABELS = {
    6: (DOF6_STATE_LABELS, DOF6_INPUT_LABELS, DOF6_OUTPUT_LABELS),
    3: (DOF3_STATE_LABELS, DOF3_INPUT_LABELS, DOF3_OUTPUT_LABELS),
}

def model_rows(p: QuadParams, dof: int) -> tuple[list, list]:
    """A and B of the dof model as nested lists, from its chain table, for
    parameters already validated. Row r of the input map gives chain input
    r from the model's inputs (the identity for 6DOF, the mixer for 3DOF);
    the last state of the chain it drives gets B row input_map[r] / inertia."""
    chains = CHAINS[dof]
    input_map = _UNIT if dof == 6 else mixer_rows(p)
    n = sum(len(ch.states) for ch in chains)
    A = [[0.0] * n for _ in range(n)]
    B = [[0.0] * 4 for _ in range(n)]
    for ch in chains:
        s = ch.states
        for i in range(len(s) - 1):
            A[s[i]][s[i + 1]] = 1.0
        if ch.tilt:
            A[s[1]][s[2]] = ch.coupling(p)  # velocity <- angle
        inertia = getattr(p, ch.inertia)
        B[s[-1]] = [v / inertia for v in input_map[ch.input_row]]
    return A, B


def model_matrices(p: QuadParams, dof: int) -> tuple[list, list, list, list]:
    """A, B, C and D of the dof model as nested lists: model_rows, then C,
    which reads the state of each output's label, and D = 0."""
    state_labels, input_labels, output_labels = LABELS[dof]
    C = [[float(s == y) for s in state_labels] for y in output_labels]
    D = [[0.0] * len(input_labels) for _ in output_labels]
    return (*model_rows(p, dof), C, D)


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
