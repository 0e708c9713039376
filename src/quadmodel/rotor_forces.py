"""Rotor thrust algebra: the 4x4 mixer from rotor forces to net thrust and
body torques, its closed-form inverse, and the scalar mix/demix pair.

Conventions (body frame): rotors 1 and 3 sit on the x-axis and spin
clockwise; rotors 2 and 4 sit on the y-axis and spin counter-clockwise.
Counter-clockwise reaction torque is positive, so rotors 2 and 4 contribute
+c*F to yaw and rotors 1 and 3 contribute -c*F.
"""

from __future__ import annotations

import math

from . import _twin
from ._record import Record
from .params import QuadParams

# Tilt magnitude beyond which sin(a) ~ a stops being a good approximation.
SMALL_ANGLE_LIMIT = 0.5  # rad

# Sign pattern S of the mixer M = diag(1, d, d, c) S. Rows: total thrust,
# roll, pitch, yaw torque; columns: F1..F4. S S^T = diag(4, 2, 2, 4).
_MIXER_SIGNS = (
    (1.0, 1.0, 1.0, 1.0),
    (0.0, 1.0, 0.0, -1.0),
    (1.0, 0.0, -1.0, 0.0),
    (-1.0, 1.0, -1.0, 1.0),
)


def _require_finite(kind: str, values: tuple[float, ...]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{kind} components must be finite, got {values!r}")


class RotorForces(Record):
    """Thrust of each rotor, newtons. Negative values are representable
    (so saturation can be detected) but flagged by is_physical."""

    f1: float
    f2: float
    f3: float
    f4: float

    def __post_init__(self):
        _require_finite("rotor forces", self.as_tuple())


class GeneralizedInput(Record):
    """Net upward force above weight plus the three body torques."""

    u1: float  # T - m*g       (N)
    u2: float  # roll torque   (N m, about body x)
    u3: float  # pitch torque  (N m, about body y)
    u4: float  # yaw torque    (N m, about body z)

    def __post_init__(self):
        _require_finite("generalized input", self.as_tuple())


def mixer_rows(p: QuadParams) -> list[list[float]]:
    """The 4x4 mixer M as nested lists: (T, U2, U3, U4) = M (F1, F2, F3, F4),
    with T the total thrust, so U1 = T - m g."""
    return [[s * k for s in row] for row, k in zip(_MIXER_SIGNS, (1.0, p.d, p.d, p.c))]


def mixer_inverse_rows(p: QuadParams) -> list[list[float]]:
    """M^-1 as nested lists, in closed form S^T diag(1/4, 1/(2d), 1/(2d),
    1/(4c)); exact up to the rounding of those four scales."""
    scales = (0.25, 1.0 / (2.0 * p.d), 1.0 / (2.0 * p.d), 1.0 / (4.0 * p.c))
    return [[s * k for s, k in zip(col, scales)] for col in zip(*_MIXER_SIGNS)]


def mix(f: RotorForces, p: QuadParams) -> GeneralizedInput:
    """Map four rotor thrusts to (net upward force, roll, pitch, yaw torque):
    M F minus the hover offset (m g, 0, 0, 0).

    Written out rather than as a matvec: d*(f2 - f4) keeps the digits that
    d*f2 - d*f4 loses on near-balanced rotors.
    """
    return GeneralizedInput(
        u1=f.f1 + f.f2 + f.f3 + f.f4 - p.m * p.g,
        u2=p.d * (f.f2 - f.f4),
        u3=p.d * (f.f1 - f.f3),
        u4=p.c * (-f.f1 + f.f2 - f.f3 + f.f4),
    )


def demix(u: GeneralizedInput, p: QuadParams) -> RotorForces:
    """Exact inverse of mix: the unique rotor-force quadruple producing ``u``.

    Never clamps: a commanded input that needs a rotor to pull downward
    comes back with a negative entry; use is_physical to detect saturation.
    """
    return RotorForces(*demix_values(u.u1, u.u2, u.u3, u.u4, p))


def demix_values(u1: float, u2: float, u3: float, u4: float, p: QuadParams) -> tuple:
    """M^-1 (u + (m g, 0, 0, 0)) written out, unchecked: overflow gives inf or NaN."""
    quarter = (u1 + p.m * p.g) / 4.0
    half_roll = u2 / (2.0 * p.d)
    half_pitch = u3 / (2.0 * p.d)
    quarter_yaw = u4 / (4.0 * p.c)
    return (
        quarter + half_pitch - quarter_yaw,
        quarter + half_roll + quarter_yaw,
        quarter - half_pitch - quarter_yaw,
        quarter - half_roll + quarter_yaw,
    )


def is_physical(f: RotorForces) -> bool:
    """True iff no rotor is asked to push downward (all thrusts >= 0)."""
    return f.f1 >= 0.0 and f.f2 >= 0.0 and f.f3 >= 0.0 and f.f4 >= 0.0


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
