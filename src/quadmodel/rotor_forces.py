"""Rotor thrust algebra: the 4x4 mixer from rotor forces to net thrust and
body torques, its closed-form inverse, and the scalar mix/demix pair.

Two written-out scalar maps state the mixer once: _mixed is M and _unmixed
is M^-1. The matrices are their values at the four unit vectors, mix and
demix add or remove the hover offset m g, and the nonlinear plant's step
reads its thrust and torques from _mixed.

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

# the four unit vectors, at which the two maps give the columns of M and M^-1
_UNIT = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))


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


def _mixed(f1: float, f2: float, f3: float, f4: float, p: QuadParams) -> tuple:
    """M F written out: the total thrust T and the roll, pitch and yaw
    torques of the rotor forces, unchecked.

    Written out rather than as a matvec: d*(f2 - f4) keeps the digits that
    d*f2 - d*f4 loses on near-balanced rotors.
    """
    return (
        f1 + f2 + f3 + f4,
        p.d * (f2 - f4),
        p.d * (f1 - f3),
        p.c * (-f1 + f2 - f3 + f4),
    )


def _unmixed(T: float, u2: float, u3: float, u4: float, p: QuadParams) -> tuple:
    """M^-1 (T, U2, U3, U4) written out, unchecked: overflow gives inf or NaN."""
    quarter = T / 4.0
    half_roll = u2 / (2.0 * p.d)
    half_pitch = u3 / (2.0 * p.d)
    quarter_yaw = u4 / (4.0 * p.c)
    return (
        quarter + half_pitch - quarter_yaw,
        quarter + half_roll + quarter_yaw,
        quarter - half_pitch - quarter_yaw,
        quarter - half_roll + quarter_yaw,
    )


def mixer_rows(p: QuadParams) -> list[list[float]]:
    """The 4x4 mixer M as nested lists: (T, U2, U3, U4) = M (F1, F2, F3, F4),
    with T the total thrust, so U1 = T - m g. Column j is _mixed at e_j."""
    return [list(row) for row in zip(*(_mixed(*e, p) for e in _UNIT))]


def mixer_inverse_rows(p: QuadParams) -> list[list[float]]:
    """M^-1 as nested lists, column j _unmixed at e_j: the closed form
    S^T diag(1/4, 1/(2d), 1/(2d), 1/(4c)) of M = diag(1, d, d, c) S, exact
    up to the rounding of those four scales."""
    return [list(row) for row in zip(*(_unmixed(*e, p) for e in _UNIT))]


def mix(f: RotorForces, p: QuadParams) -> GeneralizedInput:
    """Map four rotor thrusts to (net upward force, roll, pitch, yaw torque):
    M F minus the hover offset (m g, 0, 0, 0)."""
    T, u2, u3, u4 = _mixed(*f.as_tuple(), p)
    return GeneralizedInput(T - p.m * p.g, u2, u3, u4)


def demix(u: GeneralizedInput, p: QuadParams) -> RotorForces:
    """Exact inverse of mix: the unique rotor-force quadruple producing ``u``.

    Never clamps: a commanded input that needs a rotor to pull downward
    comes back with a negative entry; use is_physical to detect saturation.
    """
    return RotorForces(*demix_values(u.u1, u.u2, u.u3, u.u4, p))


def demix_values(u1: float, u2: float, u3: float, u4: float, p: QuadParams) -> tuple:
    """M^-1 (u + (m g, 0, 0, 0)), unchecked: overflow gives inf or NaN."""
    return _unmixed(u1 + p.m * p.g, u2, u3, u4, p)


def is_physical(f: RotorForces) -> bool:
    """True iff no rotor is asked to push downward (all thrusts >= 0)."""
    return f.f1 >= 0.0 and f.f2 >= 0.0 and f.f3 >= 0.0 and f.f4 >= 0.0


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
