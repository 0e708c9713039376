"""Physical parameter set of the vehicle. SI units throughout."""

from __future__ import annotations

import math

from ._record import Record


class ParameterError(ValueError):
    """A physical parameter violates its invariant."""

    def __init__(self, name: str, value: float, reason: str):
        super().__init__(f"parameter {name} {reason} (got {value!r})")
        self.name = name
        self.value = value


class NonPositiveParameter(ParameterError):
    def __init__(self, name: str, value: float):
        super().__init__(name, value, "must be strictly positive")


class NonFiniteParameter(ParameterError):
    def __init__(self, name: str, value: float):
        super().__init__(name, value, "must be finite")


class QuadParams(Record):
    """Physical constants every model builder and simulator consumes.

    m          total mass                              (kg)
    d          rotor-to-center moment arm              (m)
    c          force-to-moment scaling factor: one     (m)
               rotor's yaw reaction torque is +-c times its thrust
    Ix, Iy, Iz principal moments of inertia            (kg m^2)
    g          gravitational acceleration              (m/s^2)
    """

    m: float
    d: float
    c: float
    Ix: float
    Iy: float
    Iz: float
    g: float = 9.81


def validate(p: QuadParams) -> QuadParams:
    """Return ``p`` unchanged iff every parameter is finite and > 0 and
    every quotient the models, their Kalman matrices and the inverse mixer
    take of them stays finite: 1/m, then 1, d and g over Ix and Iy, 1 and
    c over Iz, and 1/(2d), 1/(4c), whose divisors 2d and 4c must be finite
    too.

    Raises NonFiniteParameter or NonPositiveParameter naming the first
    offending field, or ParameterError naming the divisor of the first
    quotient that overflows (Ix = 1e-310 makes 1/Ix infinite), or d or c
    where 2d or 4c overflows (d = 2^1023: 1/(2d) would read 0, not the
    subnormal 2^-1024).
    """
    for name, v in zip(p._fields, p.as_tuple()):
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)):
            raise NonFiniteParameter(name, v)
        if not math.isfinite(v):
            raise NonFiniteParameter(name, v)
        if v <= 0.0:
            raise NonPositiveParameter(name, v)
    arm = max(1.0, p.d, p.g)
    for name, quotient in (
        ("m", 1.0 / p.m),
        ("Ix", arm / p.Ix),
        ("Iy", arm / p.Iy),
        ("Iz", max(1.0, p.c) / p.Iz),
        ("d", 1.0 / (2.0 * p.d)),
        ("c", 1.0 / (4.0 * p.c)),
    ):
        if not math.isfinite(quotient):
            raise ParameterError(
                name, getattr(p, name), "is too small: a model entry divided by it overflows"
            )
    for name, scale in (("d", 2.0), ("c", 4.0)):
        if not math.isfinite(scale * getattr(p, name)):
            raise ParameterError(name, getattr(p, name),
                                 f"is too large: {scale:g}{name} in the inverse mixer overflows")
    return p


def hover_thrust_per_rotor(p: QuadParams) -> float:
    """Thrust each rotor holds in hover: m*g split evenly over four rotors.

    Pure arithmetic; validation is the caller's explicit gate so that
    degenerate inputs (e.g. g = 0) still evaluate.
    """
    return p.m * p.g / 4.0
