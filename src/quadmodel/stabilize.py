"""Full-state feedback synthesis by pole placement on integrator chains.

Both models decompose into the decoupled chains of pure integrators that
models.CHAINS_6DOF and models.CHAINS_3DOF list: per chain its input row,
its states (most-integrated first), the inertia its input divides by, and
its tilt coupling (1, +g or -g).

On a chain of k integrators with input gain b, the feedback row in
"derivative coordinates" (most-integrated state first) that realizes a
monic target polynomial s^k + a1 s^(k-1) + ... + ak is simply
k_j = a_(k-j+1) / b -- Ackermann collapses to reading coefficients off the
companion form. The derivative coordinates scale the chain's angle and
rate by its coupling, so those gain entries scale by it too. The 3DOF
design happens in torque space and is then pushed through the torque
columns of the inverse mixer into rotor-force space, zero net-thrust
offset.

Feedback convention: u = r - K x, with r defaulting to the hover
equilibrium input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import char_poly, is_hurwitz
from .models import CHAINS_3DOF, CHAINS_6DOF, build_3dof, build_6dof
from .params import QuadParams
from .rotor_forces import mixer_inverse


class PolePlacementError(ValueError):
    """Requested placement is malformed."""


class UnstablePoleRequested(PolePlacementError):
    pass


class PoleCountMismatch(PolePlacementError):
    pass


class ZeroInputGain(PolePlacementError):
    pass


class InternalStabilityCheckFailed(RuntimeError):
    """The synthesized closed loop failed its own Hurwitz check. Should be
    impossible for valid inputs; treated as a defect signal, not a user
    error."""


def _validate_pole_set(name: str, poles: tuple) -> tuple[complex, ...]:
    out = tuple(complex(s) for s in poles)
    for s in out:
        if not (np.isfinite(s.real) and np.isfinite(s.imag)):
            raise PolePlacementError(f"{name} pole {s!r} is not finite")
        if s.real >= 0.0:
            raise UnstablePoleRequested(
                f"{name} pole {s!r} is not strictly in the left half-plane"
            )
    conjugates = sorted((s.conjugate() for s in out), key=lambda s: (s.real, s.imag))
    if sorted(out, key=lambda s: (s.real, s.imag)) != conjugates:
        raise PolePlacementError(
            f"{name} poles must be closed under conjugation, got {poles!r}"
        )
    return out


@dataclass(frozen=True)
class PoleSpec:
    """Desired closed-loop pole multisets per chain: one pole per state of
    the chain in models.CHAINS_6DOF or models.CHAINS_3DOF, none for a chain
    the model lacks."""

    z: tuple = ()
    roll: tuple = ()
    pitch: tuple = ()
    yaw: tuple = ()

    def __post_init__(self):
        for name in ("z", "roll", "pitch", "yaw"):
            object.__setattr__(self, name, _validate_pole_set(name, getattr(self, name)))

    @classmethod
    def uniform_6dof(cls, pole: complex = -2.0) -> "PoleSpec":
        """Every chain placed at a single repeated pole (6DOF chain sizes)."""
        return cls(**{ch.name: (pole,) * len(ch.states) for ch in CHAINS_6DOF})

    @classmethod
    def uniform_3dof(cls, pole: complex = -2.0) -> "PoleSpec":
        """Every attitude axis placed at a single repeated pole."""
        return cls(**{ch.name: (pole,) * len(ch.states) for ch in CHAINS_3DOF})


@dataclass(frozen=True)
class GainMatrix:
    """Feedback gains for u = r - K x, with the target model's labels."""

    K: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def __post_init__(self):
        k = np.array(self.K, dtype=float)
        if k.shape != (len(self.input_labels), len(self.state_labels)):
            raise PolePlacementError(
                f"gain shape {k.shape} does not match labels "
                f"({len(self.input_labels)} inputs, {len(self.state_labels)} states)"
            )
        k.setflags(write=False)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))

    def feedback_input(self, x, r=None) -> np.ndarray:
        """u = r - K x (r defaults to zero, the hover equilibrium in the
        deviation coordinates both designs use)."""
        u = -self.K @ np.asarray(x, dtype=float)
        if r is not None:
            u = np.asarray(r, dtype=float) + u
        return u


def poles_to_monic(poles) -> np.ndarray:
    """Expand prod (s - p_i) into real monic coefficients.

    Conjugate-closed inputs are required, so the imaginary residue is pure
    rounding; it is checked and dropped.
    """
    coeffs = np.array([1.0 + 0.0j])
    for s in poles:
        coeffs = np.convolve(coeffs, np.array([1.0, -complex(s)]))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if float(np.max(np.abs(coeffs.imag))) > 1e-9 * scale:
        raise PolePlacementError(f"pole set {tuple(poles)!r} is not conjugate-closed")
    return coeffs.real


def place_integrator_chain(chain_order: int, input_gain: float, poles) -> np.ndarray:
    """Gain row stabilizing a pure integrator chain.

    chain_order   number of integrators (the chain's state dimension)
    input_gain    scalar b in w_k' = b u; must be nonzero
    poles         chain_order desired poles, strictly left half-plane

    Returns gains (k_1 ... k_k) on the chain states ordered most-integrated
    first, so that u = -sum k_j w_j gives the target polynomial exactly.
    """
    poles = _validate_pole_set("chain", tuple(poles))
    if len(poles) != chain_order:
        raise PoleCountMismatch(
            f"chain of order {chain_order} needs exactly {chain_order} poles, "
            f"got {len(poles)}"
        )
    if input_gain == 0.0 or not np.isfinite(input_gain):
        raise ZeroInputGain(f"input gain must be nonzero and finite, got {input_gain!r}")
    target = poles_to_monic(poles)  # [1, a1, ..., ak]
    return target[1:][::-1] / input_gain


def design_6dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x12 feedback gain for the 6DOF model, one chain per input row.

    The pitch->x chain carries the -g tilt coupling, so its theta entries
    flip sign relative to the roll->y chain; the internal Hurwitz check at
    the end would catch any regression there.
    """
    model = build_6dof(p)  # validates p first
    _check_pole_counts(spec, CHAINS_6DOF, "6DOF", "chain")
    K = _chain_gains(p, spec, CHAINS_6DOF, model.n)
    _check_closed_loop(model.A - model.B @ K)
    return GainMatrix(K, model.state_labels, model.input_labels)


def design_3dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x6 feedback gain for the 3DOF model, in rotor-force input space.

    Each axis is placed as a 2nd-order chain in torque space; the torque
    rows are then mapped to the four rotor forces by the torque columns of
    the inverse mixer, with zero net-thrust offset (the attitude states
    never see total thrust, so the offset is free and zero keeps gains
    small).
    """
    model = build_3dof(p)  # validates p first
    _check_pole_counts(spec, CHAINS_3DOF, "3DOF", "axis")
    K = mixer_inverse(p)[:, 1:] @ _chain_gains(p, spec, CHAINS_3DOF, model.n)[1:]
    _check_closed_loop(model.A - model.B @ K)
    return GainMatrix(K, model.state_labels, model.input_labels)


def _check_pole_counts(spec: PoleSpec, chains, model: str, noun: str) -> None:
    """Each chain of the table gets its own count; a chain the model lacks gets none."""
    sizes = {ch.name: len(ch.states) for ch in chains}
    for name, poles in vars(spec).items():
        got, need = len(poles), sizes.get(name, 0)
        if got != need:
            raise PoleCountMismatch(f"{model} {name} {noun} needs {need} poles, got {got}")


def _chain_gains(p: QuadParams, spec: PoleSpec, chains, n: int) -> np.ndarray:
    """4 x n gains in generalized-input space, one row per chain's input."""
    K = np.zeros((4, n))
    for ch in chains:
        s, coupling = ch.states, ch.coupling(p)
        b = coupling / getattr(p, ch.inertia)
        k = place_integrator_chain(len(s), b, getattr(spec, ch.name))
        for j, kj in enumerate(k.tolist()):
            # derivative coordinates scale the chain's (angle, rate) by its coupling
            K[ch.input_row, s[j]] = kj * coupling if j >= len(s) - 2 else kj
    return K


def _check_closed_loop(a_closed: np.ndarray) -> None:
    if not is_hurwitz(char_poly(a_closed)):
        raise InternalStabilityCheckFailed(
            "synthesized closed loop is not Hurwitz; this indicates a defect "
            "in the chain/gain bookkeeping, not in the request"
        )
