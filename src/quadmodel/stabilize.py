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

Every design checks the closed loop A - B K it produced, chain block by
chain block: the entries outside the blocks must vanish, and each block
of at most four states must be Hurwitz (char_poly + is_hurwitz). The
check reads the matrix, and its chain table from the matrix's state
count. check_sampled_loop applies the same rule to the sampled loop
Phi - Gamma K of a run on either plant: RK4 with held forces is exact on
the nilpotent A, so Phi - Gamma K is the nonlinear step's Jacobian at
hover. A request whose gains are not normal float64 numbers (true gains
of left-half-plane poles are finite and nonzero), or whose check
overflows, is refused as a PolePlacementError, not reported as a defect;
a sampled loop that leaves float64 is unstable at its dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import StateSpaceModel, char_poly, is_hurwitz
from .models import CHAINS_3DOF, CHAINS_6DOF, build_3dof, build_6dof
from .params import QuadParams
from .rotor_forces import mixer_inverse
from .simulate import zoh_discretize

_NORMAL_MIN = np.finfo(float).tiny
_OUT_OF_RANGE = ("the requested poles are too extreme for float64: a gain or a "
                 "closed-loop check coefficient overflows or underflows")


class PolePlacementError(ValueError):
    """Requested placement is malformed, or too extreme for float64."""


class UnstablePoleRequested(PolePlacementError):
    pass


class PoleCountMismatch(PolePlacementError):
    pass


class ZeroInputGain(PolePlacementError):
    pass


class InternalStabilityCheckFailed(RuntimeError):
    """The synthesized closed loop A - B K failed its own check: an entry
    outside the chain blocks does not vanish, or a chain block is not
    Hurwitz. Should be impossible for valid inputs whose gains stay finite
    and nonzero; treated as a defect signal, not a user error."""


class UnstableSampledLoop(RuntimeError):
    """The sampled closed loop Phi - Gamma K of a run is not stable at its
    step: some |z| >= 1, so the run would diverge. The poles are too fast
    for the dt asked for; refused before the run."""


def _validate_pole_set(name: str, poles: tuple) -> tuple[complex, ...]:
    out = tuple(complex(s) for s in poles)
    for s in out:
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
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
    return _chain_row(input_gain, poles)


def _chain_row(input_gain: float, poles: tuple[complex, ...]) -> np.ndarray:
    """place_integrator_chain for poles already validated and counted, as
    a PoleSpec's are."""
    if input_gain == 0.0 or not math.isfinite(input_gain):
        raise ZeroInputGain(f"input gain must be nonzero and finite, got {input_gain!r}")
    target = poles_to_monic(poles)  # [1, a1, ..., ak]
    return target[1:][::-1] / input_gain


@np.errstate(over="ignore", invalid="ignore")  # refused, not warned of
def design_6dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x12 feedback gain for the 6DOF model, one chain per input row.

    The pitch->x chain carries the -g tilt coupling, so its theta entries
    flip sign relative to the roll->y chain; the per-chain check of
    A - B K at the end would catch any regression there.
    """
    model = build_6dof(p)  # validates p first
    _check_pole_counts(spec, CHAINS_6DOF, "6DOF", "chain")
    K = _chain_gains(p, spec, CHAINS_6DOF, model.n)
    _check_closed_loop(model, K)
    return GainMatrix(K, model.state_labels, model.input_labels)


@np.errstate(over="ignore", invalid="ignore")
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
    _check_closed_loop(model, K)
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
        k = _chain_row(b, getattr(spec, ch.name))
        for j, kj in enumerate(k.tolist()):
            # derivative coordinates scale the chain's (angle, rate) by its coupling
            kj = kj * coupling if j >= len(s) - 2 else kj
            if not _NORMAL_MIN <= abs(kj) < math.inf:
                raise PolePlacementError(_OUT_OF_RANGE)
            K[ch.input_row, s[j]] = kj
    return K


def _check_closed_loop(model: StateSpaceModel, K: np.ndarray) -> None:
    if not _chains_stable(model.A, model.B, K, sampled=False):
        raise InternalStabilityCheckFailed(
            "synthesized closed loop is not Hurwitz; this indicates a defect "
            "in the chain/gain bookkeeping, not in the request"
        )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loop is unstable
def check_sampled_loop(model: StateSpaceModel, K, dt: float) -> None:
    """Raise UnstableSampledLoop unless the exact-ZOH closed loop
    x+ = (Phi - Gamma K) x of the model at step dt is stable, chain block
    by chain block under the same off-block rule as the designs."""
    phi, gamma = zoh_discretize(model, dt)
    if not _chains_stable(phi, gamma, np.asarray(K, dtype=float), sampled=True):
        raise UnstableSampledLoop(
            f"the sampled closed loop Phi - Gamma K is unstable at dt={dt:g}; "
            "use a smaller --dt or slower poles"
        )


def _block_layout(chains):
    """Where a chain table puts its blocks in an n x n matrix: the mask of
    the entries outside every block, and per block size a pair of index
    arrays that cuts all blocks of that size out as one stack."""
    n = sum(len(ch.states) for ch in chains)
    outside = np.ones((n, n), dtype=bool)
    by_size: dict[int, list] = {}
    for ch in chains:
        outside[np.ix_(ch.states, ch.states)] = False
        by_size.setdefault(len(ch.states), []).append(ch.states)
    stacks = tuple((i[:, :, None], i[:, None, :]) for i in map(np.array, by_size.values()))
    return outside, stacks


# Keyed by state count: the block layout and the bound on an entry outside
# the chain blocks, relative to the same entry of |A| + |B| |K|, the scale
# of the rounding that B K leaves where its products cancel. 6DOF: exactly
# zero, each input drives one chain. 3DOF: mixer(p) @ mixer_inverse(p)
# cancels there.
_LAYOUTS = {
    12: (*_block_layout(CHAINS_6DOF), 0.0),
    6: (*_block_layout(CHAINS_3DOF), 1e-12),
}


def _chains_stable(a: np.ndarray, b: np.ndarray, K: np.ndarray, sampled: bool) -> bool:
    """True iff every entry of a - b K outside the blocks of the chain
    table with a's state count is at most its bound times that entry of
    |a| + |b| |K|, and every chain block of a - b K is stable.

    Continuous blocks must be Hurwitz. A sampled block F must have every
    eigenvalue strictly inside the unit circle; the bilinear map
    W = (F - I)(F + I)^-1 takes those to the open left half-plane, so W
    must be Hurwitz, and a singular F + I (an eigenvalue at -1) fails.
    F - I is (a - I) - b K, which keeps the slow poles that 1 + (F - I)
    rounds away: a = Phi has a unit diagonal, so a - I is exact.
    Blocks of equal size go through char_poly as one stack. A continuous
    loop whose products overflow raises PolePlacementError; a sampled loop
    that is not finite is not stable.
    """
    if len(a) not in _LAYOUTS:
        raise ValueError(f"no chain table has {len(a)} states; a closed loop has 12 or 6")
    outside, stacks, rtol = _LAYOUTS[len(a)]
    if sampled:
        a = a - np.eye(len(a))
    closed = a - b @ K
    if not (sampled or np.isfinite(closed).all()):
        raise PolePlacementError(_OUT_OF_RANGE)
    scale = np.abs(a[outside]) + (np.abs(b) @ np.abs(K))[outside]
    if not np.all(np.abs(closed[outside]) <= rtol * scale):
        return False
    for rows, cols in stacks:
        stack = closed[rows, cols]
        if sampled:
            eye = np.eye(stack.shape[-1])
            try:  # F - I and (F + I)^-1 commute
                stack = np.linalg.solve(stack + 2.0 * eye, stack)
            except np.linalg.LinAlgError:
                return False
        polys = char_poly(stack)
        finite = np.isfinite(polys).all()
        if not (sampled or finite):
            raise PolePlacementError(_OUT_OF_RANGE)
        if not (finite and all(map(is_hurwitz, polys))):
            return False
    return True
