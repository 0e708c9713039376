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

Every design checks the closed loop A - B K it produced, chain block by chain
block: the entries outside the blocks must be exactly 0 on both models, and
each block of at most four states must be Hurwitz, exactly (char_poly_ints +
is_hurwitz_ints). The check reads the matrix, and its chain table from the
matrix's state count; it builds A - B K only at its nonzeros and finds the
block of each in a per-state map. check_sampled_loop applies the same rule to
the sampled loop Phi - Gamma K of a run on either plant: RK4 with held forces
is exact on the nilpotent A, so Phi - Gamma K is the nonlinear step's Jacobian
at hover. A request whose gains are not normal float64 numbers (true gains of
left-half-plane poles are finite and nonzero), or whose closed loop overflows,
is refused as a PolePlacementError, not reported as a defect; a sampled loop
that leaves float64 is unstable at its dt.
The gains and the checks run on Python floats and ints without numpy
(design_rows, check_sampled_rows); the functions on numpy arrays wrap them.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .linalg import (StateSpaceModel, char_poly_ints, expm_rows, is_hurwitz_ints, matmul,
                     nonzeros, row_times)
from .models import CHAINS, CHAINS_3DOF, CHAINS_6DOF, LABELS, model_rows
from .params import QuadParams, validate
from .rotor_forces import mixer_inverse_rows

_NORMAL_MIN = sys.float_info.min
_OUT_OF_RANGE = ("the requested poles are too extreme for float64: a gain overflows or "
                 "underflows, or a closed-loop entry overflows")


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


class PoleSpec(Record):
    """Desired closed-loop pole multisets per chain: one pole per state of
    the chain in models.CHAINS_6DOF or models.CHAINS_3DOF, none for a chain
    the model lacks."""

    z: tuple = ()
    roll: tuple = ()
    pitch: tuple = ()
    yaw: tuple = ()

    def __post_init__(self):
        for name, poles in zip(self._fields, self.as_tuple()):
            vars(self)[name] = _validate_pole_set(name, poles)

    @classmethod
    def uniform_6dof(cls, pole: complex = -2.0) -> "PoleSpec":
        """Every chain placed at a single repeated pole (6DOF chain sizes)."""
        return cls(**{ch.name: (pole,) * len(ch.states) for ch in CHAINS_6DOF})

    @classmethod
    def uniform_3dof(cls, pole: complex = -2.0) -> "PoleSpec":
        """Every attitude axis placed at a single repeated pole."""
        return cls(**{ch.name: (pole,) * len(ch.states) for ch in CHAINS_3DOF})


class GainMatrix(Record):
    """Feedback gains for u = r - K x, with the target model's labels."""

    K: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def __post_init__(self):
        import numpy as np
        k = np.array(self.K, dtype=float)
        if k.shape != (len(self.input_labels), len(self.state_labels)):
            raise PolePlacementError(
                f"gain shape {k.shape} does not match labels "
                f"({len(self.input_labels)} inputs, {len(self.state_labels)} states)"
            )
        k.setflags(write=False)
        vars(self).update(K=k, state_labels=tuple(self.state_labels),
                          input_labels=tuple(self.input_labels))

    def feedback_input(self, x, r=None) -> np.ndarray:
        """u = r - K x (r defaults to zero, the hover equilibrium in the
        deviation coordinates both designs use)."""
        import numpy as np
        u = -self.K @ np.asarray(x, dtype=float)
        if r is not None:
            u = np.asarray(r, dtype=float) + u
        return u


def _monic(poles) -> list[float]:
    """Expand prod (s - p_i) into real monic coefficients, grouping the
    real and imaginary products as np.convolve's dot sums them, to the bit.
    Conjugate-closed inputs are required, so the imaginary residue is pure
    rounding; it is checked and dropped."""
    re, im = [1.0], [0.0]
    for s in map(complex, poles):
        tr, ti = -s.real, -s.imag
        lr, li, hr, hi = [0.0] + re, [0.0] + im, re + [0.0], im + [0.0]
        re, im = ([(xr * tr + yr) - xi * ti for xr, xi, yr in zip(lr, li, hr)],
                  [xr * ti + (xi * tr + yi) for xr, xi, yi in zip(lr, li, hi)])
    scale = max(1.0, max(map(abs, map(complex, re, im))))
    if any(abs(v) > 1e-9 * scale for v in im):
        raise PolePlacementError(f"pole set {tuple(poles)!r} is not conjugate-closed")
    return re


def poles_to_monic(poles) -> np.ndarray:
    """_monic as a float64 array."""
    import numpy as np
    return np.array(_monic(poles))


def place_integrator_chain(chain_order: int, input_gain: float, poles) -> np.ndarray:
    """Gain row stabilizing a pure integrator chain, as a float64 array.

    chain_order   number of integrators (the chain's state dimension)
    input_gain    scalar b in w_k' = b u; must be nonzero
    poles         chain_order desired poles, strictly left half-plane

    Returns gains (k_1 ... k_k) on the chain states ordered most-integrated
    first, so that u = -sum k_j w_j gives the target polynomial exactly.
    """
    import numpy as np
    poles = _validate_pole_set("chain", tuple(poles))
    if len(poles) != chain_order:
        raise PoleCountMismatch(
            f"chain of order {chain_order} needs exactly {chain_order} poles, "
            f"got {len(poles)}"
        )
    return np.array(_chain_row(input_gain, poles))


def _chain_row(input_gain: float, poles: tuple[complex, ...]) -> list[float]:
    """place_integrator_chain for poles already validated and counted, as
    a PoleSpec's are."""
    if input_gain == 0.0 or not math.isfinite(input_gain):
        raise ZeroInputGain(f"input gain must be nonzero and finite, got {input_gain!r}")
    return [a / input_gain for a in reversed(_monic(poles)[1:])]  # [1, a1, ..., ak]


def design_6dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x12 feedback gain for the 6DOF model, one chain per input row.

    The pitch->x chain carries the -g tilt coupling, so its theta entries
    flip sign relative to the roll->y chain; the per-chain check of
    A - B K at the end would catch any regression there.
    """
    return GainMatrix(design_rows(p, spec, 6), *LABELS[6][:2])


def design_3dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x6 feedback gain for the 3DOF model, in rotor-force input space.

    Each axis is placed as a 2nd-order chain in torque space; the torque
    rows are then mapped to the four rotor forces by the torque columns of
    the inverse mixer, with zero net-thrust offset (the attitude states
    never see total thrust, so the offset is free and zero keeps gains
    small).
    """
    return GainMatrix(design_rows(p, spec, 3), *LABELS[3][:2])


def design_rows(p: QuadParams, spec: PoleSpec, dof: int) -> list[list[float]]:
    """The checked K of design_6dof_gains or design_3dof_gains, as lists."""
    validate(p)
    chains = CHAINS[dof]
    sizes = {ch.name: len(ch.states) for ch in chains}  # a chain the model lacks gets none
    for name, poles in vars(spec).items():
        if len(poles) != sizes.get(name, 0):
            raise PoleCountMismatch(f"{dof}DOF {name} {'chain' if dof == 6 else 'axis'} needs "
                                    f"{sizes.get(name, 0)} poles, got {len(poles)}")
    a, b = model_rows(p, dof)
    K = _chain_gains(p, spec, chains, len(a))
    if dof == 3:
        K = matmul([row[1:] for row in mixer_inverse_rows(p)], K[1:])
    _check_closed_loop(a, b, K)
    return K


def _chain_gains(p: QuadParams, spec: PoleSpec, chains, n: int) -> list[list[float]]:
    """4 x n gains in generalized-input space, one row per chain's input."""
    K = [[0.0] * n for _ in range(4)]
    for ch in chains:
        s, coupling = ch.states, ch.coupling(p)
        b = coupling / getattr(p, ch.inertia)
        for j, kj in enumerate(_chain_row(b, getattr(spec, ch.name))):
            # derivative coordinates scale the chain's (angle, rate) by its coupling
            kj = kj * coupling if j >= len(s) - 2 else kj
            if not _NORMAL_MIN <= abs(kj) < math.inf:
                raise PolePlacementError(_OUT_OF_RANGE)
            K[ch.input_row][s[j]] = kj
    return K


def _check_closed_loop(a, b, K) -> None:
    if not _chains_stable(a, b, K, sampled=False):
        raise InternalStabilityCheckFailed(
            "synthesized closed loop is not Hurwitz; this indicates a defect "
            "in the chain/gain bookkeeping, not in the request"
        )


def check_sampled_loop(model: StateSpaceModel, K, dt: float) -> None:
    """Raise UnstableSampledLoop unless the exact-ZOH closed loop
    x+ = (Phi - Gamma K) x of the model at step dt is stable, chain block
    by chain block under the same off-block rule as the designs."""
    import numpy as np
    check_sampled_rows(model.A.tolist(), model.B.tolist(), np.asarray(K, dtype=float).tolist(), dt)


def check_sampled_rows(a, b, K, dt: float) -> None:
    """check_sampled_loop for A, B and K given as nested lists."""
    phi, gamma = expm_rows(a, b, dt)
    if not _chains_stable(phi, gamma, K, sampled=True):
        raise UnstableSampledLoop(
            f"the sampled closed loop Phi - Gamma K is unstable at dt={dt:g}; "
            "use a smaller --dt or slower poles"
        )


# each model's chain table, and the chain block of each of its states, by state count
_TABLES = {sum(len(ch.states) for ch in chains): chains for chains in CHAINS.values()}
_BLOCK = {n: {i: ch.states for ch in chains for i in ch.states} for n, chains in _TABLES.items()}


def _chains_stable(a, b, K, sampled: bool) -> bool:
    """True iff every entry of a - b K outside the blocks of the chain
    table with a's state count is exactly 0, and every chain block of
    a - b K is stable, for nested lists. b K sums separately rounded
    products, which the 3DOF mixer's +- pairs cancel exactly; a fused
    multiply-add would not.

    a - b K is built only at the nonzeros of a and of each row of b K, which
    row_times sums in matmul's order, so every entry keeps its bits; the
    off-block rule looks the block of each up in a per-state map.

    Continuous blocks must be Hurwitz. A sampled block F must have every
    eigenvalue strictly inside the unit circle. Its D = F - I is
    (a - I) - b K, which keeps the slow poles that 1 + (F - I) rounds away:
    a = Phi has a unit diagonal, so a - I is exact. z = (1 + w) / (1 - w)
    takes |z| < 1 to Re w < 0; on the integer polynomial C of 2^s D it
    gives q(w) = sum_k C_k T^(n-k) w^(n-k) (1 - w)^k, T = 2^(s+1), which
    must be Hurwitz, and a leading q_0 = (-1)^n C(-T) of 0 means z = -1.
    A continuous loop that overflows raises PolePlacementError; a sampled
    loop that is not finite is not stable.
    """
    if len(a) not in _TABLES:
        raise ValueError(f"no chain table has {len(a)} states; a closed loop has "
                         + " or ".join(map(str, _TABLES)))
    closed = {(i, c): x for i, row in enumerate(nonzeros(a)) for c, x in row}
    if sampled:  # F - I: a - I first on the diagonal, then - b K
        for i, row in enumerate(a):
            closed[i, i] = row[i] - 1.0
    k_rows = nonzeros(K)
    for i, pairs in enumerate(nonzeros(b)):
        for c, y in row_times(pairs, k_rows).items():
            closed[i, c] = closed.get((i, c), 0.0) - y
    if not all(map(math.isfinite, closed.values())):
        if sampled:
            return False
        raise PolePlacementError(_OUT_OF_RANGE)
    block = _BLOCK[len(a)]
    if any(v and block[i] is not block[c] for (i, c), v in closed.items()):
        return False
    for ch in _TABLES[len(a)]:
        poly, s = char_poly_ints([[closed.get((i, j), 0.0) for j in ch.states] for i in ch.states])
        if sampled:
            n, q = len(poly) - 1, [0] * len(poly)
            for k, c in enumerate(poly):
                c <<= (s + 1) * (n - k)
                for j in range(k + 1):  # (1 - w)^k, highest power of w first
                    q[k - j] += (-1) ** j * math.comb(k, j) * c
            if not q[0]:
                return False
            poly = q
        if not is_hurwitz_ints(poly):
            return False
    return True
