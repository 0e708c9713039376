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
block (_chains_stable): the entries outside the blocks must be exactly 0 on
both models, and each block of at most four states must be Hurwitz, exactly,
on the integers of one shift of the whole loop. check_sampled_rows applies
the same rule to the sampled loop Phi - Gamma K of a run on either plant: RK4
with held forces is exact on the nilpotent A, so Phi - Gamma K is the
nonlinear step's Jacobian at hover. A design has one refusal,
PolePlacementError: a request whose gains are not normal float64 numbers
(true gains of left-half-plane poles are finite and nonzero), whose closed
loop overflows, or whose rounded gains leave a block that is not Hurwitz
(poles too near the imaginary axis for float64) is the request's fault. A
sampled loop that leaves float64 is unstable at its dt, and a dt that is
not finite and > 0 is a ValueError.
The gains and the checks run on Python floats and ints without numpy
(design_rows, check_sampled_rows).
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter

from . import _twin
from ._record import Record
from .linalg import (_as_ints, _poly_ints, expm_rows, is_hurwitz_ints, matmul,
                     nonzeros, row_times)
from .models import CHAINS, CHAINS_3DOF, CHAINS_6DOF, model_rows
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


class UnstableSampledLoop(RuntimeError):
    """The sampled closed loop Phi - Gamma K of a run is not stable at its
    step: some |z| >= 1, so the run would diverge. The poles are too fast
    for the dt asked for; refused before the run."""


_RE_IM = attrgetter("real", "imag")


def _validate_pole_set(name: str, poles: tuple) -> tuple[complex, ...]:
    """The poles as complex numbers, each finite and strictly in the left
    half-plane, the set closed under conjugation. A set with no nonzero
    imaginary part is its own conjugate, so only a set with a complex pole
    is sorted against its conjugates."""
    out = tuple(complex(s) for s in poles)
    for s in out:
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise PolePlacementError(f"{name} pole {s!r} is not finite")
        if s.real >= 0.0:
            raise UnstablePoleRequested(
                f"{name} pole {s!r} is not strictly in the left half-plane"
            )
    if any(s.imag for s in out) and (sorted(out, key=_RE_IM)
                                     != sorted((s.conjugate() for s in out), key=_RE_IM)):
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


def _monic(poles) -> list[float]:
    """Expand prod (s - p_i) into real monic coefficients, grouping the
    real and imaginary products as np.convolve's dot sums them, to the bit.
    Conjugate-closed inputs are required, so the imaginary residue is pure
    rounding; it is checked and dropped.

    A set with no nonzero imaginary part runs the real half alone,
    re <- [x * (-p) + y]: the imaginary half stays +-0 there, and
    subtracting its +-0 products leaves every coefficient's bits, since
    none is -0.0. Where a coefficient overflows, the real half carries the
    inf on as +-inf (NaN where it meets inf * 0 or inf - inf), where the
    complex split's zero imaginary half would read 0 * inf = NaN."""
    given = tuple(poles)
    zs = tuple(map(complex, given))
    re = [1.0]
    if not any(s.imag for s in zs):
        for s in zs:
            t = -s.real
            re = [x * t + y for x, y in zip([0.0] + re, re + [0.0])]
        return re
    im = [0.0]
    for s in zs:
        tr, ti = -s.real, -s.imag
        lr, li, hr, hi = [0.0] + re, [0.0] + im, re + [0.0], im + [0.0]
        re, im = ([(xr * tr + yr) - xi * ti for xr, xi, yr in zip(lr, li, hr)],
                  [xr * ti + (xi * tr + yi) for xr, xi, yi in zip(lr, li, hi)])
    scale = max(1.0, max(map(abs, map(complex, re, im))))
    if any(abs(v) > 1e-9 * scale for v in im):
        raise PolePlacementError(f"pole set {given!r} is not conjugate-closed")
    return re


def _chain_row(input_gain: float, poles: tuple[complex, ...]) -> list[float]:
    """The gains (k_1 ... k_k) on a chain of k integrators with input gain
    b, states most-integrated first, that make u = -sum k_j w_j give the
    monic polynomial of the poles exactly, for poles already validated and
    counted, as a PoleSpec's are."""
    if input_gain == 0.0 or not math.isfinite(input_gain):
        raise ZeroInputGain(f"input gain must be nonzero and finite, got {input_gain!r}")
    return [a / input_gain for a in reversed(_monic(poles)[1:])]  # [1, a1, ..., ak]


def design_rows(p: QuadParams, spec: PoleSpec, dof: int) -> list[list[float]]:
    """The checked 4 x n feedback gain K of the dof model, as nested lists:
    one chain per input row for 6DOF; for 3DOF each axis placed in torque
    space, then mapped to the rotor forces by the torque columns of the
    inverse mixer, with zero net-thrust offset (the attitude states never
    see total thrust, so the offset is free and zero keeps gains small)."""
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
    if not _chains_stable(a, b, K, sampled=False):
        raise PolePlacementError("the requested poles are too near the imaginary axis for "
                                 "float64: the closed loop of the rounded gains is not Hurwitz")
    return K


def _chain_gains(p: QuadParams, spec: PoleSpec, chains, n: int) -> list[list[float]]:
    """4 x n gains in generalized-input space, one row per chain's input."""
    K = [[0.0] * n for _ in range(4)]
    for ch in chains:
        s, coupling = ch.states, ch.coupling(p)
        b = coupling / getattr(p, ch.inertia)
        for j, kj in enumerate(_chain_row(b, getattr(spec, ch.name))):
            # derivative coordinates scale the chain's (angle, rate) by its coupling
            K[ch.input_row][s[j]] = _normal_gain(kj * coupling if j >= len(s) - 2 else kj)
    return K


def _normal_gain(k: float) -> float:  # every true gain is a normal float64
    if not _NORMAL_MIN <= abs(k) < math.inf:
        raise PolePlacementError(_OUT_OF_RANGE)
    return k


def check_sampled_rows(a, b, K, dt: float) -> None:
    """Raise UnstableSampledLoop unless the exact-ZOH closed loop
    x+ = (Phi - Gamma K) x at step dt of the model with A and B, for K
    given as nested lists, is stable, chain block by chain block under the
    same off-block rule as the designs."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"the sampled loop needs a finite step dt > 0, got {dt!r}")
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
    off-block rule looks the block of each up in a per-state map. One _as_ints
    of the whole loop gives the integers of 2^s (a - b K), and every block's
    rows are read from them: the roots of a block of 2^s D are those of D
    times 2^s > 0, so any s that makes the loop integer gives the same verdicts.

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
    ints, s = _as_ints(closed.values())
    exact = dict(zip(closed, ints))
    for ch in _TABLES[len(a)]:
        poly = _poly_ints([[(k, v) for k, j in enumerate(ch.states) if (v := exact.get((i, j)))]
                           for i in ch.states])
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


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
