"""The numpy face of quadmodel: the records and functions on float64 arrays.

Every CLI command runs on the float core, the nested lists of Python
floats and the exact integer kernel of the other modules, and never loads
this module. Library callers reach each name here through the core module
that documents it (linalg.StateSpaceModel, simulate.simulate,
stabilize.design_6dof_gains, ...) or through the package; both resolve it
lazily, so the first such lookup imports numpy. Each function wraps the
core function that does its job on lists, and agrees with it to the bit
unless its docstring says otherwise; the three simulators hold no loop of
their own. Three functions compute on their own: rank, which stays
numerical, with a tolerance, and rk4_step and nonlinear_deriv, the
reference that the nonlinear plant's float step is pinned against to the bit.
"""

from __future__ import annotations

import math

try:
    import numpy as np
except ModuleNotFoundError as e:  # numpy is the optional extra "arrays"
    raise ModuleNotFoundError(f"{e}: pip install 'quadmodel[arrays]'", name=e.name) from None

from ._record import Record
from .analysis import AnalysisReport, _kalman_rank, analyze_rows
from .linalg import (DimensionMismatch, NotSquare, _as_ints, _nilpotency_ints, char_poly_ints,
                     expm_rows, int_rows, is_hurwitz_ints, rounded_poly)
from .models import DOF6_STATE_LABELS, LABELS, ROTOR_FORCE_LABELS, model_matrices
from .params import QuadParams, validate
from .rotor_forces import RotorForces, mixer_inverse_rows, mixer_rows
from .simulate import (CSV_BLOCK_ROWS, NonFiniteDerivative, SimConfig, feedback_rows, linear_rows,
                       nonlinear_rows)
from .stabilize import (PoleCountMismatch, PolePlacementError, PoleSpec, _chain_row, _monic,
                        _normal_gain, _validate_pole_set, check_sampled_rows, design_rows)

# ---------------------------------------------------------------- linalg


def _as_matrix(a, square: bool) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _finite_rows(a, caller: str) -> list[list[float]]:
    m = _as_matrix(a, square=True)
    if not math.isfinite(abs(m).max(initial=0.0)):  # NaN and inf reach the max
        raise ValueError(f"{caller} needs a finite matrix")
    return m.tolist()


def rank(a, rel_tol: float = 1e-9) -> int:
    """Numerical rank by row reduction with partial pivoting.

    A pivot counts iff its magnitude exceeds rel_tol * max(1, max|a|),
    the max taken over the original matrix, which must be finite. The
    pivot of a column is the first row of largest magnitude on or below
    the current one, and it trades places with the current row.
    """
    if rel_tol <= 0.0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol!r}")
    m = _as_matrix(a, square=False).copy()
    top = float(abs(m).max(initial=0.0))  # NaN and inf reach the max
    if not math.isfinite(top):
        raise ValueError("rank needs a finite matrix")
    thresh = rel_tol * max(1.0, top)
    r = 0
    for col in range(m.shape[1]):
        if r < len(m) and abs(m[r:, col]).max() > thresh:
            piv = r + int(abs(m[r:, col]).argmax())
            m[[r, piv]] = m[[piv, r]]
            m[r + 1:, col:] -= np.outer(m[r + 1:, col] / m[r, col], m[r, col:])
            r += 1
    return r


def nilpotency_index(a) -> int | None:
    """Smallest k <= n with A^k = 0 exactly, or None when no power up to n
    vanishes, for a finite A."""
    return _nilpotency_ints(int_rows(_finite_rows(a, "nilpotency_index"))[0])


def expm_nilpotent(a, t: float) -> np.ndarray:
    """exp(A t) for a finite nilpotent A, the Phi of expm_rows, as a float64
    array: exact up to rounding, since the series terminates."""
    rows = _finite_rows(a, "expm_nilpotent")
    return np.array(expm_rows(rows, [[]] * len(rows), t)[0]).reshape(len(rows), len(rows))


def char_poly(a) -> np.ndarray:
    """Monic characteristic polynomial [1, c1, ..., cn] of det(lambda I - A)
    for one finite square matrix, as a float64 array of char_poly_ints
    correctly rounded, +-inf where a coefficient overflows."""
    return np.array(rounded_poly(*char_poly_ints(_finite_rows(a, "char_poly"))))


def is_hurwitz(coeffs) -> bool:
    """True iff every root of the given real polynomial has strictly
    negative real part, decided by the Routh array.

    ``coeffs`` are highest-degree first, finite, leading coefficient
    nonzero. Strict stability holds iff every first-column entry of the
    Routh array is positive, so the table stops at the first entry that is
    not: a zero there (including a whole zero row, roots placed
    symmetrically about the origin) already rules strict stability out,
    and no epsilon substitute is needed.
    The table is exact: one power of two turns the float coefficients into
    integers, and a row is not divided by its pivot, a positive factor
    that keeps the signs. No entry rounds, underflows or overflows, at any
    scale of the roots.
    """
    c = [float(v) for v in coeffs]
    if len(c) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if not all(map(math.isfinite, c)):
        raise ValueError("coefficients must be finite")
    if c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return is_hurwitz_ints(_as_ints(c)[0])


class StateSpaceModel(Record):
    """Continuous-time LTI quadruple dx/dt = A x + B u, y = C x + D u,
    with labelled state, input, and output coordinates.

    Arrays are copied and frozen at construction; dimension consistency
    and label lengths are enforced.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise DimensionMismatch(f"{name} must be a 2-D matrix")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            vars(self)[name] = arr
        n, p, q = self.A.shape[0], self.B.shape[1], self.C.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, p):
            raise DimensionMismatch(f"B must be {n}x{p}, got {self.B.shape}")
        if self.C.shape != (q, n):
            raise DimensionMismatch(f"C must be {q}x{n}, got {self.C.shape}")
        if self.D.shape != (q, p):
            raise DimensionMismatch(f"D must be {q}x{p}, got {self.D.shape}")
        for name, count in (("state_labels", n), ("input_labels", p), ("output_labels", q)):
            labels = tuple(str(s) for s in getattr(self, name))
            if len(labels) != count:
                raise DimensionMismatch(f"{name} must have {count} entries, got {len(labels)}")
            vars(self)[name] = labels

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def deriv(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """State derivative A x + B u."""
        return self.A @ x + self.B @ u

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Measured output C x + D u."""
        return self.C @ x + self.D @ u


# ---------------------------------------------------------------- models


def build_3dof(p: QuadParams) -> StateSpaceModel:
    """Attitude-only model: three double-integrator chains driven by the
    rotor thrusts through the mixer."""
    return StateSpaceModel(*model_matrices(validate(p), 3), *LABELS[3])


def build_6dof(p: QuadParams) -> StateSpaceModel:
    """Full model: positions, velocities, attitude, and rates, with the
    gravity-tilt coupling x_ddot = -g*theta and y_ddot = +g*phi."""
    return StateSpaceModel(*model_matrices(validate(p), 6), *LABELS[6])


# ---------------------------------------------------------------- analysis


def controllability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Kalman matrix [B, AB, ..., A^(n-1) B], shape n x (n*p)."""
    blocks = [m.B]
    while len(blocks) < m.n:
        blocks.append(m.A @ blocks[-1])
    return np.hstack(blocks)


def observability_matrix(m: StateSpaceModel) -> np.ndarray:
    """Stacked [C; CA; ...; C A^(n-1)], shape (n*q) x n."""
    blocks = [m.C]
    while len(blocks) < m.n:
        blocks.append(blocks[-1] @ m.A)
    return np.vstack(blocks)


def controllability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(int_rows(m.A.T.tolist())[0], int_rows(m.B.T.tolist())[0])


def observability_rank(m: StateSpaceModel) -> int:
    return _kalman_rank(int_rows(m.A.tolist())[0], int_rows(m.C.tolist())[0])


def analyze(m: StateSpaceModel) -> AnalysisReport:
    """Full structural report on one model: analyze_rows of its matrices."""
    return analyze_rows(m.A.tolist(), m.B.tolist(), m.C.tolist())


# ---------------------------------------------------------------- rotor_forces


def mixer(p: QuadParams) -> np.ndarray:
    """mixer_rows as a float64 array."""
    return np.array(mixer_rows(p))


def mixer_inverse(p: QuadParams) -> np.ndarray:
    """mixer_inverse_rows as a float64 array."""
    return np.array(mixer_inverse_rows(p))


# ---------------------------------------------------------------- simulate


class Trajectory(Record):
    """Uniformly sampled run: times (N,), states (N, n), inputs (N, p).

    The input row i is the value held over [t_i, t_i + dt); the final row
    is the input function sampled at the last time, for shape regularity.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def __len__(self) -> int:
        return self.times.shape[0]


def zoh_discretize(m: StateSpaceModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition pair (Phi, Gamma) for a held input:
    x+ = Phi x + Gamma u, valid when A is nilpotent (linalg.expm_rows)."""
    phi, gamma = expm_rows(m.A.tolist(), m.B.tolist(), dt)
    return np.array(phi), np.array(gamma).reshape(m.n, m.p)


def zoh_step(m: StateSpaceModel, x, u, dt: float) -> np.ndarray:
    """One exact zero-order-hold step of dx/dt = A x + B u."""
    phi, gamma = zoh_discretize(m, dt)
    return phi @ np.asarray(x, dtype=float) + gamma @ np.asarray(u, dtype=float)


def rk4_step(deriv, x, t: float, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update of dx/dt = deriv(t, x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = np.asarray(deriv(t, x), dtype=float)
        k2 = np.asarray(deriv(t + 0.5 * dt, x + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(deriv(t + 0.5 * dt, x + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(deriv(t + dt, x + dt * k3), dtype=float)
        out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteDerivative(
            f"derivative produced non-finite values on the step at t={float(t):g}"
        )
    return out


def _linear_only(cfg: SimConfig, caller: str) -> None:
    if cfg.plant == "nonlinear_6dof" or cfg.integrator != "exact_zoh":
        raise ValueError(f"{caller} needs a linear plant and integrator='exact_zoh'")


def _trajectory(blocks, state_labels, input_labels) -> Trajectory:
    """A run's blocks of rows t, x, u, joined as yielded, as a Trajectory of views."""
    run = next(blocks)  # every run has a first block, its x0 row
    for block in blocks:
        run += block
    width = 1 + len(state_labels)
    t, x, u = np.split(np.frombuffer(run).reshape(-1, width + len(input_labels)), [1, width], 1)
    return Trajectory(t[:, 0], x, u, state_labels, input_labels)


def simulate(m: StateSpaceModel, x0, input_fn, cfg: SimConfig) -> Trajectory:
    """Propagate a linear model from x0 under input_fn(t, x), by exact ZOH.

    input_fn may close over anything: a constant vector for open loop,
    u = r - K x for state feedback, or a scripted maneuver. It is sampled
    at each step start and held across the step, and gets a fresh array x
    each time. The run is linear_rows' blocks, joined. A run that diverges
    calls input_fn, with the non-finite x, to the end of the CSV_BLOCK_ROWS
    block in which it left the finite floats, and raises NonFiniteState.
    """
    _linear_only(cfg, "simulate")
    x0 = np.asarray(x0, dtype=float).reshape(m.n).tolist()

    def inputs(t, x):
        return np.asarray(input_fn(t, np.array(x)), dtype=float).reshape(m.p).tolist()

    # the run steps as _trajectory joins it: input_fn may see a diverged, non-finite x
    with np.errstate(over="ignore", invalid="ignore"):
        return _trajectory(linear_rows(m.A.tolist(), m.B.tolist(), inputs, x0, cfg),
                           m.state_labels, m.input_labels)


def simulate_feedback(m: StateSpaceModel, x0, K, r, cfg: SimConfig) -> Trajectory:
    """Propagate a linear model from x0 under the held input u = r - K x:
    feedback_rows' blocks, joined, as a Trajectory of views (exact ZOH only).

    At K = 0 the times and inputs equal those of simulate with input_fn
    returning r, bit for bit; the states agree within 1e-12 of each
    column's max |value|, and with feedback within 1e-9 of max|x0| over
    5 s runs. A diverging run raises NonFiniteState as simulate does.
    """
    _linear_only(cfg, "simulate_feedback")
    K = np.asarray(K, dtype=float)
    r = np.asarray(r, dtype=float)
    if K.shape != (m.p, m.n) or r.shape != (m.p,):
        raise ValueError(
            f"need K of shape {(m.p, m.n)} and r of shape {(m.p,)}, got {K.shape} and {r.shape}"
        )
    x = np.asarray(x0, dtype=float).reshape(m.n)
    return _trajectory(feedback_rows(m.A.tolist(), m.B.tolist(), K.tolist(), r.tolist(),
                                     x.tolist(), cfg), m.state_labels, m.input_labels)


def nonlinear_deriv(p: QuadParams, x, f: RotorForces) -> np.ndarray:
    """Reference-plant state derivative in the 6DOF state ordering.

    Keeps the trigonometric thrust decomposition but, like the linear
    models, has no drag and no gyroscopic coupling: it exists to measure
    how fast the small-angle linearization degrades, nothing more. Under
    sin a -> a, cos a -> 1, T -> m g it reduces exactly to the linear
    6DOF model.
    """
    x = np.asarray(x, dtype=float)
    phi, theta = x[6], x[7]
    thrust = f.f1 + f.f2 + f.f3 + f.f4
    return np.array(
        [
            x[3],
            x[4],
            x[5],
            -(thrust / p.m) * math.sin(theta),
            (thrust / p.m) * math.sin(phi),
            (thrust * math.cos(phi) * math.cos(theta)) / p.m - p.g,
            x[9],
            x[10],
            x[11],
            p.d * (f.f2 - f.f4) / p.Ix,
            p.d * (f.f1 - f.f3) / p.Iy,
            p.c * (-f.f1 + f.f2 - f.f3 + f.f4) / p.Iz,
        ]
    )


def simulate_nonlinear(p: QuadParams, x0, forces_fn, cfg: SimConfig) -> Trajectory:
    """Propagate the nonlinear reference plant under forces_fn(t, x).

    Always integrates with RK4 (there is no exact propagator here);
    forces are sampled at each step start and held, mirroring the linear
    simulator so the two runs are comparable sample by sample. The run is
    nonlinear_rows' blocks, joined, with x handed to forces_fn as an array.
    """
    validate(p)
    if cfg.plant != "nonlinear_6dof":
        raise ValueError("simulate_nonlinear requires cfg.plant = 'nonlinear_6dof'")
    x0 = np.asarray(x0, dtype=float).reshape(12).tolist()
    run = nonlinear_rows(p, lambda t, x: tuple(map(float, forces_fn(t, np.array(x)).as_tuple())),
                         x0, cfg)
    return _trajectory(run, DOF6_STATE_LABELS, ROTOR_FORCE_LABELS)


# ---------------------------------------------------------------- stabilize


class GainMatrix(Record):
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
        vars(self).update(K=k, state_labels=tuple(self.state_labels),
                          input_labels=tuple(self.input_labels))

    def feedback_input(self, x, r=None) -> np.ndarray:
        """u = r - K x (r defaults to zero, the hover equilibrium in the
        deviation coordinates both designs use)."""
        u = -self.K @ np.asarray(x, dtype=float)
        if r is not None:
            u = np.asarray(r, dtype=float) + u
        return u


def poles_to_monic(poles) -> np.ndarray:
    """stabilize._monic as a float64 array."""
    return np.array(_monic(poles))


def place_integrator_chain(chain_order: int, input_gain: float, poles) -> np.ndarray:
    """Gain row stabilizing a pure integrator chain, as a float64 array.

    chain_order   number of integrators (the chain's state dimension)
    input_gain    scalar b in w_k' = b u; must be nonzero
    poles         chain_order desired poles, strictly left half-plane

    Returns gains (k_1 ... k_k), chain states most-integrated first, so that
    u = -sum k_j w_j gives the target polynomial exactly, or PolePlacementError.
    """
    poles = _validate_pole_set("chain", tuple(poles))
    if len(poles) != chain_order:
        raise PoleCountMismatch(
            f"chain of order {chain_order} needs exactly {chain_order} poles, "
            f"got {len(poles)}"
        )
    return np.array(list(map(_normal_gain, _chain_row(input_gain, poles))))


def design_6dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x12 feedback gain for the 6DOF model, one chain per input row
    (stabilize.design_rows). The pitch->x chain carries the -g tilt
    coupling, so its theta entries flip sign relative to the roll->y chain;
    the per-chain check of A - B K at the end would catch any regression there.
    """
    return GainMatrix(design_rows(p, spec, 6), *LABELS[6][:2])


def design_3dof_gains(p: QuadParams, spec: PoleSpec) -> GainMatrix:
    """4x6 feedback gain for the 3DOF model, in rotor-force input space:
    each axis placed in torque space, then pushed through the inverse
    mixer (stabilize.design_rows)."""
    return GainMatrix(design_rows(p, spec, 3), *LABELS[3][:2])


def check_sampled_loop(model: StateSpaceModel, K, dt: float) -> None:
    """Raise UnstableSampledLoop unless the exact-ZOH closed loop
    x+ = (Phi - Gamma K) x of the model at step dt is stable, chain block
    by chain block under the same off-block rule as the designs."""
    check_sampled_rows(model.A.tolist(), model.B.tolist(), np.asarray(K, dtype=float).tolist(), dt)


# ---------------------------------------------------------------- cli


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """The CSV of a Trajectory's times, states and inputs, to a text handle,
    CSV_BLOCK_ROWS rows at a time, as `quadmodel sim` writes its runs."""
    from .cli import csv_chunks

    arrays, labels = (traj.times, traj.states, traj.inputs), traj.state_labels + traj.input_labels
    blocks = (np.column_stack([a[lo : lo + CSV_BLOCK_ROWS] for a in arrays]).ravel().tolist()
              for lo in range(0, len(traj), CSV_BLOCK_ROWS))
    fh.writelines(chunk.decode() for chunk in csv_chunks(labels, blocks))
