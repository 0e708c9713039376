"""Trajectory generation for the linear models and the nonlinear reference
plant.

The linear models are propagated either exactly (their A matrices are
nilpotent, so the zero-order-hold discretization is a finite polynomial in
A -- no truncation) or by classical RK4. On these models RK4 with a
constant held input reproduces the exact step to rounding, because the
one-step RK4 map equals the exponential series truncated at degree 4 and
A^4 = 0 (A^2 = 0 for the attitude model); the test suite leans on that
equivalence as a cross-check.

Inputs are zero-order held: the input function is sampled at the start of
each step and held constant across it.

A run that leaves the finite floats raises instead of returning. A
diverging linear run completes its steps first, and one scan afterwards
raises NonFiniteState at the first non-finite input or state row, in step
order (NaN and inf survive + and *, so nothing is lost by waiting). The
nonlinear plant hands the state to forces_fn, so it checks every step and
raises NonFiniteDerivative at the step that overflowed, an infinite angle
included. The CLI maps both to exit code 4.

feedback_rows (the linear feedback loop) and nonlinear_rows (the nonlinear
plant under held forces) run on Python floats without numpy, into the CSV's
blocks of CSV_BLOCK_ROWS rows: 8.7 KB blocks reuse the heap that compiling
the package freed, where one 680 KB run buffer maps fresh pages. The
functions on numpy arrays import numpy when first called.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, islice

from ._record import Record
from .linalg import StateSpaceModel, expm_rows, matmul, nonzeros
from .models import DOF6_STATE_LABELS, ROTOR_FORCE_LABELS
from .params import QuadParams, validate
from .rotor_forces import RotorForces

INTEGRATORS = ("exact_zoh", "rk4")
PLANTS = ("linear_3dof", "linear_6dof", "nonlinear_6dof")

MAX_STEPS = 10_000_000
CSV_BLOCK_ROWS = 64  # rows per block of a feedback run and of the CSV


class StepCountExceeded(ValueError):
    """t_final/dt asks for more steps than the in-memory guard allows."""


class NonFiniteDerivative(ArithmeticError):
    """The derivative function produced NaN or infinity during a step."""


class NonFiniteState(ArithmeticError):
    """The propagated state left the finite floats."""


def _n_steps(t_final: float, dt: float) -> int:
    # ceil with a small backoff so t_final = k*dt does not round up to k+1
    return max(1, math.ceil(t_final / dt - 1e-9))


class SimConfig(Record):
    """Run settings: horizon, step, integrator, and which plant to drive."""

    t_final: float
    dt: float = 0.001
    integrator: str = "exact_zoh"
    plant: str = "linear_6dof"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_final)):
            raise ValueError("dt and t_final must be finite")
        if not 0.0 < self.dt <= self.t_final:
            raise ValueError(
                f"need 0 < dt <= t_final, got dt={self.dt!r}, t_final={self.t_final!r}"
            )
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; choose from {INTEGRATORS}")
        if self.plant not in PLANTS:
            raise ValueError(f"unknown plant {self.plant!r}; choose from {PLANTS}")
        if _n_steps(self.t_final, self.dt) > MAX_STEPS:
            raise StepCountExceeded(
                f"t_final/dt = {self.t_final / self.dt:.3g} exceeds the {MAX_STEPS} step guard"
            )

    @property
    def n_steps(self) -> int:
        return _n_steps(self.t_final, self.dt)


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
    import numpy as np
    phi, gamma = expm_rows(m.A.tolist(), m.B.tolist(), dt)
    return np.array(phi), np.array(gamma).reshape(m.n, m.p)


def zoh_step(m: StateSpaceModel, x, u, dt: float) -> np.ndarray:
    """One exact zero-order-hold step of dx/dt = A x + B u."""
    import numpy as np
    phi, gamma = zoh_discretize(m, dt)
    return phi @ np.asarray(x, dtype=float) + gamma @ np.asarray(u, dtype=float)


def rk4_step(
    deriv: Callable[[float, np.ndarray], np.ndarray], x, t: float, dt: float
) -> np.ndarray:
    """Classical 4th-order Runge-Kutta update of dx/dt = deriv(t, x)."""
    import numpy as np
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


def simulate(
    m: StateSpaceModel,
    x0,
    input_fn: Callable[[float, np.ndarray], np.ndarray],
    cfg: SimConfig,
) -> Trajectory:
    """Propagate a linear model from x0 under input_fn(t, x).

    input_fn may close over anything: a constant vector for open loop,
    u = r - K x for state feedback, or a scripted maneuver. It is sampled
    at each step start and held across the step. Under exact_zoh a run
    that diverges keeps calling input_fn, with the non-finite x, up to the
    last step, and NonFiniteState is raised after it.
    """
    import numpy as np
    if cfg.plant == "nonlinear_6dof":
        raise ValueError("cfg.plant is nonlinear_6dof; use simulate_nonlinear")
    x = np.asarray(x0, dtype=float).reshape(m.n)
    steps, n, p = cfg.n_steps, m.n, m.p
    table = np.empty((steps + 1, 1 + n + p))  # rows t, x, u
    times, states, inputs = table[:, 0], table[:, 1 : 1 + n], table[:, 1 + n :]
    times[:] = np.arange(steps + 1) * cfg.dt
    exact = cfg.integrator == "exact_zoh"
    if exact:
        phi, gamma = zoh_discretize(m, cfg.dt)

    states[0] = x
    # input_fn may see a non-finite x once the run has diverged; the scan
    # after the loop reports the first bad row, so the loop checks nothing
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(steps):
                t = times[i]
                u = np.asarray(input_fn(t, x), dtype=float).reshape(p)
                inputs[i] = u
                if exact:
                    x = phi @ x + gamma @ u
                else:
                    x = rk4_step(lambda tt, xx: m.A @ xx + m.B @ u, x, t, cfg.dt)
                states[i + 1] = x
        except NonFiniteDerivative:
            # rk4_step refuses a non-finite step; a bad input comes first
            _raise_first_non_finite(table[: i + 1].tolist(), n, table.shape[1])
            raise
    inputs[steps] = np.asarray(input_fn(times[steps], x), dtype=float).reshape(p)
    if not np.isfinite(table).all():
        _raise_first_non_finite(table.tolist(), n, table.shape[1])
    return Trajectory(times, states, inputs, m.state_labels, m.input_labels)


def simulate_feedback(m: StateSpaceModel, x0, K, r, cfg: SimConfig) -> Trajectory:
    """Propagate a linear model from x0 under the held input u = r - K x:
    feedback_rows' blocks joined once, as a Trajectory of views (exact ZOH only).

    At K = 0 the times and inputs equal those of simulate with input_fn
    returning r, bit for bit; the states agree within 1e-12 of each
    column's max |value|, and with feedback within 1e-9 of max|x0| over
    5 s runs. A diverging run raises NonFiniteState as simulate does.
    """
    import numpy as np
    if cfg.plant == "nonlinear_6dof" or cfg.integrator != "exact_zoh":
        raise ValueError("simulate_feedback needs a linear plant and integrator='exact_zoh'")
    K = np.asarray(K, dtype=float)
    r = np.asarray(r, dtype=float)
    if K.shape != (m.p, m.n) or r.shape != (m.p,):
        raise ValueError(
            f"need K of shape {(m.p, m.n)} and r of shape {(m.p,)}, got {K.shape} and {r.shape}"
        )
    x = np.asarray(x0, dtype=float).reshape(m.n)
    blocks = feedback_rows(m.A.tolist(), m.B.tolist(), K.tolist(), r.tolist(), x.tolist(), cfg)
    t, x, u = np.split(np.concatenate(blocks).reshape(-1, 1 + m.n + m.p), [1, 1 + m.n], axis=1)
    return Trajectory(t[:, 0], x, u, m.state_labels, m.input_labels)


def feedback_rows(a, b, K, r, x0, cfg: SimConfig) -> list[array]:
    """The run of simulate_feedback on nested lists, as array('d') blocks of
    CSV_BLOCK_ROWS rows t, x, u, only the last one partial. Each step is
    x+ = c + F x and u = r + (-K) x with F = Phi - Gamma K and c = Gamma r
    (_held_offset), each row summed from its offset over its nonzeros, so a
    6DOF step costs the chain blocks, and at K = 0 each input keeps r's bits, -0.0 too."""
    phi, gamma = expm_rows(a, b, cfg.dt)
    rows = [[p - q for p, q in zip(pr, qr)] for pr, qr in zip(phi, matmul(gamma, K))]
    offsets = [_held_offset(pairs, r) for pairs in nonzeros(gamma)]
    step = _step_function(rows, offsets, [[-v for v in row] for row in K], r)
    blocks, x, dt, n = [], tuple(x0), cfg.dt, cfg.n_steps + 1
    for lo in range(0, n, CSV_BLOCK_ROWS):
        blocks.append(block := array("d"))
        for i in range(lo, min(lo + CSV_BLOCK_ROWS, n)):
            row, x = step(i * dt, *x)
            block.extend(row)
    _raise_first_non_finite(blocks, len(a), 1 + len(a) + len(r))
    return blocks


def _held_offset(pairs, r) -> float:
    """Row i of Gamma r from its (k, v) pairs, written out as mix writes
    d (f2 - f4): the r_k that share one |v| are summed first, signed, so
    equal rotor forces give exactly 0 where each v r_k may overflow. Where a
    sum overflows, the row is the sum of the products v r_k instead."""
    sums = {}
    for k, v in pairs:
        sums[abs(v)] = sums.get(abs(v), 0.0) + (r[k] if v > 0 else -r[k])
    if not all(map(math.isfinite, sums.values())):  # opposite forces overflowed
        return sum((v * r[k] for k, v in pairs), 0.0)
    return sum((v * s for v, s in sums.items()), 0.0)


def _step_function(f_rows, c, k_rows, r):
    """The function (t, x) -> ((t, x, r + k_rows x), c + f_rows x), written
    out as one expression that sums each row left to right from its offset
    over its nonzeros: a step is then one call, not a loop per row. Only
    indices go into the source; the coefficients are bound as names."""
    names, terms = {}, []
    for i, (pairs, offset) in enumerate(zip(nonzeros(k_rows + f_rows), list(r) + list(c))):
        names[f"c{i}"] = offset
        names.update((f"f{i}_{j}", v) for j, v in pairs)
        terms.append("".join([f"c{i}"] + [f" + f{i}_{j} * x{j}" for j, _ in pairs]))
    x = [f"x{j}" for j in range(len(f_rows))]
    inputs, states = terms[: len(r)], terms[len(r) :]
    source = f"lambda t, {', '.join(x)}: ((t, {', '.join(x + inputs)}), ({', '.join(states)},))"
    return eval(source, names)


def _raise_first_non_finite(blocks, n: int, width: int) -> None:
    """Raise NonFiniteState at the first non-finite value of a run's blocks
    of flat rows (t, x, u), state row 0 aside: step i reads input i before it
    writes state i + 1, which is the rows' order, and NaN and inf survive + and *."""
    # a finite sum is the common case; an infinite one may be overflow alone
    if math.isfinite(sum(map(sum, blocks))):
        return
    for k, v in enumerate(islice(chain.from_iterable(blocks), 1 + n, None), 1 + n):
        if not math.isfinite(v):
            i, col = divmod(k, width)
            t = next(islice(chain.from_iterable(blocks), i * width, None))
            raise NonFiniteState(f"{'state' if col <= n else 'input'} became non-finite at t={t:g}")


def nonlinear_deriv(p: QuadParams, x, f: RotorForces) -> np.ndarray:
    """Reference-plant state derivative in the 6DOF state ordering.

    Keeps the trigonometric thrust decomposition but, like the linear
    models, has no drag and no gyroscopic coupling: it exists to measure
    how fast the small-angle linearization degrades, nothing more. Under
    sin a -> a, cos a -> 1, T -> m g it reduces exactly to the linear
    6DOF model.
    """
    import numpy as np
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


def simulate_nonlinear(
    p: QuadParams,
    x0,
    forces_fn: Callable[[float, np.ndarray], RotorForces],
    cfg: SimConfig,
) -> Trajectory:
    """Propagate the nonlinear reference plant under forces_fn(t, x).

    Always integrates with RK4 (there is no exact propagator here);
    forces are sampled at each step start and held, mirroring the linear
    simulator so the two runs are comparable sample by sample. The run is
    nonlinear_rows' in one block, with x handed to forces_fn as an array.
    """
    import numpy as np
    validate(p)
    if cfg.plant != "nonlinear_6dof":
        raise ValueError("simulate_nonlinear requires cfg.plant = 'nonlinear_6dof'")
    x0 = np.asarray(x0, dtype=float).reshape(12).tolist()
    [run] = nonlinear_rows(p, lambda t, x: forces_fn(t, np.array(x)).as_tuple(), x0, cfg,
                           cfg.n_steps + 1)
    t, x, f = np.split(np.frombuffer(run).reshape(-1, 17), [1, 13], axis=1)
    return Trajectory(t[:, 0], x, f, DOF6_STATE_LABELS, ROTOR_FORCE_LABELS)


def nonlinear_rows(p: QuadParams, forces, x0, cfg: SimConfig,
                   rows: int = CSV_BLOCK_ROWS) -> list[array]:
    """simulate_nonlinear's run as feedback_rows returns its own: array('d')
    blocks of `rows` rows t, x, F. forces(t, x), x a tuple of floats, gives
    the forces held from t; each step raises NonFiniteDerivative if it left
    the finite floats, and the last forces, which drive no step, are checked."""
    blocks, x, dt, n = [], tuple(x0), cfg.dt, cfg.n_steps + 1
    for lo in range(0, n, rows):
        blocks.append(block := array("d"))
        for i in range(lo, min(lo + rows, n)):
            t = i * dt
            f = forces(t, x)
            block.fromlist([t, *x, *f])
            if i == n - 1:
                break
            try:
                x = _rk4_held_forces(p, x, f, dt)
                # a finite sum is the common case; an infinite one may be overflow alone
                finite = math.isfinite(sum(x)) or all(map(math.isfinite, x))
            except ValueError:  # math.sin or math.cos of an infinite angle
                finite = False
            if not finite:
                raise NonFiniteDerivative(
                    f"derivative produced non-finite values on the step at t={t:g}"
                )
    if not all(map(math.isfinite, f)):
        raise NonFiniteState(f"input became non-finite at t={t:g}")
    return blocks


def _rk4_held_forces(p: QuadParams, x, forces, dt: float) -> tuple[float, ...]:
    """rk4_step of nonlinear_deriv under held forces, on Python floats.

    Every entry goes through the same operations in the same order as
    rk4_step(lambda t, xx: nonlinear_deriv(p, xx, f), x, t, dt), so the
    result is identical to the bit. The held forces give the thrust and the
    three angular accelerations once per step, and the stage states are
    formed only where the derivative reads them: the yaw angle and the
    positions never feed back.
    """
    px, py, pz, vx, vy, vz, phi, theta, psi, p_rate, q_rate, r_rate = x
    f1, f2, f3, f4 = map(float, forces)
    thrust = f1 + f2 + f3 + f4
    tm = thrust / p.m
    m, g, sin, cos = p.m, p.g, math.sin, math.cos
    # angular accelerations, held across the step
    ap = p.d * (f2 - f4) / p.Ix
    aq = p.d * (f1 - f3) / p.Iy
    ar = p.c * (-f1 + f2 - f3 + f4) / p.Iz
    h = 0.5 * dt

    # stage 1 at x
    ax1 = -tm * sin(theta)
    ay1 = tm * sin(phi)
    az1 = (thrust * cos(phi) * cos(theta)) / m - g
    # stage 2 at x + h k1; its body rates are also those of stage 3
    vx2, vy2, vz2 = vx + h * ax1, vy + h * ay1, vz + h * az1
    phi2, theta2 = phi + h * p_rate, theta + h * q_rate
    p2, q2, r2 = p_rate + h * ap, q_rate + h * aq, r_rate + h * ar
    ax2 = -tm * sin(theta2)
    ay2 = tm * sin(phi2)
    az2 = (thrust * cos(phi2) * cos(theta2)) / m - g
    # stage 3 at x + h k2
    vx3, vy3, vz3 = vx + h * ax2, vy + h * ay2, vz + h * az2
    phi3, theta3 = phi + h * p2, theta + h * q2
    ax3 = -tm * sin(theta3)
    ay3 = tm * sin(phi3)
    az3 = (thrust * cos(phi3) * cos(theta3)) / m - g
    # stage 4 at x + dt k3
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    phi4, theta4 = phi + dt * p2, theta + dt * q2
    p4, q4, r4 = p_rate + dt * ap, q_rate + dt * aq, r_rate + dt * ar
    ax4 = -tm * sin(theta4)
    ay4 = tm * sin(phi4)
    az4 = (thrust * cos(phi4) * cos(theta4)) / m - g

    c = dt / 6.0
    return (
        px + c * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
        py + c * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
        pz + c * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4),
        vx + c * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
        vy + c * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
        vz + c * (az1 + 2.0 * az2 + 2.0 * az3 + az4),
        phi + c * (p_rate + 2.0 * p2 + 2.0 * p2 + p4),
        theta + c * (q_rate + 2.0 * q2 + 2.0 * q2 + q4),
        psi + c * (r_rate + 2.0 * r2 + 2.0 * r2 + r4),
        p_rate + c * (ap + 2.0 * ap + 2.0 * ap + ap),
        q_rate + c * (aq + 2.0 * aq + 2.0 * aq + aq),
        r_rate + c * (ar + 2.0 * ar + 2.0 * ar + ar),
    )
