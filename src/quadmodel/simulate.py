"""Trajectory generation for the linear models and the nonlinear reference
plant, on Python floats: the float core of every run.

The linear models are propagated exactly: their A matrices are nilpotent,
so the zero-order-hold discretization is a finite polynomial in A, with
no truncation. The nonlinear plant is integrated by classical RK4.

Every run goes through one loop, held_rows, which samples the input at the
start of each step and holds it across the step. feedback_rows (u = r - K x),
linear_rows (any input function) and nonlinear_rows (the nonlinear plant under
held forces) give it their step and input, and return its generator of the
CSV's blocks of CSV_BLOCK_ROWS rows: 8.7 KB blocks reuse the heap that
compiling the package freed, where one 680 KB run buffer maps fresh pages.

A run that leaves the finite floats raises instead of yielding. A diverging
linear run raises NonFiniteState at the end of the block where it left them,
at its first non-finite input or state row, in step order (NaN and inf
survive + and *, so nothing is lost by waiting). The nonlinear plant hands
the state to its forces, so it checks every step and raises
NonFiniteDerivative at the step that overflowed, an infinite angle included.
The CLI maps both to exit code 4.
"""

from __future__ import annotations

import math
from array import array

from . import _twin
from ._record import Record
from .linalg import expm_rows, matmul, nonzeros
from .params import QuadParams
from .rotor_forces import _mixed

# checked only, and kept while perfbench's tilt_sweep passes integrator= and plant=
INTEGRATORS = ("exact_zoh", "rk4")
PLANTS = ("linear_3dof", "linear_6dof", "nonlinear_6dof")

MAX_STEPS = 10_000_000
CSV_BLOCK_ROWS = 64  # rows per block of a run and of the CSV


class StepCountExceeded(ValueError):
    """t_final/dt asks for more steps than the in-memory guard allows."""


class NonFiniteDerivative(ArithmeticError):
    """The derivative function produced NaN or infinity during a step."""


class NonFiniteState(ArithmeticError):
    """The propagated state left the finite floats."""


class SimConfig(Record):
    """Run settings: horizon and step. integrator and plant are only
    checked: the numpy simulators refuse a plant that is not theirs, and the
    linear ones refuse rk4 (see INTEGRATORS)."""

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
        # n_steps > MAX_STEPS, decided before ceil, which an infinite ratio overflows
        if self.t_final / self.dt - 1e-9 > MAX_STEPS:
            raise StepCountExceeded(
                f"t_final/dt = {self.t_final / self.dt:.3g} exceeds the {MAX_STEPS} step guard"
            )

    @property
    def n_steps(self) -> int:
        # ceil with a small backoff so t_final = k*dt does not round up to k+1
        return max(1, math.ceil(self.t_final / self.dt - 1e-9))


def held_rows(step, inputs, x0, cfg: SimConfig):
    """The one run loop: yields array('d') blocks of CSV_BLOCK_ROWS rows t, x,
    u, each scanned (_raise_first_non_finite), only the last one partial. At
    each t = i dt the held input u = inputs(t, x) is sampled and the row
    recorded, then x = step(t, x, u), except after the last row; x is a tuple."""
    x, dt, n = tuple(x0), cfg.dt, cfg.n_steps + 1
    for lo in range(0, n, CSV_BLOCK_ROWS):
        block = array("d")
        for i in range(lo, min(lo + CSV_BLOCK_ROWS, n)):
            t = i * dt
            u = inputs(t, x)
            block.fromlist([t, *x, *u])
            if i < n - 1:
                x = step(t, x, u)
        _raise_first_non_finite(block, len(x), 1 + len(x) + len(u))
        yield block


def feedback_rows(a, b, K, r, x0, cfg: SimConfig):
    """The run of simulate_feedback on nested lists, as held_rows' blocks.
    Each step is x+ = c + F x and u = feedback_law(K, r) with F = Phi -
    Gamma K and c = Gamma r (_held_offset), each row summed from its offset
    over its nonzeros, so a 6DOF step costs the chain blocks."""
    phi, gamma = expm_rows(a, b, cfg.dt)
    f_rows = [[p - q for p, q in zip(pr, qr)] for pr, qr in zip(phi, matmul(gamma, K))]
    step = _affine_function(f_rows, [_held_offset(pairs, r) for pairs in nonzeros(gamma)], len(a))
    return held_rows(step, feedback_law(K, r), x0, cfg)


def feedback_law(K, r):
    """u = r + (-K) x as a function (t, x), summed from r over -K's nonzeros."""
    return _affine_function([[-v for v in row] for row in K], r, len(K[0]))


def linear_rows(a, b, inputs, x0, cfg: SimConfig):
    """The exact-ZOH run of x' = A x + B u under the held u = inputs(t, x), a
    sequence of floats, as held_rows' blocks: each step is x+ = Phi x + Gamma u,
    each row summed over the nonzeros of Phi, then of Gamma."""
    phi, gamma = expm_rows(a, b, cfg.dt)
    step = _affine_function([pr + gr for pr, gr in zip(phi, gamma)], [None] * len(a), len(a))
    return held_rows(step, inputs, x0, cfg)


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


def _affine_function(rows, offsets, n: int):
    """The function (t, x, u=()) -> (offsets[i] + rows[i] . (x, u) for each
    row i), x of length n, as one expression per row, summed left to right
    from its offset (from its first product where the offset is None) over
    its nonzeros: a step is then one call, not a loop per row. Only indices
    go into the source; the coefficients are bound as names."""
    names, terms = {}, []
    for i, (pairs, offset) in enumerate(zip(nonzeros(rows), offsets)):
        names[f"c{i}"] = offset
        names.update((f"f{i}_{j}", v) for j, v in pairs)
        products = [f"f{i}_{j} * v{j}" for j, _ in pairs]
        terms.append(" + ".join([f"c{i}"] * (offset is not None) + products))
    v = [f"v{j}, " for j in range(len(rows[0]) if rows else n)]
    unpack = f" {''.join(v[:n])}= x\n" + (f" {''.join(v[n:])}= u\n" if v[n:] else "")
    exec(f"def f(t, x, u=()):\n{unpack} return ({''.join(t + ', ' for t in terms)})", names)
    return names.pop("f")  # f's globals are names: left in them, f would be a reference cycle


def _raise_first_non_finite(block, n: int, width: int) -> None:
    """Raise NonFiniteState at the first non-finite value of a block of flat
    rows (t, x, u): step i reads input i before it writes state i + 1, which
    is the rows' order."""
    # a finite sum is the common case; an infinite one may be overflow alone
    if math.isfinite(sum(block)):
        return
    for k in range(len(block)):
        if not math.isfinite(block[k]):
            i, col = divmod(k, width)
            t = block[i * width]
            raise NonFiniteState(f"{'state' if col <= n else 'input'} became non-finite at t={t:g}")


def nonlinear_rows(p: QuadParams, forces, x0, cfg: SimConfig):
    """simulate_nonlinear's run as held_rows' blocks of rows t, x, F.
    forces(t, x) gives the four forces, as floats, held from t; each step
    raises NonFiniteDerivative if it left the finite floats, so the last
    block's scan checks the last forces, which drive no step."""
    dt = cfg.dt

    def step(t, x, f):
        try:
            x = _rk4_held_forces(p, x, f, dt)
            # a finite sum is the common case; an infinite one may be overflow alone
            if math.isfinite(sum(x)) or all(map(math.isfinite, x)):
                return x
        except ValueError:  # math.sin or math.cos of an infinite angle
            pass
        raise NonFiniteDerivative(f"derivative produced non-finite values on the step at t={t:g}")

    return held_rows(step, forces, x0, cfg)


def _rk4_held_forces(p: QuadParams, x, forces, dt: float) -> tuple[float, ...]:
    """rk4_step of nonlinear_deriv under held forces, on Python floats.

    Every entry goes through the same operations in the same order as
    arrays.rk4_step(lambda t, xx: arrays.nonlinear_deriv(p, xx, f), x, t,
    dt), so the result is identical to the bit. The held forces give the
    thrust and the three angular accelerations once per step, through
    _mixed, and the stage states are formed only where the derivative reads
    them: the yaw angle and the positions never feed back.
    """
    px, py, pz, vx, vy, vz, phi, theta, psi, p_rate, q_rate, r_rate = x
    f1, f2, f3, f4 = forces  # named, not starred: CPython's starred call is the slow path
    thrust, roll, pitch, yaw = _mixed(f1, f2, f3, f4, p)
    tm = thrust / p.m
    m, g, sin, cos = p.m, p.g, math.sin, math.cos
    # angular accelerations, held across the step
    ap, aq, ar = roll / p.Ix, pitch / p.Iy, yaw / p.Iz
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


def __getattr__(name):  # a numpy twin, in quadmodel.arrays
    return _twin(__name__, name)
