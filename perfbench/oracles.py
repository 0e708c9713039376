"""Independent correctness oracles, on the benchmark side only.

Everything here is rebuilt from the documented physics (README: state and
input orderings, x_ddot = -g*theta, y_ddot = +g*phi, z_ddot = U1/m, the
rotor geometry and the CSV contract) with numpy and scipy, and never calls
quadmodel. Each check returns an ``Outcome``: an operation fails when the
program raised or exited non-zero, and also when an output it returned
disagrees with the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

# A valid request refused with this error is the known false rejection of
# spread pole sets; it counts as failed but is not a wrong answer.
KNOWN_DEFECT = "InternalStabilityCheckFailed"

RTOL = 1e-9          # relative tolerance on propagated states and matrices
SPECTRUM_RTOL = 1e-7  # relative tolerance on a simple closed-loop pole
IVP_TOL = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14}

STATE_LABELS = ("x", "y", "z", "vx", "vy", "vz",
                "phi", "theta", "psi", "phi_dot", "theta_dot", "psi_dot")
CSV_HEADER = "t," + ",".join(STATE_LABELS + ("U1", "U2", "U3", "U4"))

# 6DOF chains: (input row, chain states with the most-integrated first)
CHAINS_6DOF = ((0, (2, 5)), (1, (1, 4, 6, 9)), (2, (0, 3, 7, 10)), (3, (8, 11)))


@dataclass
class Outcome:
    failed: bool = False
    wrong: bool = False          # an output disagreed with the oracle
    known_defect: bool = False   # the failure is the known false rejection
    reason: str = ""
    designs: int = 0             # gain designs attempted
    designs_verified: int = 0    # ... that returned a gain the oracle accepts

    def error(self, message: str) -> "Outcome":
        known = KNOWN_DEFECT in message
        self.known_defect = known if not self.failed else self.known_defect and known
        self.failed = True
        self.reason = self.reason or message
        return self

    def mismatch(self, message: str) -> "Outcome":
        self.failed = self.wrong = True
        self.known_defect = False
        self.reason = message
        return self


def count(outcomes) -> dict:
    """attempted / failed / failed_ratio, plus whether every output held."""
    outcomes = list(outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_ratio": failed / len(outcomes) if outcomes else float("nan"),
        "wrong": sum(o.wrong for o in outcomes),
        "unexpected_errors": sum(o.failed and not o.wrong and not o.known_defect
                                 for o in outcomes),
        "known_defect": sum(o.known_defect for o in outcomes),
    }


# ---------------------------------------------------------------- physics

def matrices_6dof(p: dict):
    A = np.zeros((12, 12))
    for pos, vel in ((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)):
        A[pos, vel] = 1.0
    A[3, 7] = -p["g"]
    A[4, 6] = p["g"]
    B = np.zeros((12, 4))
    B[5, 0], B[9, 1], B[10, 2], B[11, 3] = 1 / p["m"], 1 / p["Ix"], 1 / p["Iy"], 1 / p["Iz"]
    return A, B


def mixer(p: dict) -> np.ndarray:
    """Rows: total thrust, roll torque d(F2-F4), pitch d(F1-F3), yaw c(-F1+F2-F3+F4)."""
    d, c = p["d"], p["c"]
    return np.array([[1.0, 1.0, 1.0, 1.0],
                     [0.0, d, 0.0, -d],
                     [d, 0.0, -d, 0.0],
                     [-c, c, -c, c]])


def matrices_3dof(p: dict):
    A = np.zeros((6, 6))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0
    B = np.zeros((6, 4))
    B[3:] = mixer(p)[1:] / np.array([[p["Ix"]], [p["Iy"]], [p["Iz"]]])
    return A, B


def params_dict(row, g: float = 9.81) -> dict:
    return dict(zip(("m", "d", "c", "Ix", "Iy", "Iz"), (float(v) for v in row)), g=g)


def ackermann(A, b, poles) -> np.ndarray:
    """Single-input pole placement: K = e_n^T C^-1 phi(A)."""
    n = len(poles)
    ctrb = np.column_stack([np.linalg.matrix_power(A, j) @ b for j in range(n)])
    coeffs = np.real(np.poly(poles))
    phi = sum(c * np.linalg.matrix_power(A, n - j) for j, c in enumerate(coeffs))
    return np.linalg.solve(ctrb.T, np.eye(n)[-1]) @ phi


def gains_6dof(p: dict, pole: float) -> np.ndarray:
    """The decoupled chain gain placing every 6DOF chain at ``pole``."""
    A, B = matrices_6dof(p)
    K = np.zeros((4, 12))
    for row, states in CHAINS_6DOF:
        idx = list(states)
        K[row, idx] = ackermann(A[np.ix_(idx, idx)], B[idx, row], [pole] * len(idx))
    return K


def zoh(A, B, dt):
    """(Phi, Gamma) from the matrix exponential of [[A, B], [0, 0]] dt."""
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n], aug[:n, n:] = A, B
    e = expm(aug * dt)
    return e[:n, :n], e[:n, n:]


def spectrum_matches(A, B, K, requested) -> bool:
    """Closed-loop eigenvalues of A - B K equal the requested multiset. A
    pole requested m times is only determined to about eps^(1/m), so the
    tolerance widens with the size of its cluster of near-equal poles."""
    requested = np.asarray(requested, dtype=complex)
    eig = np.linalg.eigvals(A - B @ K)
    if eig.shape != requested.shape or not np.all(np.isfinite(eig)):
        return False
    mag = np.abs(requested)
    cluster = (np.abs(requested[:, None] - requested[None, :]) <= 1e-3 * mag[:, None]).sum(1)
    tol = mag * np.maximum(SPECTRUM_RTOL, 10.0 * 1e-15 ** (1.0 / cluster))
    cost = np.abs(eig[:, None] - requested[None, :]) / tol[None, :]
    rows, cols = linear_sum_assignment(cost)
    return bool(np.all(cost[rows, cols] <= 1.0))


def _close(got, want, scale) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= RTOL * scale))


def _matrix_close(got, want) -> bool:
    return _close(got, want, max(1.0, float(np.max(np.abs(want)))))


def nilpotency_index(A) -> int:
    power = np.eye(A.shape[0])
    for k in range(1, A.shape[0] + 1):
        power = power @ A
        if not np.any(power):
            return k
    return -1


# ---------------------------------------------------------------- cli_sim

def check_cli(record: dict, params: dict, x0, pole: float, t_final: float,
              dt: float) -> Outcome:
    """Exit code, the CSV contract, and the final state against
    (Phi - Gamma K)^N x0 for the documented chain gain."""
    out = Outcome(designs=1)
    if "error" in record:
        return out.error(record["error"])
    if record["rc"] != 0:
        return out.error(f"exit code {record['rc']}: {record.get('stderr', '').strip()[:300]}")
    csv = record["csv"]
    steps = round(t_final / dt)
    if csv["header"] != CSV_HEADER:
        return out.mismatch(f"CSV header {csv['header'][:80]!r}")
    if csv["newlines"] != steps + 2 or not csv["ends_with_newline"] or csv["has_cr"]:
        return out.mismatch(f"CSV has {csv['newlines']} lines, want {steps + 2} LF-terminated")
    A, B = matrices_6dof(params)
    K = gains_6dof(params, pole)
    phi, gamma = zoh(A, B, dt)
    x0 = np.asarray(x0, dtype=float)
    xN = np.linalg.matrix_power(phi - gamma @ K, steps) @ x0
    scale = float(np.max(np.abs(x0)))
    first, last = np.array(csv["first"]), np.array(csv["last"])
    if first.shape != (17,) or last.shape != (17,):
        return out.mismatch("CSV rows do not have 17 columns")
    if first[0] != 0.0 or not _close(first[1:13], x0, scale) \
            or not _close(first[13:], -K @ x0, scale * np.max(np.abs(K))):
        return out.mismatch("first CSV row differs from (0, x0, -K x0)")
    if not math.isclose(last[0], steps * dt, rel_tol=1e-12):
        return out.mismatch(f"final time {last[0]!r}, want {steps * dt!r}")
    if not _close(last[1:13], xN, scale):
        return out.mismatch("final state differs from (Phi - Gamma K)^N x0")
    if not _close(last[13:], -K @ xN, scale * np.max(np.abs(K))):
        return out.mismatch("final input differs from -K x_N")
    out.designs_verified = 1
    return out


# ---------------------------------------------------------------- tilt_sweep

def nonlinear_rhs(p: dict, x, f) -> np.ndarray:
    """Trigonometric reference plant driven by rotor forces f, no drag."""
    thrust, roll, pitch, yaw = mixer(p) @ f
    phi, theta = x[6], x[7]
    return np.array([
        x[3], x[4], x[5],
        -thrust / p["m"] * math.sin(theta),
        thrust / p["m"] * math.sin(phi),
        thrust * math.cos(phi) * math.cos(theta) / p["m"] - p["g"],
        x[9], x[10], x[11],
        roll / p["Ix"], pitch / p["Iy"], yaw / p["Iz"],
    ])


class TiltOracle:
    """Reference final states for one initial pitch, computed once per run."""

    def __init__(self, params: dict, theta0: float, pole: float, t_final: float, dt: float):
        self.p, self.dt = params, dt
        self.steps = round(t_final / dt)
        self.x0 = np.zeros(12)
        self.x0[7] = theta0
        self.scale = abs(theta0)
        A, _ = matrices_6dof(params)
        self.linear = expm(A * t_final) @ self.x0
        hover = np.full(4, params["m"] * params["g"] / 4.0)
        sol = solve_ivp(lambda t, x: nonlinear_rhs(params, x, hover), (0.0, t_final),
                        self.x0, **IVP_TOL)
        self.open_loop = sol.y[:, -1]
        self.K = gains_6dof(params, pole)
        self.closed_loop = None   # set by check_closed_loop from a full record

    def check_closed_loop(self, states, forces) -> str:
        """The feedback law on the program's own states, then the plant
        driven by the recorded held forces, step by step with solve_ivp."""
        p = self.p
        if states.shape != (self.steps + 1, 12):
            return f"closed-loop trajectory has shape {states.shape}"
        u = -states[:-1] @ self.K.T
        u[:, 0] += p["m"] * p["g"]
        want = np.linalg.solve(mixer(p), u.T).T
        if not _close(forces[:-1], want, p["m"] * p["g"]):
            return "held forces differ from demix(-K x)"
        x = self.x0.copy()
        for k in range(self.steps):
            sol = solve_ivp(lambda t, xx, f=forces[k]: nonlinear_rhs(p, xx, f),
                            (k * self.dt, (k + 1) * self.dt), x, **IVP_TOL)
            x = sol.y[:, -1]
        if not _close(states[-1], x, self.scale):
            return "closed-loop final state differs from solve_ivp on the held forces"
        self.closed_loop = x
        return ""

    def check(self, record: dict) -> Outcome:
        out = Outcome()
        if "error" in record:
            return out.error(record["error"])
        if record["rows"] != [self.steps + 1] * 3:
            return out.mismatch(f"trajectory lengths {record['rows']}")
        final = record["final"]
        if not _close(final[0], self.linear, self.scale):
            return out.mismatch("linear final state differs from expm(A t) x0")
        if not _close(final[1], self.open_loop, self.scale):
            return out.mismatch("open-loop nonlinear final state differs from solve_ivp")
        if self.closed_loop is None:
            return out.mismatch("no verified closed-loop reference trajectory")
        if not _close(final[2], self.closed_loop, self.scale):
            return out.mismatch("closed-loop nonlinear final state differs from solve_ivp")
        return out


# ---------------------------------------------------------------- design_sweep

def _report_expected(n: int, nilpotency: int):
    return (n, n, True, True, (1.0,) + (0.0,) * n, "marginal_or_unstable", nilpotency)


def _report_matches(got, want) -> bool:
    if got is None or len(got) != len(want):
        return False
    return (tuple(got[:4]) == want[:4] and got[5:] == want[5:]
            and _matrix_close(np.array(got[4]), np.array(want[4])))


def check_design(record: dict, params_row, poles6, poles3, dt: float) -> Outcome:
    """Analysis reports, closed-loop spectra of both gains, and both ZOH pairs."""
    out = Outcome(designs=2)
    if "error" in record:
        return out.error(record["error"])
    p = params_dict(params_row)
    A6, B6 = matrices_6dof(p)
    A3, B3 = matrices_3dof(p)
    got = record["out"]
    for name, A, B, poles in (("stabilize.design_6dof_gains", A6, B6, poles6),
                              ("stabilize.design_3dof_gains", A3, B3, poles3)):
        if name in got:
            if not spectrum_matches(A, B, got[name], poles):
                return out.mismatch(f"{name}: closed-loop spectrum differs from the request")
            out.designs_verified += 1
    for name, A, n in (("analysis.analyze_6dof", A6, 12), ("analysis.analyze_3dof", A3, 6)):
        if name in got and not _report_matches(got[name], _report_expected(n, nilpotency_index(A))):
            return out.mismatch(f"{name}: report {got[name]!r}")
    for name, A, B in (("simulate.zoh_discretize", A6, B6),
                       ("simulate.zoh_discretize_3dof", A3, B3)):
        if name in got:
            phi, gamma = zoh(A, B, dt)
            if not (_matrix_close(got[name][0], phi) and _matrix_close(got[name][1], gamma)):
                return out.mismatch(f"{name}: (Phi, Gamma) differs from expm of [[A, B], [0, 0]]")
    for message in record["errors"].values():
        out.error(message)
    return out
