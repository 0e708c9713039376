"""Seeded input generators for the benchmark workloads.

The same (workload, seed) pair always yields byte-identical inputs, and
``digest`` hashes their canonical bytes so that two results can show they
measured the same traffic. The program under test only ever receives these
generated values, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np

WORKLOADS = ("cli_sim", "tilt_sweep", "design_sweep")

from .setups import DESK_PARAMS, TILT_POLE

PARAM_KEYS = ("m", "d", "c", "Ix", "Iy", "Iz")

STATE_LABELS_6DOF = (
    "x", "y", "z", "vx", "vy", "vz",
    "phi", "theta", "psi", "phi_dot", "theta_dot", "psi_dot",
)

# Operations generated per run. Longer runs than these cover cycle through
# the list again, so the input digest does not depend on run length.
CLI_OPS = 512
DESIGN_REQUESTS = 32768

# cli_sim: the canonical closed-loop 6DOF `sim` command of the roadmap.
CLI_T_FINAL = 5.0
CLI_DT = 0.001

# tilt_sweep: the linearization experiment of scripts/linearization_sweep.py.
TILT_T_FINAL = 1.0
TILT_DT = 1e-4

# design_sweep sends a fixed batch of requests per run, sized from --seconds,
# rather than running for a fixed time: about 18 % of its requests hit the
# known false rejection, and a fixed batch makes attempted and failed repeat
# exactly for a seed.
DESIGN_REQUESTS_PER_S = 200

# design_sweep: pole magnitudes and dt are drawn log-uniform over these bands.
POLE_BAND = (0.1, 100.0)
DT_BAND = (1e-4, 1e-2)
CHAINS_6DOF = (("z", 2), ("roll", 4), ("pitch", 4), ("yaw", 2))
CHAINS_3DOF = (("roll", 2), ("pitch", 2), ("yaw", 2))


def _rng(workload: str, seed: int) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def cli_sim(seed: int) -> dict:
    """Closed-loop CLI runs: desk-scale x0 and one repeated pole per run."""
    rng = _rng("cli_sim", seed)
    x0 = np.zeros((CLI_OPS, 12))
    x0[:, 0:3] = rng.uniform(-1.0, 1.0, (CLI_OPS, 3))    # x, y, z in m
    x0[:, 6:9] = rng.uniform(-0.1, 0.1, (CLI_OPS, 3))    # phi, theta, psi in rad
    poles = rng.uniform(-5.0, -1.0, CLI_OPS)
    return {"params": DESK_PARAMS, "x0": x0, "poles": poles,
            "t_final": CLI_T_FINAL, "dt": CLI_DT}


def tilt_sweep(seed: int) -> dict:
    """One initial pitch per run, straddling the 0.5 rad small-angle limit."""
    rng = _rng("tilt_sweep", seed)
    return {"params": DESK_PARAMS, "theta0": float(rng.uniform(0.01, 0.6)),
            "pole": TILT_POLE, "t_final": TILT_T_FINAL, "dt": TILT_DT}


def design_sweep(seed: int) -> dict:
    """Controller-design requests over a wide parameter, pole and dt range."""
    rng = _rng("design_sweep", seed)
    n = DESIGN_REQUESTS
    params = np.column_stack([
        rng.uniform(0.2, 5.0, n),      # m
        rng.uniform(0.1, 0.5, n),      # d
        rng.uniform(0.005, 0.05, n),   # c
        rng.uniform(0.002, 0.1, n),    # Ix
        rng.uniform(0.002, 0.1, n),    # Iy
        rng.uniform(0.004, 0.2, n),    # Iz
    ])
    poles6 = -_log_uniform(rng, *POLE_BAND, (n, sum(k for _, k in CHAINS_6DOF)))
    poles3 = -_log_uniform(rng, *POLE_BAND, (n, sum(k for _, k in CHAINS_3DOF)))
    dt = _log_uniform(rng, *DT_BAND, n)
    return {"params": params, "poles6": poles6, "poles3": poles3, "dt": dt}


def design_batch(seconds: float) -> int:
    """Requests one design_sweep run of ``seconds`` sends."""
    return max(2, min(DESIGN_REQUESTS, round(seconds * DESIGN_REQUESTS_PER_S)))


GENERATORS = {"cli_sim": cli_sim, "tilt_sweep": tilt_sweep, "design_sweep": design_sweep}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def digest(inputs: dict) -> str:
    """sha256 over the canonical bytes of a generated input set."""
    h = hashlib.sha256()
    for key in sorted(inputs):
        value = inputs[key]
        h.update(key.encode() + b"\0")
        if isinstance(value, np.ndarray):
            h.update(str(value.shape).encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def split_chains(row, chains) -> dict:
    """Cut one flat pole row into the per-chain tuples of a PoleSpec."""
    out, at = {}, 0
    for name, size in chains:
        out[name] = tuple(float(v) for v in row[at:at + size])
        at += size
    return out


def cli_argv(params_path: str, out_path: str, x0, pole: float, t_final: float, dt: float) -> list:
    """Arguments of one closed-loop `quadmodel sim` run (after the program name)."""
    assignments = ",".join(
        f"{label}={float(v)!r}" for label, v in zip(STATE_LABELS_6DOF, x0) if v != 0.0
    )
    return [
        "sim", "--dof", "6", "--params", params_path, "--mode", "closed",
        f"--poles={float(pole)!r}", f"--x0={assignments}",
        "--t-final", repr(float(t_final)), "--dt", repr(float(dt)), "--out", out_path,
    ]
